#!/usr/bin/env bash
# Sampling profile of the benchmark sweep driver, perfbench.
#
# Builds perfbench in Release with -g -fno-omit-frame-pointer under
# .host_profile/ (git-ignored), runs one sweep for the given time at
# seed 1 with the sampler tools/host_profile_sampler.c preloaded (a
# 5 kHz CLOCK_MONOTONIC timer, frame-pointer stack walks, samples kept
# in memory and written at exit), then symbolizes the samples with
# llvm-symbolizer --inlines and prints inclusive shares by phase and by
# function. Inlined functions count as their own frames, so a lookup
# the compiler folded into its caller still shows up by name.
#
# The phase of a sample is the first frame below perfbench's runCell
# (build, init, kernels, simulate, verify, counts, teardown); a walk
# that never reaches runCell (a frame without a frame pointer, in libc
# say) counts as "(walk stopped)". Inclusive share: samples with the
# function anywhere on the stack. Self share: samples whose innermost
# (inlined) frame is the function. Classes and namespaces get their
# own inclusive table (samples with any of their functions on the
# stack).
#
# Changes no source file and no simulated stat.
#
# Usage: tools/host_profile.sh <paper12|allmiss|dmp12> [seconds]
#        (default 10 s; raw samples stay in .host_profile/run/)
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=${1:?usage: tools/host_profile.sh <paper12|allmiss|dmp12> [seconds]}
SECS=${2:-10}
SEED=1
OUT=.host_profile
BUILD=$OUT/build

if [ ! -f "$BUILD/CMakeCache.txt" ]; then
    cmake -S perfbench -B "$BUILD" -DCMAKE_BUILD_TYPE=Release \
        "-DCMAKE_CXX_FLAGS=-g -fno-omit-frame-pointer" >&2
fi
cmake --build "$BUILD" --target perfbench -j 4 >&2
cc -O2 -shared -fPIC -o "$OUT/sampler.so" tools/host_profile_sampler.c

EXE=$(realpath "$BUILD/perfbench")
SAMPLER=$(realpath "$OUT/sampler.so")
rm -rf "$OUT/run"
mkdir -p "$OUT/run"
(cd "$OUT/run" && LD_PRELOAD="$SAMPLER" "$EXE" --sweep "$WORKLOAD" \
    --seed "$SEED" --seconds "$SECS" > perfbench.jsonl)

python3 - "$OUT/run" "$WORKLOAD" "$SECS" <<'EOF'
import collections, glob, json, os, struct, subprocess, sys

run, workload, secs = sys.argv[1:4]
samples_path = glob.glob(os.path.join(run, "hostprof.*.samples"))[0]
maps_path = samples_path[: -len(".samples")] + ".maps"

cells = [json.loads(l) for l in open(os.path.join(run, "perfbench.jsonl"))]
bad = sum(1 for c in cells if not c.get("ok"))

# Executable mappings: (start, end, path, load base).
first = {}
maps = []
for line in open(maps_path):
    parts = line.split()
    if len(parts) < 6 or not parts[5].startswith("/"):
        continue
    start, end = (int(x, 16) for x in parts[0].split("-"))
    path, off = parts[5], int(parts[2], 16)
    if off == 0 and path not in first:
        first[path] = start
    if "x" in parts[1]:
        maps.append((start, end, path))


def is_pie(path):
    with open(path, "rb") as f:
        hdr = f.read(18)
    return struct.unpack_from("<H", hdr, 16)[0] == 3  # ET_DYN


bases = {p: (first.get(p, 0) if is_pie(p) else 0) for _, _, p in maps}


def locate(pc):
    for start, end, path in maps:
        if start <= pc < end:
            return path, pc - bases[path]
    return None, pc


data = open(samples_path, "rb").read()
words = struct.unpack(f"<{len(data) // 8}Q", data)
stacks = []
i = 0
while i < len(words):
    n = words[i]
    # Return addresses point after the call; step back into it.
    stacks.append([words[i + 1]] + [pc - 1 for pc in words[i + 2:i + 1 + n]])
    i += 1 + n

todo = collections.defaultdict(set)
for st in stacks:
    for pc in st:
        path, off = locate(pc)
        if path:
            todo[path].add(off)


def short(name):
    """Drop the parameter list, so overloads and clones share a row."""
    if name.endswith(" const"):
        name = name[:-6]
    if not name.endswith(")"):
        return name
    depth = 0
    for j in range(len(name) - 1, -1, -1):
        depth += {")": 1, "(": -1}.get(name[j], 0)
        if depth == 0:
            return name if name[:j].endswith("operator") else name[:j]
    return name


def owner(name):
    """The class or namespace part of a function name, or None."""
    depth, start = 0, 0  # start: past a return type or "thunk to"
    for j, c in enumerate(name):
        depth += {"<": 1, ">": -1, "(": 1, ")": -1}.get(c, 0)
        if depth == 0 and c == " ":
            start = j + 1
    depth = 0
    for j in range(len(name) - 1, start, -1):
        depth += {">": 1, "<": -1, ")": 1, "(": -1}.get(name[j], 0)
        if depth == 0 and name[j - 1:j + 1] == "::":
            return name[start:j - 1]
    return None


frames = {}  # (path, off) -> function names, innermost first
for path, offs in todo.items():
    offs = sorted(offs)
    out = subprocess.run(
        ["llvm-symbolizer", "--inlines", "--obj=" + path],
        input="".join(f"0x{o:x}\n" for o in offs), capture_output=True,
        text=True, check=True).stdout
    blocks = out.split("\n\n")
    for off, block in zip(offs, blocks):
        lines = block.strip("\n").split("\n")
        names = [short(l) for l in lines[0::2] if l]
        if not names or names == ["??"]:
            names = [os.path.basename(path) + "+?"]
        frames[(path, off)] = names

PHASES = [("build", ("System::System", "_Function_handler", "lambda",
                     "make_unique")),
          ("init", ("::init",)),
          ("kernels", ("makeKernel", "setKernel")),
          ("simulate", ("System::run",)),
          ("verify", ("::verify",)),
          ("counts", ("countsJson",)),
          ("teardown", ("~", "reset"))]


def phase_of(chain):
    """chain: names outermost first."""
    for j, name in enumerate(chain):
        if name.endswith("runCell"):
            below = chain[j + 1] if j + 1 < len(chain) else ""
            for ph, keys in PHASES:
                if any(k in below for k in keys):
                    return ph
            return "runCell (own code)"
    return "(walk stopped)" if not any(
        n == "main" for n in chain) else "main (outside cells)"


incl = collections.Counter()
self_ = collections.Counter()
classes = collections.Counter()
phases = collections.Counter()
for st in stacks:
    chain = []  # innermost first
    for pc in st:
        path, off = locate(pc)
        chain.extend(frames.get((path, off), ["?"]) if path else ["?"])
    self_[chain[0]] += 1
    for name in set(chain):
        incl[name] += 1
    for cls in {owner(n) for n in chain} - {None}:
        classes[cls] += 1
    phases[phase_of(chain[::-1])] += 1

total = len(stacks)
print(f"host_profile: {workload}, seed 1, {secs} s, {total} samples, "
      f"{len(cells)} cells ({bad} not ok)")
print("\n| phase | share |\n|---|---|")
for ph, c in phases.most_common():
    print(f"| {ph} | {100.0 * c / total:.1f}% |")
print("\n| class or namespace | inclusive |\n|---|---|")
for cls, c in classes.most_common(25):
    print(f"| `{cls[:90]}` | {100.0 * c / total:.1f}% |")
print("\n| function | inclusive | self |\n|---|---|---|")
for name, c in incl.most_common(45):
    print(f"| `{name[:90]}` | {100.0 * c / total:.1f}% | "
          f"{100.0 * self_[name] / total:.1f}% |")
EOF
