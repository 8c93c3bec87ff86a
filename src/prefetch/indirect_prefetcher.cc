#include "prefetch/indirect_prefetcher.hh"

#include <bit>
#include <cstdlib>

#include "common/logging.hh"
#include "sim/stat_registry.hh"

namespace dx::prefetch
{

IndirectPrefetcher::IndirectPrefetcher(const Config &cfg,
                                       const SimMemory *mem)
    : Component("dmp"), cfg_(checked(cfg)), mem_(mem),
      streams_(cfg.streamTableSize), patterns_(cfg.patternTableSize),
      unused_(cfg.patternTableSize),
      atLevel_(static_cast<std::size_t>(cfg.confidenceThreshold) + 3),
      buckets_(std::bit_ceil(4 * cfg.patternTableSize)),
      indexShift_(64 - static_cast<unsigned>(
                           std::countr_zero(buckets_.size()))),
      recent_(cfg.recentValues), queue_(cfg.queueMax)
{
}

const IndirectPrefetcher::Config &
IndirectPrefetcher::checked(const Config &cfg)
{
    // Before any table is sized from it.
    dx_assert(cfg.streamTableSize > 0 && cfg.patternTableSize > 0 &&
                  cfg.patternTableSize <= kMaxPatterns &&
                  cfg.confidenceThreshold >= 1,
              "dmp: config out of range (SystemConfig::validate names "
              "the limits)");
    return cfg;
}

IndirectPrefetcher::Stream &
IndirectPrefetcher::streamFor(std::uint16_t pc)
{
    return streams_[pc % cfg_.streamTableSize];
}

void
IndirectPrefetcher::push(Addr line)
{
    if (!queue_.full())
        queue_.push(lineAlign(line));
}

void
IndirectPrefetcher::observe(const cache::CacheReq &req, bool miss)
{
    if (req.origin != mem::Origin::kCpuDemand)
        return;

    // 1. Differential matching: correlate this miss address with the
    //    values of recent strided index loads. RMW targets are writes
    //    that read, so they participate too.
    if (miss)
        matchMiss(req.addr);

    if (req.write || req.pc == 0)
        return;

    // 2. Stream detection over the index load's addresses.
    Stream &s = streamFor(req.pc);
    if (!s.valid || s.pc != req.pc) {
        s = Stream{};
        s.valid = true;
        s.pc = req.pc;
        s.lastAddr = req.addr;
        return;
    }
    const std::int64_t delta = static_cast<std::int64_t>(req.addr) -
                               static_cast<std::int64_t>(s.lastAddr);
    s.lastAddr = req.addr;
    if (delta == 0)
        return;
    if (delta == s.stride) {
        if (s.confidence < cfg_.confidenceThreshold + 2)
            ++s.confidence;
    } else {
        if (--s.confidence <= 0) {
            s.stride = delta;
            s.confidence = 1;
        }
        return;
    }

    if (s.confidence < cfg_.confidenceThreshold)
        return;
    const std::int64_t absStride = std::abs(s.stride);
    if (absStride != 4 && absStride != 8)
        return; // not an index-element stream

    // Remember this confirmed index load for matching and triggering.
    Recent r;
    r.pc = req.pc;
    r.value = req.value;
    r.addr = req.addr;
    r.stride = s.stride;
    r.bytes = static_cast<unsigned>(absStride);
    if (cfg_.recentValues > 0) {
        if (recent_.full())
            recent_.pop();
        recent_.push(r);
    }

    // Stream-prefetch the index array itself.
    for (unsigned k = 1; k <= cfg_.streamDegree; ++k) {
        push(static_cast<Addr>(
            static_cast<std::int64_t>(req.addr) +
            s.stride * static_cast<std::int64_t>(8 + k)));
        ++stats_.streamPrefetches;
    }

    triggerIndirect(r);
}

unsigned
IndirectPrefetcher::indexHome(std::uint16_t pc, unsigned scale,
                              std::int64_t base) const
{
    const std::uint64_t key = static_cast<std::uint64_t>(base) ^
                              (std::uint64_t{pc} << 48) ^
                              (std::uint64_t{scale} << 44);
    return static_cast<unsigned>((key * 0x9E3779B97F4A7C15ull) >>
                                 indexShift_);
}

int
IndirectPrefetcher::findPattern(std::uint16_t pc, unsigned scale,
                                std::int64_t base, unsigned &home) const
{
    home = indexHome(pc, scale, base);
    for (std::uint64_t m = buckets_[home]; m; m &= m - 1) {
        const auto slot = static_cast<unsigned>(std::countr_zero(m));
        const Pattern &p = patterns_[slot];
        if (p.base == base && p.indexPc == pc && p.scale == scale)
            return static_cast<int>(slot);
    }
    return -1;
}

void
IndirectPrefetcher::setConfidence(unsigned slot, int confidence)
{
    const std::uint64_t bit = std::uint64_t{1} << slot;
    Pattern &p = patterns_[slot];
    atLevel_[static_cast<unsigned>(p.confidence)] &= ~bit;
    atLevel_[static_cast<unsigned>(confidence)] |= bit;
    p.confidence = confidence;
}

void
IndirectPrefetcher::matchMiss(Addr missAddr)
{
    // Candidates run oldest recent value first, scale 4 then 8; each
    // one's update is visible to the next.
    for (unsigned i = 0; i < recent_.len; ++i) {
        const Recent &r = recent_[i];
        for (unsigned scale : {4u, 8u}) {
            const std::int64_t base =
                static_cast<std::int64_t>(missAddr) -
                static_cast<std::int64_t>(r.value * scale);
            if (base < 0)
                continue;
            // Confirm or allocate a pattern (indexPc, scale, base).
            // Keys are unique: a key is written only after this lookup
            // missed.
            unsigned home;
            if (const int hit = findPattern(r.pc, scale, base, home);
                hit >= 0) {
                const Pattern &p = patterns_[static_cast<unsigned>(hit)];
                if (p.confidence < cfg_.confidenceThreshold + 2)
                    setConfidence(static_cast<unsigned>(hit),
                                  p.confidence + 1);
                if (p.confidence == cfg_.confidenceThreshold)
                    ++stats_.patternsLearned;
                continue;
            }
            unsigned slot;
            if (unused_ > 0) {
                slot = --unused_;
            } else {
                // Full table: the weakest pattern, lowest slot first.
                unsigned c = 0;
                while (!atLevel_[c])
                    ++c;
                slot = static_cast<unsigned>(
                    std::countr_zero(atLevel_[c]));
                if (c > 0) {
                    setConfidence(slot, static_cast<int>(c) - 1);
                    continue;
                }
                const Pattern &old = patterns_[slot];
                buckets_[indexHome(old.indexPc, old.scale, old.base)] &=
                    ~(std::uint64_t{1} << slot);
            }
            Pattern &p = patterns_[slot];
            p.indexPc = r.pc;
            p.base = base;
            p.scale = scale;
            setConfidence(slot, 1);
            buckets_[home] |= std::uint64_t{1} << slot;
        }
    }
}

void
IndirectPrefetcher::triggerIndirect(const Recent &r)
{
    std::uint64_t confident = 0;
    for (std::size_t c = static_cast<std::size_t>(cfg_.confidenceThreshold);
         c < atLevel_.size(); ++c)
        confident |= atLevel_[c];

    bool haveValue = false;
    std::uint64_t v = 0;
    for (; confident; confident &= confident - 1) {
        const Pattern &p =
            patterns_[static_cast<unsigned>(std::countr_zero(confident))];
        if (p.indexPc != r.pc)
            continue;
        if (!haveValue) {
            // Future index value, d elements ahead of the demand stream.
            const Addr futureAddr = static_cast<Addr>(
                static_cast<std::int64_t>(r.addr) +
                r.stride * static_cast<std::int64_t>(cfg_.distance));
            v = r.bytes == 4 ? mem_->read<std::uint32_t>(futureAddr)
                             : mem_->read<std::uint64_t>(futureAddr);
            haveValue = true;
        }
        push(static_cast<Addr>(p.base + v * p.scale));
        ++stats_.indirectPrefetches;
    }
}

bool
IndirectPrefetcher::nextPrefetch(Addr &line)
{
    if (queue_.empty())
        return false;
    line = queue_.pop();
    return true;
}

void
IndirectPrefetcher::registerStats(StatRegistry &reg) const
{
    auto g = reg.group(path());
    g.value("patternsLearned", stats_.patternsLearned);
    g.value("indirectPrefetches", stats_.indirectPrefetches);
    g.value("streamPrefetches", stats_.streamPrefetches);
}

} // namespace dx::prefetch
