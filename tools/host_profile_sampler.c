/*
 * Sampling profiler preloaded into perfbench by tools/host_profile.sh.
 *
 * A CLOCK_MONOTONIC POSIX timer sends SIGPROF to the thread that loaded
 * the library (the main thread) every kPeriodNs. The handler walks the
 * stack by frame pointers and appends the program counters to a buffer
 * mapped once at load time; nothing is allocated or written while the
 * program runs. At exit the samples and a copy of /proc/self/maps go to
 * hostprof.<pid>.samples and hostprof.<pid>.maps in the working
 * directory. Sample layout: one 64-bit word with the frame count n,
 * then n program counters, innermost first (the first is the
 * interrupted pc, the rest are return addresses).
 *
 * Build: cc -O2 -shared -fPIC -o sampler.so host_profile_sampler.c
 */

#define _GNU_SOURCE
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <ucontext.h>
#include <unistd.h>

#ifndef sigev_notify_thread_id
#define sigev_notify_thread_id _sigev_un._tid
#endif

enum {
    kPeriodNs = 200000,          /* 5 kHz */
    kMaxDepth = 128,
    kBufWords = 16 * 1024 * 1024 /* 128 MiB, touched only as used */
};

static uint64_t *buf;
static size_t used;
static uint64_t dropped;
static uintptr_t stackLo, stackHi;
static timer_t timer;
static int armed;

static void
onSample(int sig, siginfo_t *si, void *ctx)
{
    (void)sig;
    (void)si;
    const ucontext_t *uc = ctx;
    if (used + 1 + kMaxDepth > kBufWords) {
        ++dropped;
        return;
    }
    uint64_t *rec = &buf[used];
    uint64_t n = 0;
    rec[1 + n++] = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
    uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
    uintptr_t lo = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
    if (lo < stackLo)
        lo = stackLo;
    while (n < kMaxDepth && fp >= lo && fp + 16 <= stackHi &&
           (fp & 7) == 0) {
        const uintptr_t next = ((const uintptr_t *)fp)[0];
        const uintptr_t ret = ((const uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        rec[1 + n++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
    rec[0] = n;
    used += 1 + n;
}

static void
writeAll(int fd, const void *p, size_t len)
{
    const char *c = p;
    while (len > 0) {
        const ssize_t w = write(fd, c, len);
        if (w <= 0)
            return;
        c += w;
        len -= (size_t)w;
    }
}

__attribute__((constructor)) static void
start(void)
{
    pthread_attr_t attr;
    void *addr = NULL;
    size_t size = 0;
    if (pthread_getattr_np(pthread_self(), &attr) != 0)
        return;
    pthread_attr_getstack(&attr, &addr, &size);
    pthread_attr_destroy(&attr);
    stackLo = (uintptr_t)addr;
    stackHi = stackLo + size;

    buf = mmap(NULL, kBufWords * sizeof(uint64_t), PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (buf == MAP_FAILED)
        return;

    struct sigaction sa;
    memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = onSample;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigemptyset(&sa.sa_mask);
    if (sigaction(SIGPROF, &sa, NULL) != 0)
        return;

    struct sigevent sev;
    memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = SIGPROF;
    sev.sigev_notify_thread_id = (pid_t)syscall(SYS_gettid);
    if (timer_create(CLOCK_MONOTONIC, &sev, &timer) != 0)
        return;
    struct itimerspec its;
    memset(&its, 0, sizeof(its));
    its.it_interval.tv_nsec = kPeriodNs;
    its.it_value.tv_nsec = kPeriodNs;
    if (timer_settime(timer, 0, &its, NULL) != 0)
        return;
    armed = 1;
}

__attribute__((destructor)) static void
finish(void)
{
    if (!armed)
        return;
    timer_delete(timer);
    armed = 0;

    char path[64];
    const int pid = (int)getpid();
    snprintf(path, sizeof(path), "hostprof.%d.samples", pid);
    int fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
        writeAll(fd, buf, used * sizeof(uint64_t));
        close(fd);
    }

    snprintf(path, sizeof(path), "hostprof.%d.maps", pid);
    fd = open(path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = open("/proc/self/maps", O_RDONLY);
    if (fd >= 0 && in >= 0) {
        char chunk[4096];
        ssize_t r;
        while ((r = read(in, chunk, sizeof(chunk))) > 0)
            writeAll(fd, chunk, (size_t)r);
    }
    if (in >= 0)
        close(in);
    if (fd >= 0)
        close(fd);
    if (dropped)
        fprintf(stderr, "host_profile: buffer full, %llu samples dropped\n",
                (unsigned long long)dropped);
}
