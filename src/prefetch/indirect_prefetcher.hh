/**
 * @file
 * DMP-style indirect (differential-matching) prefetcher model.
 *
 * Reproduces the behaviour class of the paper's comparison point
 * (Fu et al., HPCA'24): a stream detector finds strided index loads
 * B[i]; a pattern matcher correlates recently loaded index *values*
 * with later demand-miss *addresses* to learn (base, scale) of the
 * dependent access A[B[i]]; once confident, every index load triggers a
 * prefetch of A[B[i + d]] using the index value d elements ahead.
 *
 * The model reads the future index value from the functional memory —
 * an idealization standing in for DMP's prefetched index lines. This is
 * generous to DMP (perfect value knowledge once the pattern is
 * learned), so DX100's advantage over it is measured conservatively.
 * Like the real design, it prefetches conditional accesses
 * unconditionally (cache pollution) and leaves the core's instruction
 * stream untouched.
 *
 * Every per-access operation is O(1) or a bit-scan (DESIGN.md §4b):
 * patterns are found through a hash index on (indexPc, scale, base),
 * the replacement victim is the lowest set bit of the first non-empty
 * per-confidence slot mask, and the trigger walks only the confident
 * slots. Each choice is the one a linear scan of the table in slot
 * order would make.
 */

#ifndef DX_PREFETCH_INDIRECT_PREFETCHER_HH
#define DX_PREFETCH_INDIRECT_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "cache/prefetcher.hh"
#include "common/sim_memory.hh"
#include "sim/component.hh"

namespace dx::prefetch
{

class IndirectPrefetcher final : public Component,
                                 public cache::Prefetcher
{
  public:
    struct Config
    {
        unsigned streamTableSize = 16;
        unsigned patternTableSize = 16; //!< 1..kMaxPatterns
        unsigned recentValues = 8;   //!< index values kept for matching
        unsigned distance = 16;      //!< index elements ahead
        int confidenceThreshold = 2;
        unsigned queueMax = 64;
        unsigned streamDegree = 2;   //!< also stream-prefetch the index
    };

    /** Pattern slots are tracked in one 64-bit mask per confidence. */
    static constexpr unsigned kMaxPatterns = 64;

    struct Stats
    {
        std::uint64_t patternsLearned = 0;
        std::uint64_t indirectPrefetches = 0;
        std::uint64_t streamPrefetches = 0;
    };

    IndirectPrefetcher(const Config &cfg, const SimMemory *mem);

    void observe(const cache::CacheReq &req, bool miss) override;
    bool nextPrefetch(Addr &line) override;
    bool pending() const override { return !queue_.empty(); }

    // Component introspection (passive component: no tick contract).
    void registerStats(StatRegistry &reg) const override;

    const Stats &stats() const { return stats_; }

  private:
    struct Stream
    {
        bool valid = false;
        std::uint16_t pc = 0;
        Addr lastAddr = 0;
        std::int64_t stride = 0;
        int confidence = 0;
    };

    struct Recent
    {
        std::uint16_t pc = 0;
        std::uint64_t value = 0;
        Addr addr = 0;        //!< address the value was loaded from
        std::int64_t stride = 0;
        unsigned bytes = 4;   //!< index element size
    };

    struct Pattern
    {
        std::uint16_t indexPc = 0;
        std::int64_t base = 0;
        unsigned scale = 4;
        int confidence = 0;
    };

    /** Fixed-capacity FIFO; push() on a full ring is the caller's bug. */
    template <typename T>
    struct Ring
    {
        std::vector<T> buf;
        unsigned front = 0;
        unsigned len = 0;

        explicit Ring(unsigned capacity) : buf(capacity) {}
        bool empty() const { return len == 0; }
        bool full() const { return len == buf.size(); }
        const T &
        operator[](unsigned i) const
        {
            const unsigned at = front + i;
            return buf[at < buf.size() ? at : at - buf.size()];
        }
        void
        push(const T &v)
        {
            const unsigned at = front + len;
            buf[at < buf.size() ? at : at - buf.size()] = v;
            ++len;
        }
        T
        pop()
        {
            T v = buf[front];
            if (++front == buf.size())
                front = 0;
            --len;
            return v;
        }
    };

    static const Config &checked(const Config &cfg);
    Stream &streamFor(std::uint16_t pc);
    void matchMiss(Addr missAddr);
    void triggerIndirect(const Recent &r);
    void push(Addr line);

    unsigned indexHome(std::uint16_t pc, unsigned scale,
                       std::int64_t base) const;
    int findPattern(std::uint16_t pc, unsigned scale, std::int64_t base,
                    unsigned &home) const;
    void setConfidence(unsigned slot, int confidence);

    Config cfg_;
    const SimMemory *mem_;
    std::vector<Stream> streams_;
    std::vector<Pattern> patterns_;
    //! Slots [0, unused_) were never allocated; the next one taken is
    //! unused_ - 1 (a slot, once allocated, stays valid).
    unsigned unused_;
    //! atLevel_[c]: bit s set iff allocated slot s has confidence c.
    std::vector<std::uint64_t> atLevel_;
    //! Hash index on (indexPc, scale, base): buckets_[h] has bit s set
    //! iff allocated slot s's key hashes to h. At least four buckets
    //! per slot, so a bucket rarely holds more than one.
    std::vector<std::uint64_t> buckets_;
    unsigned indexShift_; //!< 64 - log2(buckets_.size())
    Ring<Recent> recent_;
    Ring<Addr> queue_;
    Stats stats_;
};

} // namespace dx::prefetch

#endif // DX_PREFETCH_INDIRECT_PREFETCHER_HH
