/**
 * @file
 * Row Table + Word Table of the Indirect Access unit (paper §3.2).
 *
 * The Row Table is sliced per DRAM bank. Each slice models a 64-entry
 * BCAM of open "rows under construction" and, per row, up to 8 SRAM
 * column entries. The Word Table chains all tile iterations that target
 * the same DRAM column into a linked list (coalescing), anchored at the
 * column's tail pointer.
 *
 * The fill stage inserts decomposed addresses; the request stage drains
 * unsent columns row-by-row in slice-interleaved order; responses walk
 * the word chain and eventually free the row entry.
 */

#ifndef DX_DX100_ROW_TABLE_HH
#define DX_DX100_ROW_TABLE_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace dx::dx100
{

class IndirectTables
{
  public:
    /** Handle naming one column entry of the current execution. */
    using ColHandle = std::uint32_t;
    static constexpr ColHandle kNoCol = ~ColHandle{0};
    static constexpr std::int32_t kNoIter = -1;

    struct Request
    {
        ColHandle handle = kNoCol;
        unsigned slice = 0;
        std::uint32_t row = 0;
        std::uint32_t col = 0;
        bool cacheHit = false;
    };

    struct Config
    {
        unsigned slices = 32;
        unsigned rowsPerSlice = 64;
        unsigned colsPerRow = 8;
    };

    explicit IndirectTables(const Config &cfg);

    /** Start a new execution over @p elems tile iterations. */
    void reset(std::uint32_t elems);

    enum class InsertResult
    {
        kOk,        //!< inserted
        kNewColumn, //!< inserted and allocated a fresh column (snoop it)
        kSliceFull, //!< no row entry available: drain needed
    };

    /**
     * Fill stage: record that iteration @p iter targets (@p slice,
     * @p row, @p col) at word offset @p wordOff.
     */
    InsertResult insert(unsigned slice, std::uint32_t row,
                        std::uint32_t col, std::uint16_t wordOff,
                        std::uint32_t iter);

    /** Set the cache-hit (H) bit on a freshly allocated column. */
    void setCacheHit(ColHandle h, bool hit);

    /**
     * Request stage: pick the next unsent column from @p slice (oldest
     * row first, its columns in insertion order). Marks it sent.
     */
    std::optional<Request> nextRequest(unsigned slice);

    /** Revert a nextRequest() (downstream refused the request). */
    void unsend(const Request &req);

    /**
     * Response stage: walk the word chain of a completed column,
     * invoking fn(iter, wordOff) per coalesced word, then release the
     * column (and its row once the row is fully drained and complete).
     * Returns the number of words in the chain.
     */
    template <typename Fn>
    unsigned
    completeColumn(ColHandle h, Fn &&fn)
    {
        Col &c = cols_[h];
        unsigned n = 0;
        for (std::int32_t i = c.tail; i != kNoIter;
             i = words_[static_cast<std::uint32_t>(i)].prev) {
            fn(static_cast<std::uint32_t>(i),
               words_[static_cast<std::uint32_t>(i)].wordOff);
            ++n;
        }
        releaseColumn(h);
        return n;
    }

    /** Number of words chained into a column so far. */
    unsigned wordsInColumn(ColHandle h) const;

    /** All rows drained and completed? */
    bool drained() const { return liveRows_ == 0; }

    /**
     * Panic unless nothing outlived the execution: every slice FIFO
     * empty, every row on the free list, every column done. O(rows +
     * columns), so run once per instruction, never per cycle.
     */
    void auditDrained() const;

    /** Columns allocated in this execution (for coalescing stats). */
    std::uint64_t columnsAllocated() const { return cols_.size(); }

    /** Occupied row entries in a slice (test/telemetry hook). */
    unsigned rowsLive(unsigned slice) const;

  private:
    struct Col
    {
        std::uint32_t col = 0;
        std::int32_t tail = kNoIter;
        bool sent = false;
        bool done = false;
        bool cacheHit = false;
        std::uint32_t rowIdx = 0; //!< owning row (index into rows_)
    };

    /** A BCAM entry; live exactly while it sits in its slice FIFO. */
    struct Row
    {
        unsigned slice = 0;
        std::uint32_t row = 0;
        bool sentAll = false; //!< BCAM S bit: no longer fill-matchable
        std::vector<ColHandle> cols;
        unsigned colsDone = 0;
    };

    struct WordEntry
    {
        std::int32_t prev = kNoIter;
        std::uint16_t wordOff = 0;
    };

    struct Slice
    {
        std::vector<std::uint32_t> rows; //!< live row indices, FIFO
    };

    void releaseColumn(ColHandle h);

    Config cfg_;
    std::vector<Slice> slices_;
    std::vector<Row> rows_;   //!< arena, reused via free list
    std::vector<std::uint32_t> freeRows_;
    std::vector<Col> cols_;   //!< per-execution arena
    std::vector<WordEntry> words_;
    unsigned liveRows_ = 0;
};

} // namespace dx::dx100

#endif // DX_DX100_ROW_TABLE_HH
