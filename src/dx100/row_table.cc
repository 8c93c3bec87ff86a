#include "dx100/row_table.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dx::dx100
{

IndirectTables::IndirectTables(const Config &cfg) : cfg_(cfg)
{
    slices_.assign(cfg_.slices, Slice{});
}

void
IndirectTables::reset(std::uint32_t elems)
{
    for (auto &s : slices_)
        s.rows.clear();
    rows_.clear();
    freeRows_.clear();
    cols_.clear();
    words_.assign(elems, WordEntry{});
    liveRows_ = 0;
}

IndirectTables::InsertResult
IndirectTables::insert(unsigned slice, std::uint32_t row,
                       std::uint32_t col, std::uint16_t wordOff,
                       std::uint32_t iter)
{
    dx_assert(slice < slices_.size(), "slice out of range");
    Slice &s = slices_[slice];

    // BCAM lookup: a live, not-fully-sent row entry with this row
    // address whose SRAM still has room (or already holds the column).
    Row *target = nullptr;
    for (std::uint32_t rowIdx : s.rows) {
        Row &r = rows_[rowIdx];
        if (r.sentAll || r.row != row)
            continue;
        // SRAM lookup: unsent entry with this column address?
        for (ColHandle h : r.cols) {
            Col &c = cols_[h];
            if (!c.sent && !c.done && c.col == col) {
                // Chain this word onto the column's linked list.
                words_[iter].prev = c.tail;
                words_[iter].wordOff = wordOff;
                c.tail = static_cast<std::int32_t>(iter);
                return InsertResult::kOk;
            }
        }
        if (r.cols.size() < cfg_.colsPerRow) {
            target = &r;
            break;
        }
    }

    if (!target) {
        if (s.rows.size() >= cfg_.rowsPerSlice) {
            // Every row in the FIFO has a column left to finish, or a
            // full slice could never drain.
            const Row &oldest = rows_[s.rows.front()];
            dx_assert(oldest.colsDone < oldest.cols.size(), "Row Table ",
                      "slice ", slice, " is full of finished rows");
            return InsertResult::kSliceFull;
        }
        std::uint32_t rowIdx;
        if (!freeRows_.empty()) {
            rowIdx = freeRows_.back();
            freeRows_.pop_back();
        } else {
            rowIdx = static_cast<std::uint32_t>(rows_.size());
            rows_.emplace_back();
        }
        Row &r = rows_[rowIdx];
        r = Row{};
        r.slice = slice;
        r.row = row;
        s.rows.push_back(rowIdx);
        ++liveRows_;
        target = &r;
    }

    // Allocate a fresh column entry.
    const ColHandle h = static_cast<ColHandle>(cols_.size());
    Col c;
    c.col = col;
    c.rowIdx = static_cast<std::uint32_t>(target - rows_.data());
    words_[iter].prev = kNoIter;
    words_[iter].wordOff = wordOff;
    c.tail = static_cast<std::int32_t>(iter);
    cols_.push_back(c);
    target->cols.push_back(h);
    return InsertResult::kNewColumn;
}

void
IndirectTables::setCacheHit(ColHandle h, bool hit)
{
    cols_[h].cacheHit = hit;
}

std::optional<IndirectTables::Request>
IndirectTables::nextRequest(unsigned slice)
{
    Slice &s = slices_[slice];
    // Oldest live row first (FIFO order of s.rows).
    for (std::uint32_t rowIdx : s.rows) {
        Row &r = rows_[rowIdx];
        for (ColHandle h : r.cols) {
            Col &c = cols_[h];
            if (c.sent || c.done)
                continue;
            c.sent = true;
            // If that was the last unsent column, the row is no longer
            // fill-matchable (BCAM S bit).
            bool allSent = true;
            for (ColHandle h2 : r.cols) {
                if (!cols_[h2].sent && !cols_[h2].done) {
                    allSent = false;
                    break;
                }
            }
            if (allSent && r.cols.size() >= cfg_.colsPerRow)
                r.sentAll = true;
            Request req;
            req.handle = h;
            req.slice = slice;
            req.row = r.row;
            req.col = c.col;
            req.cacheHit = c.cacheHit;
            return req;
        }
    }
    return std::nullopt;
}

void
IndirectTables::unsend(const Request &req)
{
    Col &c = cols_[req.handle];
    dx_assert(c.sent && !c.done, "unsend of an idle column");
    c.sent = false;
    rows_[c.rowIdx].sentAll = false;
}

unsigned
IndirectTables::wordsInColumn(ColHandle h) const
{
    unsigned n = 0;
    for (std::int32_t i = cols_[h].tail; i != kNoIter;
         i = words_[static_cast<std::uint32_t>(i)].prev) {
        ++n;
    }
    return n;
}

unsigned
IndirectTables::rowsLive(unsigned slice) const
{
    return static_cast<unsigned>(slices_[slice].rows.size());
}

void
IndirectTables::auditDrained() const
{
    for (unsigned s = 0; s < slices_.size(); ++s) {
        dx_assert(slices_[s].rows.empty(), "Row Table slice ", s,
                  " still holds ", slices_[s].rows.size(),
                  " rows after its instruction");
    }
    dx_assert(freeRows_.size() == rows_.size(), "Row Table: ",
              rows_.size() - freeRows_.size(),
              " rows missing from the free list after their instruction");
    for (ColHandle h = 0; h < cols_.size(); ++h)
        dx_assert(cols_[h].done, "Row Table column ", h, " never completed");
}

void
IndirectTables::releaseColumn(ColHandle h)
{
    Col &c = cols_[h];
    dx_assert(c.sent && !c.done, "completing an idle column");
    c.done = true;
    Row &r = rows_[c.rowIdx];
    // Each column completes once, so a full count means every
    // allocated column is done: release the BCAM entry.
    if (++r.colsDone < r.cols.size())
        return;
    --liveRows_;
    Slice &s = slices_[r.slice];
    s.rows.erase(std::find(s.rows.begin(), s.rows.end(), c.rowIdx));
    freeRows_.push_back(c.rowIdx);
}

} // namespace dx::dx100
