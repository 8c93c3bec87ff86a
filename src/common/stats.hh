/**
 * @file
 * Lightweight named statistics.
 *
 * Components own Counter members and register them with the
 * StatRegistry (sim/stat_registry.hh), which names and dumps them.
 * Updating a stat is a single add.
 */

#ifndef DX_COMMON_STATS_HH
#define DX_COMMON_STATS_HH

#include <cstdint>

namespace dx
{

/** A monotonically increasing event counter. */
class Counter
{
  public:
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    void operator+=(std::uint64_t n) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

} // namespace dx

#endif // DX_COMMON_STATS_HH
