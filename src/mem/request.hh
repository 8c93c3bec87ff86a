/**
 * @file
 * Memory request plumbing shared by caches, DX100 and DRAM.
 */

#ifndef DX_MEM_REQUEST_HH
#define DX_MEM_REQUEST_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/address_map.hh"
#include "sim/port.hh"

namespace dx::mem
{

/** Who generated a memory request (for cache stats attribution). */
enum class Origin : std::uint8_t
{
    kCpuDemand,
    kPrefetch,
    kDx100,
    kWriteback,
};

/**
 * One line-granularity DRAM request: what the controller reads. The
 * response is the requester's own cookie (sim/port.hh).
 */
struct MemRequest
{
    bool write = false;
    std::uint64_t tag = 0;                      //!< sink-defined cookie
    Completion<std::uint64_t> *sink = nullptr;  //!< null: fire-and-forget
    DramCoord coord;
};

} // namespace dx::mem

#endif // DX_MEM_REQUEST_HH
