/**
 * @file
 * Cache-domain instantiations of the unified port layer (sim/port.hh).
 *
 * CachePort and CacheRespSink are thin aliases of RequestPort /
 * Completion — the protocol (admission, departure counters, typed
 * completions) is documented once on the templates.
 */

#ifndef DX_CACHE_CACHE_IF_HH
#define DX_CACHE_CACHE_IF_HH

#include <cstdint>

#include "common/types.hh"
#include "mem/request.hh"
#include "sim/port.hh"

namespace dx::cache
{

/** Receives line-granularity completions from a cache or port. */
using CacheRespSink = Completion<std::uint64_t>;

/** One request into a cache level (or a memory-side port). */
struct CacheReq
{
    Addr addr = 0;            //!< raw byte address
    bool write = false;
    bool fullLine = false;    //!< whole-line write: no fetch-on-miss
    mem::Origin origin = mem::Origin::kCpuDemand;
    std::uint16_t pc = 0;     //!< static instruction id (prefetch training)
    std::uint64_t value = 0;  //!< loaded value (indirect-prefetch training)
    std::uint64_t tag = 0;    //!< requester-defined cookie
    CacheRespSink *sink = nullptr;
};

/** Anything a cache can send misses to (a lower cache, DRAM, DX100). */
using CachePort = RequestPort<CacheReq>;

} // namespace dx::cache

#endif // DX_CACHE_CACHE_IF_HH
