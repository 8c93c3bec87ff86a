/**
 * @file
 * Sideband payload accompanying each DX100 instruction.
 *
 * The 192-bit doorbell encoding is what travels architecturally; the
 * payload carries the *data snapshots* the timing model needs to replay
 * the exact address stream (source index values, condition bits,
 * resolved scalar registers). In hardware these values live in the
 * scratchpad; in this pure-timing simulator they are captured from the
 * runtime's functional mirror at emission time (DESIGN.md §4.2).
 */

#ifndef DX_DX100_PAYLOAD_HH
#define DX_DX100_PAYLOAD_HH

#include <cstdint>
#include <vector>

#include "dx100/isa.hh"

namespace dx::dx100
{

struct ExecPayload
{
    std::uint64_t id = 0;  //!< instance-wide instruction id (wait token)
    Instruction instr;

    /** TS1 snapshot: the indices of an ILD/IST/IRMW; empty otherwise. */
    std::vector<std::uint64_t> src1;
    /** Condition tile snapshot (empty => unconditioned). */
    std::vector<std::uint8_t> cond;

    /** Iteration count (stream count, ts1 size, or ALU input size). */
    std::uint32_t count = 0;
    /** Elements produced into destination tiles (ALU/RNG/ILD). */
    std::uint32_t outCount = 0;
};

} // namespace dx::dx100

#endif // DX_DX100_PAYLOAD_HH
