/**
 * @file
 * Functional backing store for the simulated physical address space.
 *
 * The timing models in this repository are *pure timing*: data values are
 * produced and consumed functionally, eagerly, by the workload kernels and
 * the DX100 runtime at micro-op generation time (see DESIGN.md §4b).
 * SimMemory is the byte-addressable store they operate on. It is sparse:
 * a flat frame table, indexed by address >> kFrameShift, holds one
 * pointer per 64 KiB frame, and a frame is allocated (zeroed) on its
 * first write. Reads never allocate: an unwritten frame reads as zeros.
 * Writes must stay below kAddrLimit, so the table costs at most 8 B per
 * 64 KiB of address span below the highest written frame.
 */

#ifndef DX_COMMON_SIM_MEMORY_HH
#define DX_COMMON_SIM_MEMORY_HH

#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace dx
{

class SimMemory
{
  public:
    static constexpr unsigned kFrameShift = 16;
    static constexpr Addr kFrameBytes = Addr{1} << kFrameShift;
    //! Writes at or above 1 TiB panic; the table then tops out at 128 MiB.
    static constexpr Addr kAddrLimit = Addr{1} << 40;

    /** Read a trivially-copyable value at @p addr. */
    template <typename T>
    T
    read(Addr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T out{};
        if (!withinFrame<T>(addr)) {
            readBytes(addr, &out, sizeof(T));
        } else if (const std::uint8_t *f = frame(addr)) {
            std::memcpy(&out, f + (addr & (kFrameBytes - 1)), sizeof(T));
        }
        return out;
    }

    /** Write a trivially-copyable value at @p addr. */
    template <typename T>
    void
    write(Addr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        std::uint8_t *f = withinFrame<T>(addr) ? frame(addr) : nullptr;
        if (f)
            std::memcpy(f + (addr & (kFrameBytes - 1)), &value, sizeof(T));
        else
            writeBytes(addr, &value, sizeof(T));
    }

    /** Copy @p len bytes out of the simulated memory. */
    void readBytes(Addr addr, void *dst, std::size_t len) const;

    /** Copy @p len bytes into the simulated memory. */
    void writeBytes(Addr addr, const void *src, std::size_t len);

    /** Zero-fill a range (frames are zeroed on allocation anyway). */
    void zero(Addr addr, std::size_t len);

    /** Number of frames currently materialized (for tests/telemetry). */
    std::size_t framesAllocated() const { return framesAllocated_; }

  private:
    using Frame = std::unique_ptr<std::uint8_t[]>;

    /** True when a T at @p addr lies inside one frame. */
    template <typename T>
    static bool
    withinFrame(Addr addr)
    {
        return (addr & (kFrameBytes - 1)) <= kFrameBytes - sizeof(T);
    }

    /** The frame holding @p addr, or null if it was never written. */
    std::uint8_t *
    frame(Addr addr) const
    {
        const Addr idx = addr >> kFrameShift;
        return idx < frames_.size() ? frames_[idx].get() : nullptr;
    }

    /** The frame holding @p addr, allocated on first use. */
    std::uint8_t *frameFor(Addr addr);

    std::vector<Frame> frames_; //!< indexed by addr >> kFrameShift
    std::size_t framesAllocated_ = 0;
};

/**
 * Bump allocator handing out ranges of the simulated address space.
 *
 * Allocations are aligned to 2 MiB "huge pages" by default, mirroring the
 * paper's assumption that DX100-visible arrays live on huge pages so a
 * small TLB covers them.
 */
class SimAllocator
{
  public:
    static constexpr Addr kHugePage = Addr{2} << 20;

    explicit SimAllocator(Addr base = kHugePage) : next_(base) {}

    /** Allocate @p bytes; returns the base address of the region. */
    Addr
    alloc(Addr bytes, Addr align = kHugePage)
    {
        dx_assert(align && (align & (align - 1)) == 0,
                  "alignment must be a power of two");
        next_ = (next_ + align - 1) & ~(align - 1);
        Addr base = next_;
        next_ += bytes;
        return base;
    }

    /** Allocate an array of @p n elements of type T. */
    template <typename T>
    Addr
    allocArray(std::size_t n)
    {
        return alloc(static_cast<Addr>(n) * sizeof(T));
    }

  private:
    Addr next_;
};

/**
 * A typed view of an array inside SimMemory; convenience for generators
 * and kernels. Holds no storage itself.
 */
template <typename T>
class ArrayRef
{
  public:
    ArrayRef() = default;

    ArrayRef(SimMemory *mem, Addr base, std::size_t size)
        : mem_(mem), base_(base), size_(size)
    {}

    /** Allocate a fresh array of @p n elements. */
    static ArrayRef
    make(SimMemory &mem, SimAllocator &alloc, std::size_t n)
    {
        return ArrayRef(&mem, alloc.allocArray<T>(n), n);
    }

    T at(std::size_t i) const { return mem_->read<T>(addrOf(i)); }
    void set(std::size_t i, T v) { mem_->write<T>(addrOf(i), v); }

    Addr addrOf(std::size_t i) const
    {
        return base_ + static_cast<Addr>(i) * sizeof(T);
    }

    Addr base() const { return base_; }
    std::size_t size() const { return size_; }
    Addr bytes() const { return static_cast<Addr>(size_) * sizeof(T); }

  private:
    SimMemory *mem_ = nullptr;
    Addr base_ = 0;
    std::size_t size_ = 0;
};

} // namespace dx

#endif // DX_COMMON_SIM_MEMORY_HH
