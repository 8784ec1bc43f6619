/**
 * @file
 * DMA-capable I/O device on the shared bus.
 *
 * I/O devices address memory physically (the paper's motivation #4 for
 * a physically-addressed second level): a DMA transfer is just a
 * sequence of ordinary bus transactions, and the R-caches keep the
 * hierarchy coherent exactly as they do for other processors -- dirty
 * data is flushed out of V-caches/write buffers on DMA reads, and all
 * cached copies are invalidated on DMA writes. No reverse translation
 * hardware is needed anywhere near the V-cache.
 */

#ifndef VRC_COHERENCE_DMA_HH
#define VRC_COHERENCE_DMA_HH

#include <cstdint>

#include "coherence/bus.hh"

namespace vrc
{

/** A bus agent performing DMA transfers to/from physical memory. */
class DmaDevice : public Snooper
{
  public:
    /**
     * @param bus         the shared bus; the device attaches itself
     * @param block_bytes coherence granularity (the caches' L2 line)
     */
    DmaDevice(SharedBus &bus, std::uint32_t block_bytes)
        : _bus(bus), _blockBytes(block_bytes)
    {
        // The device holds no cached state, so it never needs to be
        // probed: attach filterable and never publish presence.
        _busId = bus.attach(this, SnoopAgentInfo{true, nullptr, nullptr});
    }

    /**
     * DMA read (device <- memory) of @p len bytes at @p base.
     * Dirty cache copies are flushed and supply the data.
     *
     * @return number of blocks supplied by a cache rather than memory.
     */
    std::uint32_t
    read(PhysAddr base, std::uint32_t len)
    {
        std::uint32_t supplied = 0;
        forEachBlock(base, len, [&](PhysAddr block) {
            BusResult r = _bus.broadcast(
                BusTransaction{BusOp::ReadMiss, block, _busId});
            ++_blocksRead;
            if (r.suppliedByCache) {
                ++supplied;
                ++_suppliedByCache;
            }
        });
        return supplied;
    }

    /**
     * DMA write (device -> memory) of @p len bytes at @p base.
     * Every cached copy is invalidated (read-modified-write keeps
     * partially overwritten blocks coherent by flushing dirty data
     * first).
     */
    void
    write(PhysAddr base, std::uint32_t len)
    {
        forEachBlock(base, len, [&](PhysAddr block) {
            _bus.broadcast(
                BusTransaction{BusOp::ReadModWrite, block, _busId});
            ++_blocksWritten;
        });
    }

    /** Devices hold no cached state: foreign traffic is ignored. */
    SnoopResult
    snoop(const BusTransaction &) override
    {
        return SnoopResult{};
    }

    CpuId busId() const { return _busId; }
    std::uint64_t blocksRead() const { return _blocksRead; }
    std::uint64_t blocksWritten() const { return _blocksWritten; }
    /** Blocks a DMA read took from a cache rather than memory. */
    std::uint64_t suppliedByCache() const { return _suppliedByCache; }

  private:
    template <typename Fn>
    void
    forEachBlock(PhysAddr base, std::uint32_t len, Fn fn)
    {
        std::uint32_t first = base.value() & ~(_blockBytes - 1);
        std::uint32_t last = (base.value() + (len ? len - 1 : 0)) &
            ~(_blockBytes - 1);
        for (std::uint32_t a = first; a <= last; a += _blockBytes)
            fn(PhysAddr(a));
    }

    SharedBus &_bus;
    std::uint32_t _blockBytes;
    CpuId _busId;
    std::uint64_t _blocksRead = 0;
    std::uint64_t _blocksWritten = 0;
    std::uint64_t _suppliedByCache = 0;
};

} // namespace vrc

#endif // VRC_COHERENCE_DMA_HH
