/**
 * @file
 * Tests for DMA/I-O coherence through the physical second level: the
 * paper's claim that a physically-addressed R-cache makes I/O devices
 * ordinary bus citizens, with no reverse translation near the V-cache.
 */

#include <gtest/gtest.h>

#include <memory>

#include "coherence/dma.hh"
#include "core/vr_hierarchy.hh"
#include "vm/addr_space.hh"

namespace vrc
{
namespace
{

constexpr std::uint32_t kPage = 4096;

class DmaTest : public ::testing::Test
{
  protected:
    DmaTest() : spaces(kPage)
    {
        h = std::make_unique<VrHierarchy>(params, spaces, bus, true);
        dma = std::make_unique<DmaDevice>(bus, params.l2.blockBytes);
        spaces.pageTable(0).map(0x10, 5);
    }

    AccessOutcome
    read(std::uint32_t va)
    {
        return h->access({RefType::Read, VirtAddr(va), 0});
    }

    AccessOutcome
    write(std::uint32_t va)
    {
        return h->access({RefType::Write, VirtAddr(va), 0});
    }

    HierarchyParams params{{8 * 1024, 16, 1, ReplPolicy::LRU},
                           {64 * 1024, 16, 1, ReplPolicy::LRU},
                           kPage};
    AddressSpaceManager spaces;
    SharedBus bus;
    std::unique_ptr<VrHierarchy> h;
    std::unique_ptr<DmaDevice> dma;
};

TEST_F(DmaTest, DeviceGetsDistinctBusId)
{
    EXPECT_NE(dma->busId(), h->cpuId());
}

TEST_F(DmaTest, DmaReadFlushesDirtyVCacheData)
{
    write(0x10000); // dirty in the V-cache
    std::uint32_t supplied = dma->read(PhysAddr(5 * kPage), 16);
    EXPECT_EQ(supplied, 1u) << "the dirty cache must supply the block";
    EXPECT_EQ(h->stats().value("l1_flushes"), 1u);
    // The CPU copy survives, clean and shared.
    auto hit = h->vcache().lookup(VirtAddr(0x10000));
    ASSERT_TRUE(hit.has_value());
    EXPECT_FALSE(h->vcache().line(*hit).meta.dirty);
    h->checkInvariants();
}

TEST_F(DmaTest, DmaReadOfCleanDataIsShieldedFromL1)
{
    read(0x10000); // clean copy
    dma->read(PhysAddr(5 * kPage), 16);
    EXPECT_EQ(h->stats().value("l1_coherence_msgs"), 0u)
        << "clean data: the R-cache answers without touching level 1";
    EXPECT_EQ(read(0x10000), AccessOutcome::L1Hit);
    h->checkInvariants();
}

TEST_F(DmaTest, DmaWriteInvalidatesCachedCopies)
{
    read(0x10000);
    dma->write(PhysAddr(5 * kPage), 16);
    EXPECT_FALSE(h->vcache().lookup(VirtAddr(0x10000)).has_value());
    EXPECT_FALSE(h->rcache().probe(PhysAddr(5 * kPage)).has_value());
    EXPECT_EQ(read(0x10000), AccessOutcome::Miss)
        << "the CPU must refetch the DMA-written data from memory";
    h->checkInvariants();
}

TEST_F(DmaTest, DmaWriteCollectsDirtyDataFirst)
{
    write(0x10000); // dirty: a partial DMA write must merge with it
    dma->write(PhysAddr(5 * kPage), 4);
    EXPECT_EQ(h->stats().value("l1_flushes"), 1u)
        << "read-modified-write flushes the dirty block before killing it";
    EXPECT_FALSE(h->vcache().lookup(VirtAddr(0x10000)).has_value());
    h->checkInvariants();
}

TEST_F(DmaTest, DmaRangeCoversAllBlocks)
{
    // Bytes [8, 50) straddle four 16-byte blocks.
    dma->read(PhysAddr(5 * kPage + 8), 42);
    EXPECT_EQ(dma->blocksRead(), 4u);
    dma->write(PhysAddr(5 * kPage), 16); // exactly one block
    EXPECT_EQ(dma->blocksWritten(), 1u);
}

TEST_F(DmaTest, DmaToUncachedMemoryDisturbsNothing)
{
    read(0x10000);
    std::uint64_t msgs = h->stats().value("l1_coherence_msgs");
    dma->read(PhysAddr(0x00700000), 256);  // untouched frames
    dma->write(PhysAddr(0x00700000), 256);
    EXPECT_EQ(h->stats().value("l1_coherence_msgs"), msgs);
    EXPECT_EQ(read(0x10000), AccessOutcome::L1Hit);
    h->checkInvariants();
}

TEST_F(DmaTest, DmaReadFlushesWriteBuffer)
{
    spaces.pageTable(0).map(0x12, 6);
    write(0x10000);
    read(0x12000); // conflicting block: dirty victim into the buffer
    ASSERT_EQ(h->writeBuffer().size(), 1u);
    std::uint32_t supplied = dma->read(PhysAddr(5 * kPage), 16);
    EXPECT_EQ(supplied, 1u);
    EXPECT_EQ(h->stats().value("buffer_flushes"), 1u);
    EXPECT_TRUE(h->writeBuffer().empty());
    h->checkInvariants();
}

} // namespace
} // namespace vrc
