/**
 * @file
 * Unit tests for machine-wide address-space management.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/mp_sim.hh"
#include "trace/generator.hh"
#include "vm/addr_space.hh"

namespace vrc
{
namespace
{

constexpr std::uint32_t kPage = 4096;

TEST(AddrSpaceTest, DemandAllocationIsStable)
{
    AddressSpaceManager m(kPage);
    PhysAddr a = m.translate(0, VirtAddr(0x1234));
    PhysAddr b = m.translate(0, VirtAddr(0x1678));
    EXPECT_EQ(a.ppn(kPage), b.ppn(kPage)) << "same page, same frame";
    EXPECT_EQ(a.value() % kPage, 0x234u) << "offset preserved";
    EXPECT_EQ(b.value() % kPage, 0x678u);
}

TEST(AddrSpaceTest, DistinctPagesDistinctFrames)
{
    AddressSpaceManager m(kPage);
    PhysAddr a = m.translate(0, VirtAddr(0x1000));
    PhysAddr b = m.translate(0, VirtAddr(0x2000));
    EXPECT_NE(a.ppn(kPage), b.ppn(kPage));
}

TEST(AddrSpaceTest, ProcessesAreIsolated)
{
    AddressSpaceManager m(kPage);
    PhysAddr a = m.translate(0, VirtAddr(0x1000));
    PhysAddr b = m.translate(1, VirtAddr(0x1000));
    EXPECT_NE(a.ppn(kPage), b.ppn(kPage))
        << "same vaddr in different processes must get different frames";
}

TEST(AddrSpaceTest, DeterministicAcrossInstances)
{
    AddressSpaceManager m1(kPage), m2(kPage);
    for (std::uint32_t v = 0; v < 64; ++v) {
        EXPECT_EQ(m1.translate(0, VirtAddr(v * kPage)).value(),
                  m2.translate(0, VirtAddr(v * kPage)).value());
    }
}

TEST(AddrSpaceTest, TryTranslateDoesNotAllocate)
{
    AddressSpaceManager m(kPage);
    EXPECT_FALSE(m.tryTranslate(0, VirtAddr(0x5000)).has_value());
    EXPECT_EQ(m.framesAllocated(), 0u) << "no frame handed out";
    m.translate(0, VirtAddr(0x5000));
    auto pa = m.tryTranslate(0, VirtAddr(0x5123));
    ASSERT_TRUE(pa.has_value());
    EXPECT_EQ(pa->value() % kPage, 0x123u);
}

TEST(AddrSpaceTest, SharedSegmentSameFrames)
{
    AddressSpaceManager m(kPage);
    SegmentId seg = m.createSegment(4);
    m.attachSegment(0, seg, 0x100);
    m.attachSegment(1, seg, 0x200);
    for (std::uint32_t i = 0; i < 4; ++i) {
        PhysAddr a = m.translate(0, VirtAddr((0x100 + i) * kPage + 8));
        PhysAddr b = m.translate(1, VirtAddr((0x200 + i) * kPage + 8));
        EXPECT_EQ(a.value(), b.value())
            << "shared segment page " << i << " must alias";
    }
}

TEST(AddrSpaceTest, SynonymWithinOneProcess)
{
    AddressSpaceManager m(kPage);
    SegmentId seg = m.createSegment(1);
    m.attachSegment(0, seg, 0x10);
    m.attachSegment(0, seg, 0x80);
    PhysAddr a = m.translate(0, VirtAddr(0x10 * kPage + 4));
    PhysAddr b = m.translate(0, VirtAddr(0x80 * kPage + 4));
    EXPECT_EQ(a.value(), b.value());
}

TEST(AddrSpaceTest, SegmentFramesAccessor)
{
    AddressSpaceManager m(kPage);
    SegmentId seg = m.createSegment(3);
    EXPECT_EQ(m.segmentFrames(seg).size(), 3u);
}

TEST(AddrSpaceTest, FrameZeroNeverAllocated)
{
    AddressSpaceManager m(kPage, 8); // tiny memory to force wrap
    for (std::uint32_t v = 0; v < 50; ++v) {
        PhysAddr pa = m.translate(0, VirtAddr(v * kPage));
        EXPECT_NE(pa.ppn(kPage), 0u);
        EXPECT_LT(pa.ppn(kPage), 8u);
    }
}

TEST(AddrSpaceTest, PageColoringMatchesVirtualColor)
{
    AddressSpaceManager m(kPage);
    for (Vpn v = 0; v < 64; ++v) {
        PhysAddr pa = m.translate(0, VirtAddr(v * kPage));
        EXPECT_EQ(pa.ppn(kPage) % AddressSpaceManager::numColors,
                  v % AddressSpaceManager::numColors)
            << "frame color must match the virtual page color";
    }
}

TEST(AddrSpaceTest, SegmentFramesColoredFromBase)
{
    AddressSpaceManager m(kPage);
    SegmentId seg = m.createSegment(16, /*color_base_vpn=*/0x40003);
    const auto &frames = m.segmentFrames(seg);
    for (std::size_t i = 0; i < frames.size(); ++i) {
        EXPECT_EQ(frames[i] % AddressSpaceManager::numColors,
                  (0x40003 + i) % AddressSpaceManager::numColors);
    }
}

TEST(AddrSpaceTest, ProcessCount)
{
    AddressSpaceManager m(kPage);
    m.translate(0, VirtAddr(0));
    m.translate(5, VirtAddr(0));
    EXPECT_EQ(m.processCount(), 2u);
}

// --- shared segments as ranges ---------------------------------------

/**
 * Every (pid, vpn) of every canonical and alias attachment of the
 * three paper profiles at 16 CPUs translates to the frame a per-page
 * reference says: the layout setupAddressSpaces() builds, replayed
 * into one PageTable per process in the same order, so later mappings
 * overwrite earlier ones page by page.
 */
TEST(AddrSpaceTest, RangesMatchPerPageReference)
{
    for (WorkloadProfile p : {thorProfile(), popsProfile(), abaqusProfile()}) {
        SCOPED_TRACE(p.name);
        p.numCpus = 16;
        AddressSpaceManager m(p.pageSize);
        setupAddressSpaces(p, m);
        const std::uint32_t page = p.pageSize;
        const std::vector<Ppn> &text = m.segmentFrames(0);
        const std::vector<Ppn> &shared = m.segmentFrames(1);

        std::vector<PageTable> ref(processCount(p));
        std::vector<std::pair<ProcessId, Vpn>> pages;
        auto attach = [&](ProcessId pid, const std::vector<Ppn> &frames,
                          std::uint32_t base) {
            for (std::size_t i = 0; i < frames.size(); ++i) {
                Vpn vpn = base / page + static_cast<Vpn>(i);
                ref[pid].map(vpn, frames[i]);
                pages.emplace_back(pid, vpn);
            }
        };
        for (ProcessId pid = 0; pid < ref.size(); ++pid) {
            attach(pid, text, VirtualLayout::textBase);
            attach(pid, shared, VirtualLayout::sharedBase);
            attach(pid, shared,
                   VirtualLayout::aliasBase(pid, p.sharedPages, page));
        }

        const std::uint64_t frames = m.framesAllocated();
        for (const auto &[pid, vpn] : pages) {
            const Ppn want = *ref[pid].lookup(vpn);
            const VirtAddr va = makeVirtAddr(vpn, 0x24, page);
            auto pa = m.tryTranslate(pid, va);
            ASSERT_TRUE(pa.has_value()) << pid << ":" << vpn;
            EXPECT_EQ(pa->ppn(page), want) << pid << ":" << vpn;
            EXPECT_EQ(pa->value() % page, 0x24u);
            EXPECT_EQ(m.translate(pid, va).value(), pa->value());
        }
        EXPECT_EQ(m.framesAllocated(), frames)
            << "a shared page never demand-allocates";
    }
}

TEST(AddrSpaceTest, RemapOverridesSharedPageForOnePid)
{
    WorkloadProfile p = scaled(popsProfile(), 0.002);
    p.numCpus = 2;
    MpSimulator sim(makeMachineConfig(HierarchyKind::VirtualReal, 8 * 1024,
                                      64 * 1024, p.pageSize),
                    p);
    AddressSpaceManager &m = sim.spaces();
    const Vpn vpn = VirtualLayout::sharedBase / p.pageSize;
    const VirtAddr va = makeVirtAddr(vpn, 0, p.pageSize);
    const Ppn shared = m.segmentFrames(1)[0];
    ASSERT_EQ(m.translate(0, va).ppn(p.pageSize), shared);

    sim.remapPage(0, vpn, 0x777);
    EXPECT_EQ(m.translate(0, va).ppn(p.pageSize), 0x777u);
    EXPECT_EQ(m.tryTranslate(0, va)->ppn(p.pageSize), 0x777u);
    EXPECT_EQ(m.translate(1, va).ppn(p.pageSize), shared)
        << "the other process still maps the segment";
}

TEST(AddrSpaceTest, LaterOverlappingAttachmentWins)
{
    AddressSpaceManager m(kPage);
    SegmentId a = m.createSegment(4);
    SegmentId b = m.createSegment(4);
    m.attachSegment(0, a, 0x100);
    m.attachSegment(0, b, 0x102);
    for (Vpn v = 0x100; v < 0x106; ++v) {
        Ppn want = v < 0x102 ? m.segmentFrames(a)[v - 0x100]
                             : m.segmentFrames(b)[v - 0x102];
        EXPECT_EQ(m.translate(0, VirtAddr(v * kPage)).ppn(kPage), want)
            << std::hex << v;
    }
}

TEST(AddrSpaceTest, AttachmentAfterPrivateFirstTouchWins)
{
    AddressSpaceManager m(kPage);
    SegmentId seg = m.createSegment(2);
    const Ppn private_frame =
        m.translate(0, VirtAddr(0x101 * kPage)).ppn(kPage);
    m.pageTable(0).map(0x100, 0x999);
    m.attachSegment(0, seg, 0x100);
    EXPECT_EQ(m.translate(0, VirtAddr(0x100 * kPage)).ppn(kPage),
              m.segmentFrames(seg)[0]);
    EXPECT_EQ(m.translate(0, VirtAddr(0x101 * kPage)).ppn(kPage),
              m.segmentFrames(seg)[1]);
    EXPECT_NE(m.segmentFrames(seg)[1], private_frame);
    EXPECT_FALSE(m.pageTable(0).isMapped(0x100));
    EXPECT_FALSE(m.pageTable(0).isMapped(0x101));
}

/** Frames pinned from the per-page layout, which mapped every page. */
TEST(AddrSpaceTest, PrivateFramesFollowTheSegments)
{
    WorkloadProfile p = popsProfile();
    p.numCpus = 16;
    AddressSpaceManager m(p.pageSize);
    setupAddressSpaces(p, m);
    EXPECT_EQ(m.framesAllocated(), 48u);
    const std::vector<Ppn> want = {57, 58, 66, 65, 59, 56, 60, 63,
                                   73, 74, 82, 81, 67, 64, 68, 71,
                                   89, 90, 98, 97, 75, 72, 76, 79};
    std::vector<Ppn> got;
    for (ProcessId pid : {0u, 5u, 31u}) {
        for (std::uint32_t i = 0; i < 4; ++i) {
            got.push_back(
                m.translate(pid, VirtAddr(VirtualLayout::privateDataBase +
                                          i * p.pageSize))
                    .ppn(p.pageSize));
            got.push_back(m.translate(pid, VirtAddr(VirtualLayout::stackBase -
                                                    i * p.pageSize))
                              .ppn(p.pageSize));
        }
    }
    EXPECT_EQ(got, want);
}

} // namespace
} // namespace vrc
