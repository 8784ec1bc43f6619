/**
 * @file
 * Trace-digest golden: FNV-1a digests of the full record sequence and
 * the generation statistics of representative workloads.
 *
 * The generator's output is a contract: the golden corpus, campaign
 * journals and served summaries all replay it. Any change to the draw
 * path (engine, integer reduction, real conversion, Bernoulli tests,
 * sampler arithmetic) that moves even one record changes a digest here,
 * at full scale, long before a table golden would notice. Both the
 * stream and generateTrace()'s parallel materialization are held to
 * the same digests.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <ostream>
#include <string>
#include <vector>

#include "trace/generator.hh"
#include "trace/trace_stream.hh"

namespace vrc
{
namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** Fold the eight little-endian bytes of @p v into @p h. */
std::uint64_t
fnv1a(std::uint64_t h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a digest of a record sequence followed by its GenStats. */
class Digest
{
  public:
    void
    add(const TraceRecord &r)
    {
        _h = fnv1a(_h, std::uint64_t{r.vaddr} | std::uint64_t{r.pid} << 32 |
                           std::uint64_t{r.cpu} << 48 |
                           std::uint64_t(r.type) << 56);
        _count += 1;
    }

    std::uint64_t
    finish(const GenStats &s) const
    {
        std::uint64_t h = fnv1a(_h, _count);
        for (std::uint64_t v :
             {s.totalCalls, s.callWriteCount, s.totalWrites, s.totalReads,
              s.totalInstr, s.contextSwitches})
            h = fnv1a(h, v);
        for (std::uint64_t b = 1; b <= s.callWrites.maxBucket(); ++b)
            h = fnv1a(h, s.callWrites.count(b));
        return fnv1a(h, s.callWrites.sum());
    }

  private:
    std::uint64_t _h = kFnvOffset;
    std::uint64_t _count = 0;
};

/** Digest of every record a profile's stream emits plus its GenStats. */
std::uint64_t
streamDigest(const WorkloadProfile &p)
{
    TraceStream stream(p);
    std::vector<TraceRecord> buf(4096);
    Digest d;
    while (std::size_t n = stream.nextBatch(buf.data(), buf.size()))
        for (std::size_t i = 0; i < n; ++i)
            d.add(buf[i]);
    return d.finish(stream.stats());
}

/** The same digest over generateTrace()'s materialized bundle. */
std::uint64_t
generatedDigest(const WorkloadProfile &p)
{
    TraceBundle bundle = generateTrace(p);
    Digest d;
    for (const TraceRecord &r : bundle.records)
        d.add(r);
    return d.finish(bundle.stats);
}

struct DigestCase
{
    std::string name;
    WorkloadProfile profile;
    std::uint64_t digest;
};

WorkloadProfile
withShape(WorkloadProfile p, std::uint32_t cpus, std::uint64_t seed)
{
    p.numCpus = cpus;
    p.seed = seed;
    return p;
}

std::vector<DigestCase>
digestCases()
{
    return {
        // Every paper profile at full scale and its default seed.
        {"thor", thorProfile(), 0x23779b865004cb57ULL},
        {"pops", popsProfile(), 0x9cc4586f2c82c8a7ULL},
        {"abaqus", abaqusProfile(), 0x97543cf5b9e18739ULL},
        // The contention benchmark's shape: 16 CPUs, seed 1.
        {"pops_16cpu_seed1", withShape(popsProfile(), 16, 1),
         0x546c13236456ffdfULL},
        {"abaqus_16cpu_seed1", withShape(abaqusProfile(), 16, 1),
         0xaed4ac770f560f08ULL},
        // A non-default seed on a shortened trace.
        {"thor_seed42_scale01", withShape(scaled(thorProfile(), 0.1), 4, 42),
         0xd0b868155cf78b45ULL},
    };
}

/** Keeps gtest from dumping a failing case's bytes. */
void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << c.name;
}

class TraceDigest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(TraceDigest, MatchesRecordedDigest)
{
    const DigestCase &c = GetParam();
    std::uint64_t got = streamDigest(c.profile);
    EXPECT_EQ(got, c.digest)
        << std::hex << "digest of " << c.name << " is 0x" << got;
}

TEST_P(TraceDigest, GeneratedTraceMatchesRecordedDigest)
{
    const DigestCase &c = GetParam();
    std::uint64_t got = generatedDigest(c.profile);
    EXPECT_EQ(got, c.digest)
        << std::hex << "digest of generated " << c.name << " is 0x" << got;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TraceDigest, ::testing::ValuesIn(digestCases()),
    [](const ::testing::TestParamInfo<DigestCase> &info) {
        return info.param.name;
    });

} // namespace
} // namespace vrc
