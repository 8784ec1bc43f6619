/**
 * @file
 * Tests for workload profile file I/O.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "trace/generator.hh"
#include "trace/profile_io.hh"

namespace vrc
{
namespace
{

TEST(ProfileIoTest, RoundTripReproducesEveryField)
{
    WorkloadProfile p = abaqusProfile();
    std::stringstream ss;
    writeProfile(ss, p);
    WorkloadProfile q = tryReadProfile(ss).orDie();

    EXPECT_EQ(q.name, p.name);
    EXPECT_EQ(q.numCpus, p.numCpus);
    EXPECT_EQ(q.totalRefs, p.totalRefs);
    EXPECT_DOUBLE_EQ(q.instrFrac, p.instrFrac);
    EXPECT_DOUBLE_EQ(q.readFrac, p.readFrac);
    EXPECT_DOUBLE_EQ(q.writeFrac, p.writeFrac);
    EXPECT_EQ(q.contextSwitches, p.contextSwitches);
    EXPECT_EQ(q.processesPerCpu, p.processesPerCpu);
    EXPECT_EQ(q.procCount, p.procCount);
    EXPECT_DOUBLE_EQ(q.procZipfTheta, p.procZipfTheta);
    EXPECT_DOUBLE_EQ(q.callProb, p.callProb);
    EXPECT_DOUBLE_EQ(q.seqFrac, p.seqFrac);
    EXPECT_DOUBLE_EQ(q.hotspotFrac, p.hotspotFrac);
    EXPECT_EQ(q.seed, p.seed);
    ASSERT_EQ(q.dataLevels.size(), p.dataLevels.size());
    for (std::size_t i = 0; i < p.dataLevels.size(); ++i) {
        EXPECT_EQ(q.dataLevels[i].bytes, p.dataLevels[i].bytes);
        EXPECT_DOUBLE_EQ(q.dataLevels[i].weight,
                         p.dataLevels[i].weight);
    }
}

TEST(ProfileIoTest, RoundTrippedProfileGeneratesIdenticalTrace)
{
    WorkloadProfile p = scaled(popsProfile(), 0.003);
    std::stringstream ss;
    writeProfile(ss, p);
    WorkloadProfile q = tryReadProfile(ss).orDie();
    EXPECT_EQ(generateTrace(p).records, generateTrace(q).records);
}

TEST(ProfileIoTest, PartialFileKeepsDefaults)
{
    std::stringstream ss;
    ss << "# my profile\n"
       << "name = tiny\n"
       << "num_cpus = 2\n"
       << "total_refs = 5000\n";
    WorkloadProfile p = tryReadProfile(ss).orDie();
    EXPECT_EQ(p.name, "tiny");
    EXPECT_EQ(p.numCpus, 2u);
    EXPECT_EQ(p.totalRefs, 5000u);
    WorkloadProfile defaults;
    EXPECT_DOUBLE_EQ(p.instrFrac, defaults.instrFrac);
    EXPECT_EQ(p.pageSize, defaults.pageSize);
}

TEST(ProfileIoTest, DataLevelsParsing)
{
    std::stringstream ss;
    ss << "data_levels = 1024:0.5, 8192:0.3,262144:0.2\n";
    WorkloadProfile p = tryReadProfile(ss).orDie();
    ASSERT_EQ(p.dataLevels.size(), 3u);
    EXPECT_EQ(p.dataLevels[1].bytes, 8192u);
    EXPECT_DOUBLE_EQ(p.dataLevels[1].weight, 0.3);
}

TEST(ProfileIoDeathTest, UnknownKeyRejected)
{
    std::stringstream ss;
    ss << "num_cpuz = 4\n";
    EXPECT_EXIT(tryReadProfile(ss).orDie(),
                ::testing::ExitedWithCode(1), "unknown profile key");
}

TEST(ProfileIoDeathTest, MissingEqualsRejected)
{
    std::stringstream ss;
    ss << "just some words\n";
    EXPECT_EXIT(tryReadProfile(ss).orDie(),
                ::testing::ExitedWithCode(1), "no '='");
}

TEST(ProfileIoDeathTest, BadLevelSyntaxRejected)
{
    std::stringstream ss;
    ss << "data_levels = 1024-0.5\n";
    EXPECT_EXIT(tryReadProfile(ss).orDie(),
                ::testing::ExitedWithCode(1), "bad data_levels");
}

TEST(ProfileIoTest, FileRoundTrip)
{
    std::string path = ::testing::TempDir() + "/vrc_profile_test.prof";
    WorkloadProfile p = thorProfile();
    saveProfile(path, p);
    WorkloadProfile q = tryLoadProfile(path).orDie();
    EXPECT_EQ(q.name, "thor");
    EXPECT_EQ(q.seed, p.seed);
    std::remove(path.c_str());
}

} // namespace
} // namespace vrc
