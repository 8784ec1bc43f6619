/**
 * @file
 * Tests of the benchmark's own pieces: the percentile helper, metric
 * names, the result line's shape, span self-times and the output
 * checker (which must trip on a deliberately corrupted summary).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "report.hh"
#include "sim/campaign.hh"
#include "tracer.hh"
#include "workloads.hh"

using namespace vrcbench;

namespace
{

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

} // namespace

TEST(Percentile, TailHasTenSamplesBeyondIt)
{
    TailStat t = tailStat(oneTo(1000));
    EXPECT_EQ(t.n, 1000u);
    EXPECT_EQ(t.p50, 500.0);
    EXPECT_EQ(t.tailPct, 99.0);
    EXPECT_EQ(t.tail, 990.0);
    EXPECT_EQ(t.beyond, 10u);

    t = tailStat(oneTo(10000)); // p99.9 would qualify; p99 is the cap
    EXPECT_EQ(t.tailPct, 99.0);
    EXPECT_EQ(t.tail, 9900.0);
    EXPECT_EQ(t.beyond, 100u);

    t = tailStat(oneTo(999)); // p99 would leave only 9 beyond
    EXPECT_EQ(t.tailPct, 95.0);
    EXPECT_GE(t.beyond, 10u);

    t = tailStat(oneTo(100));
    EXPECT_EQ(t.tailPct, 90.0);
    EXPECT_EQ(t.tail, 90.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(Percentile, FewSamplesFallBackToTheMedianAndSaySo)
{
    TailStat t = tailStat(oneTo(15));
    EXPECT_EQ(t.tailPct, 50.0);
    EXPECT_EQ(t.tail, t.p50);
    EXPECT_EQ(t.p50, 8.0);
    EXPECT_EQ(t.beyond, 7u);
    EXPECT_EQ(tailStat({}).n, 0u);
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
}

TEST(Names, EveryMetricNameIsWellFormedAndUnique)
{
    std::set<std::string> seen;
    for (const MetricSpec &m : kEndToEnd) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
    for (const MetricSpec &m : kPerLayer) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << m.name;
    }
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".hidden"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/name"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
}

TEST(Names, SpecMatchesBenchmarkJson)
{
    std::ifstream in(VRCBENCH_ROOT "/BENCHMARK.json");
    ASSERT_TRUE(in) << "BENCHMARK.json not found";
    std::stringstream ss;
    ss << in.rdbuf();
    std::string text = ss.str();
    auto section = [&](const std::string &key) {
        std::size_t at = text.find("\"" + key + "\"");
        std::size_t end = text.find(']', at);
        std::string body = text.substr(at, end - at);
        std::vector<std::pair<std::string, std::string>> out;
        std::regex re("\"name\": \"([^\"]+)\", \"unit\": \"([^\"]+)\"");
        for (std::sregex_iterator it(body.begin(), body.end(), re), e;
             it != e; ++it)
            out.emplace_back((*it)[1], (*it)[2]);
        return out;
    };
    auto e2e = section("end_to_end");
    ASSERT_EQ(e2e.size(), std::size(kEndToEnd));
    for (std::size_t i = 0; i < e2e.size(); ++i) {
        EXPECT_EQ(e2e[i].first, kEndToEnd[i].name);
        EXPECT_EQ(e2e[i].second, kEndToEnd[i].unit);
    }
    auto layer = section("per_layer");
    ASSERT_EQ(layer.size(), std::size(kPerLayer));
    for (std::size_t i = 0; i < layer.size(); ++i) {
        EXPECT_EQ(layer[i].first, kPerLayer[i].name);
        EXPECT_EQ(layer[i].second, kPerLayer[i].unit);
    }
}

TEST(Output, ResultLineHasTheDocumentedShape)
{
    std::string line = resultJson(true, 12, 0,
                                  {{"setup_s", 0.8127, "s"},
                                   {"refs_per_s", 2.5e7, "refs/s"}});
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 12, \"failed\": 0, "
              "\"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": "
              "\"s\"}, \"refs_per_s\": {\"value\": 2.5e+07, \"unit\": "
              "\"refs/s\"}}}");
    EXPECT_EQ(resultJson(false, 1, 1, {}),
              "{\"correct\": false, \"attempted\": 1, \"failed\": 1, "
              "\"metrics\": {}}");
}

TEST(Output, NumbersKeepAllTheirDigits)
{
    for (double v : {0.1, 1.0 / 3.0, 12345.678901234567, 6.02e23, 1e-9}) {
        std::string s = exactNumber(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
}

TEST(Tracer, SelfTimesPartitionTheRootSpan)
{
    Tracer t(true, 7);
    {
        Tracer::Scope root(t, "bench", "root");
        for (int i = 0; i < 3; ++i) {
            Tracer::Scope kid(t, "core", "kid", root.id());
            volatile double x = 0;
            for (int k = 0; k < 100000; ++k)
                x = x + k;
        }
    }
    double rootS = t.totalSeconds("root");
    double sum = 0.0;
    for (const auto &[layer, s] : t.selfSecondsByLayer()) {
        EXPECT_GE(s, 0.0) << layer;
        sum += s;
    }
    EXPECT_NEAR(sum, rootS, 1e-9);
    EXPECT_EQ(t.durations("kid").size(), 3u);
    for (const Span &s : t.spans())
        EXPECT_EQ(s.run, 7u);

    Tracer off(false, 1);
    {
        Tracer::Scope s(off, "bench", "ignored");
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Checker, CorruptedSummaryTripsTheCheck)
{
    vrc::TraceBundle b =
        vrc::generateTrace(vrc::scaled(seededProfile("pops", 3), 0.002));
    vrc::SimJob job{vrc::HierarchyKind::VirtualRealRlt, 4 * 1024,
                    64 * 1024};
    std::string line = vrc::encodeSummaryLine(0, vrc::runSimulationJob(b, job));
    std::string again =
        vrc::encodeSummaryLine(0, vrc::runSimulationJob(b, job));
    EXPECT_EQ(countMismatches({line}, {again}), 0u);
    std::string bad = corruptSummaryLine(line);
    EXPECT_NE(bad, line);
    EXPECT_EQ(countMismatches({bad}, {line}), 1u);
    EXPECT_EQ(countMismatches({line}, {line, line}), 1u); // missing cell
    EXPECT_TRUE(checkerTrips(line));
}

TEST(Checker, SeedReachesTheTrace)
{
    vrc::WorkloadProfile a = vrc::scaled(seededProfile("pops", 1), 0.001);
    vrc::WorkloadProfile b = vrc::scaled(seededProfile("pops", 2), 0.001);
    EXPECT_EQ(a.seed, 1u);
    EXPECT_NE(vrc::generateTrace(a).records, vrc::generateTrace(b).records);
    EXPECT_EQ(vrc::generateTrace(a).records, vrc::generateTrace(a).records);
}
