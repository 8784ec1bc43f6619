/**
 * @file
 * Tests for the parallel experiment runner: the pool machinery itself,
 * and the guarantee the benches rely on -- simulation results are
 * bit-identical for any worker count.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>

#include "sim/experiment.hh"
#include "sim/json_stats.hh"
#include "sim/parallel_runner.hh"

namespace vrc
{
namespace
{

TEST(ParallelRunnerTest, MapPreservesIndexOrder)
{
    ParallelRunner pool(4);
    auto out = pool.map(100, [](std::size_t i) { return i * i; });
    ASSERT_EQ(out.size(), 100u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelRunnerTest, ForEachVisitsEveryIndexOnce)
{
    ParallelRunner pool(3);
    std::vector<std::atomic<int>> visits(257);
    pool.forEachIndex(visits.size(), [&](std::size_t i) {
        visits[i].fetch_add(1);
    });
    for (const auto &v : visits)
        EXPECT_EQ(v.load(), 1);
}

TEST(ParallelRunnerTest, SingleWorkerRunsInline)
{
    ParallelRunner pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    std::vector<std::size_t> order;
    pool.forEachIndex(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelRunnerTest, ExceptionsPropagateToCaller)
{
    ParallelRunner pool(2);
    EXPECT_THROW(pool.forEachIndex(10,
                                   [](std::size_t i) {
                                       if (i == 7)
                                           throw std::runtime_error("x");
                                   }),
                 std::runtime_error);
}

TEST(ParallelRunnerTest, CollectsEveryFailureWithItsIndex)
{
    // All failing jobs must be reported -- sorted by index, each with
    // its own message -- and the healthy jobs must still all run.
    for (unsigned workers : {1u, 4u}) {
        ParallelRunner pool(workers);
        std::atomic<unsigned> ran{0};
        try {
            pool.forEachIndex(20, [&](std::size_t i) {
                ++ran;
                if (i % 7 == 3)
                    throw std::runtime_error(
                        "boom " + std::to_string(i));
            });
            FAIL() << "expected ParallelJobError";
        } catch (const ParallelJobError &e) {
            EXPECT_EQ(ran.load(), 20u);
            ASSERT_EQ(e.failures().size(), 3u); // i = 3, 10, 17
            EXPECT_EQ(e.failures()[0].index, 3u);
            EXPECT_EQ(e.failures()[1].index, 10u);
            EXPECT_EQ(e.failures()[2].index, 17u);
            EXPECT_EQ(e.failures()[1].message, "boom 10");
            EXPECT_NE(std::string(e.what()).find("[job 17: boom 17]"),
                      std::string::npos);
        }
    }
}

TEST(ParallelRunnerTest, FourWorkersHoldFourItemsAtOnce)
{
    // Each item waits until all four have arrived. A runner that has
    // collapsed to serial never gathers them, so every wait runs out
    // against one shared deadline: the test fails in seconds instead
    // of hanging.
    std::mutex mu;
    std::condition_variable cv;
    unsigned arrived = 0;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    ParallelRunner pool(4);
    std::vector<int> met = pool.map(4, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mu);
        ++arrived;
        cv.notify_all();
        return cv.wait_until(lock, deadline, [&] { return arrived == 4; })
                   ? 1
                   : 0;
    });
    EXPECT_EQ(met, (std::vector<int>{1, 1, 1, 1}));
}

TEST(ParallelRunnerTest, DefaultJobsOverride)
{
    ParallelRunner::setDefaultJobs(3);
    EXPECT_EQ(ParallelRunner::defaultJobs(), 3u);
    EXPECT_EQ(ParallelRunner(0).jobs(), 3u);
    ParallelRunner::setDefaultJobs(0);
    EXPECT_GE(ParallelRunner::defaultJobs(), 1u);
}

/**
 * The guarantee the bench tables and the vrcbench sweep rest on (the
 * sweep is what scripts/bench_pairs.py times, parent against change,
 * pair by pair): running the same job list with one worker or many
 * produces identical summaries, field for field (compared through the
 * JSON serialization, which covers every table-facing number).
 */
TEST(ParallelRunnerTest, SimulationsDeterministicAcrossThreadCounts)
{
    WorkloadProfile p = scaled(popsProfile(), 0.01);
    TraceBundle bundle = generateTrace(p);

    std::vector<SimJob> jobs;
    for (auto [l1, l2] : paperSizePairs()) {
        jobs.push_back({HierarchyKind::VirtualReal, l1, l2});
        jobs.push_back({HierarchyKind::RealRealIncl, l1, l2});
        jobs.push_back({HierarchyKind::RealRealNoIncl, l1, l2});
    }

    std::vector<SimSummary> serial = runSimulations(bundle, jobs, 1);
    std::vector<SimSummary> parallel4 = runSimulations(bundle, jobs, 4);
    ASSERT_EQ(serial.size(), parallel4.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(toJson(serial[i]), toJson(parallel4[i]))
            << "job " << i << " diverged across thread counts";
}

} // namespace
} // namespace vrc
