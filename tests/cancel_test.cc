/**
 * @file
 * CancelToken tests: the deadline, the parent link, and how a driver
 * tells a timeout from a cancellation. Every cell attempt of the
 * sweep, the shard worker and the service polls one of these.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "base/cancel.hh"

namespace vrc
{
namespace
{

using std::chrono::steady_clock;

TEST(CancelTokenTest, DefaultTokenNeverExpires)
{
    CancelToken token;
    token.expireAfter(0.0); // no deadline, as a zero option means
    EXPECT_TRUE(token.sleepFor(0.02));
    EXPECT_FALSE(token.expired());
    EXPECT_FALSE(token.cancelled());
}

TEST(CancelTokenTest, SleepForReturnsFalseAtTheDeadline)
{
    CancelToken token;
    token.expireAfter(0.05);
    steady_clock::time_point start = steady_clock::now();
    EXPECT_FALSE(token.sleepFor(60.0));
    double slept =
        std::chrono::duration<double>(steady_clock::now() - start)
            .count();
    EXPECT_GE(slept, 0.05);
    EXPECT_LT(slept, 30.0); // woke at the deadline, not the end
    EXPECT_TRUE(token.expired());
    EXPECT_TRUE(token.cancelled());
}

TEST(CancelTokenTest, CancellingTheParentCancelsTheChild)
{
    CancelToken parent;
    CancelToken child(&parent);
    CancelToken grandchild(&child);
    EXPECT_FALSE(grandchild.cancelled());

    // Cancelled from another thread while the child sleeps on it.
    std::thread canceller([&parent] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        parent.cancel();
    });
    EXPECT_FALSE(grandchild.sleepFor(60.0));
    canceller.join();
    EXPECT_TRUE(child.cancelled());
    EXPECT_TRUE(grandchild.cancelled());
    EXPECT_FALSE(grandchild.expired());

    // The link runs one way: a cancelled child leaves its parent be.
    CancelToken root;
    CancelToken leaf(&root);
    leaf.cancel();
    EXPECT_FALSE(root.cancelled());
}

TEST(CancelTokenTest, ExpiredTellsADeadlineFromACancel)
{
    CancelToken cancelled;
    cancelled.expireAfter(60.0);
    cancelled.cancel();
    EXPECT_TRUE(cancelled.cancelled());
    EXPECT_FALSE(cancelled.expired());

    CancelToken timed;
    timed.expireAfter(1e-9);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(timed.cancelled());
    EXPECT_TRUE(timed.expired());

    // A child's deadline is its own; its parent's cancel is not one.
    CancelToken parent;
    CancelToken child(&parent);
    child.expireAfter(60.0);
    parent.cancel();
    EXPECT_TRUE(child.cancelled());
    EXPECT_FALSE(child.expired());
}

} // namespace
} // namespace vrc
