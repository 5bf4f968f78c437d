/**
 * @file
 * Unit tests for the event queue: ordering, FIFO ties, cancellation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace mbus::sim;

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });

    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        q.schedule(42, [&order, i] { order.push_back(i); });
    while (!q.empty())
        q.executeNext();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool fired = false;
    EventHandle h = q.schedule(5, [&] { fired = true; });
    EXPECT_TRUE(h.pending());
    h.cancel();
    EXPECT_FALSE(h.pending());
    EXPECT_TRUE(q.empty());
    EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int count = 0;
    EventHandle h = q.schedule(1, [&] { ++count; });
    q.executeNext();
    h.cancel();
    EXPECT_EQ(count, 1);
    EXPECT_FALSE(h.pending());
}

TEST(EventQueue, NextTimeSkipsCancelled)
{
    EventQueue q;
    EventHandle h = q.schedule(5, [] {});
    q.schedule(9, [] {});
    h.cancel();
    EXPECT_EQ(q.nextTime(), SimTime(9));
}

TEST(EventQueue, NextTimeExceptLooksPastUpToTwoHandles)
{
    EventQueue q;
    std::vector<int> order;
    EventHandle a = q.schedule(3, [&order] { order.push_back(3); });
    EventHandle b = q.schedule(4, [&order] { order.push_back(4); });
    EventHandle c = q.schedule(4, [&order] { order.push_back(5); });
    q.schedule(7, [&order] { order.push_back(7); });
    EXPECT_EQ(q.nextTimeExcept(EventHandle()), SimTime(3));
    EXPECT_EQ(q.nextTimeExcept(a), SimTime(4));
    EXPECT_EQ(q.nextTimeExcept(b), SimTime(3));
    EXPECT_EQ(q.nextTimeExcept(a, b), SimTime(4));
    EXPECT_EQ(q.nextTimeExcept(b, a), SimTime(4));
    c.cancel();
    EXPECT_EQ(q.nextTimeExcept(a, b), SimTime(7));
    // The heap keeps its pop order.
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(order, (std::vector<int>{3, 4, 7}));
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> recurse = [&]() {
        if (++depth < 5)
            q.schedule(100 + depth, recurse);
    };
    q.schedule(100, recurse);
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(depth, 5);
}

TEST(EventQueue, CountsExecutions)
{
    EventQueue q;
    for (int i = 0; i < 7; ++i)
        q.schedule(i, [] {});
    while (!q.empty())
        q.executeNext();
    EXPECT_EQ(q.executedCount(), 7u);
}
