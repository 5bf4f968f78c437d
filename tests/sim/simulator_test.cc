/**
 * @file
 * Unit tests for the Simulator: time advance, run limits, stop.
 */

#include <gtest/gtest.h>

#include "sim/simulator.hh"

using namespace mbus::sim;

TEST(Simulator, TimeAdvancesWithEvents)
{
    Simulator s;
    SimTime seen = 0;
    s.schedule(5 * kMicrosecond, [&] { seen = s.now(); });
    s.run();
    EXPECT_EQ(seen, 5 * kMicrosecond);
    EXPECT_EQ(s.now(), 5 * kMicrosecond);
}

TEST(Simulator, RunRespectsLimit)
{
    Simulator s;
    bool late_fired = false;
    s.schedule(kMillisecond, [&] { late_fired = true; });
    s.run(10 * kMicrosecond);
    EXPECT_FALSE(late_fired);
    EXPECT_EQ(s.now(), 10 * kMicrosecond);
    s.run();
    EXPECT_TRUE(late_fired);
}

TEST(Simulator, RelativeSchedulingCompounds)
{
    Simulator s;
    SimTime final_time = 0;
    s.schedule(10, [&] {
        s.schedule(10, [&] { final_time = s.now(); });
    });
    s.run();
    EXPECT_EQ(final_time, SimTime(20));
}

TEST(Simulator, RunLimitIsVisibleInsideTheRun)
{
    Simulator s;
    SimTime seen = 0;
    s.schedule(kMicrosecond, [&] { seen = s.runLimit(); });
    s.schedule(kSecond, [] {});
    EXPECT_EQ(s.runLimit(), kTimeForever);
    s.run(kMillisecond);
    EXPECT_EQ(seen, kMillisecond);
    EXPECT_EQ(s.now(), kMillisecond);
    EXPECT_EQ(s.runLimit(), kTimeForever);
}

TEST(Simulator, StopEndsRun)
{
    Simulator s;
    int executed = 0;
    for (int i = 1; i <= 10; ++i) {
        s.schedule(i, [&] {
            if (++executed == 3)
                s.stop();
        });
    }
    s.run();
    EXPECT_EQ(executed, 3);
    EXPECT_TRUE(s.hasPendingEvents());
}

TEST(Simulator, ZeroDelayRunsAtSameTimestamp)
{
    Simulator s;
    SimTime when = kTimeForever;
    s.schedule(7, [&] { s.schedule(0, [&] { when = s.now(); }); });
    s.run();
    EXPECT_EQ(when, SimTime(7));
}

TEST(SimTypes, FrequencyPeriodRoundTrip)
{
    EXPECT_EQ(periodFromHz(400e3), SimTime(2'500'000)); // 2.5 us.
    EXPECT_NEAR(hzFromPeriod(periodFromHz(7.1e6)), 7.1e6, 1e3);
    EXPECT_EQ(fromSeconds(1.0), kSecond);
    EXPECT_DOUBLE_EQ(toSeconds(kMillisecond), 1e-3);
}
