/**
 * @file
 * Unit tests for the Simulator: time advance, run limits, stop, and
 * the runUntil()/poke() wait rule.
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

TEST(Simulator, WaitChecksDoneOnlyAfterThePokingEventReturns)
{
    Simulator s;
    bool done = false;
    int checks = 0;
    // Pokes, then makes done false again before returning: the wait
    // goes on.
    s.schedule(1, [&] {
        done = true;
        s.poke();
        done = false;
    });
    // done turns true without a poke: not noticed.
    s.schedule(2, [&] { done = true; });
    s.schedule(3, [&] { done = false; });
    s.schedule(4, [&] {
        done = true;
        s.poke();
    });
    s.schedule(5, [] {});
    EXPECT_TRUE(s.runUntil(kTimeForever, [&] {
        ++checks;
        return done;
    }));
    EXPECT_EQ(s.now(), SimTime(4));
    EXPECT_EQ(checks, 2);
    EXPECT_TRUE(s.hasPendingEvents());
}

TEST(Simulator, PokeOutsideAWaitDoesNotStopARun)
{
    Simulator s;
    int executed = 0;
    for (int i = 1; i <= 5; ++i) {
        s.schedule(i, [&] {
            ++executed;
            s.poke();
        });
    }
    s.poke();
    s.run();
    EXPECT_EQ(executed, 5);
    EXPECT_FALSE(s.hasPendingEvents());
}

TEST(Simulator, WaitTimeoutAndDrainedQueueAdvanceTimeAsRunDoes)
{
    // Timeout: events past the bound stay queued, time lands on it,
    // and an event exactly at the bound still executes.
    Simulator s;
    bool atBound = false, late = false;
    s.schedule(5, [] {});
    s.run();
    s.schedule(10 * kMicrosecond, [&] {
        atBound = true;
        s.poke();
    });
    s.schedule(kMillisecond, [&] { late = true; });
    EXPECT_FALSE(s.runUntil(10 * kMicrosecond, [] { return false; }));
    EXPECT_TRUE(atBound);
    EXPECT_FALSE(late);
    EXPECT_EQ(s.now(), 5 + 10 * kMicrosecond);

    // Drained queue: time still advances to the bound...
    Simulator d;
    d.schedule(7, [&] { d.poke(); });
    EXPECT_FALSE(d.runUntil(kMillisecond, [] { return false; }));
    EXPECT_EQ(d.now(), kMillisecond);
    Simulator r;
    r.schedule(7, [] {});
    r.run(kMillisecond);
    EXPECT_EQ(r.now(), d.now());

    // ...except with no bound, where it stays at the last event.
    Simulator f;
    f.schedule(7, [] {});
    EXPECT_FALSE(f.runUntil(kTimeForever, [] { return true; }));
    EXPECT_EQ(f.now(), SimTime(7));
    EXPECT_EQ(f.runLimit(), kTimeForever);
}

TEST(Simulator, NestedWaitRestoresTheOuterOne)
{
    Simulator s;
    bool outerDone = false, innerDone = false, innerMet = false;
    SimTime innerLimit = 0;
    s.schedule(1, [&] {
        innerMet = s.runUntil(100, [&] { return innerDone; });
    });
    s.schedule(2, [&] {
        innerLimit = s.runLimit();
        innerDone = true;
        s.poke();
    });
    // Back in the outer wait: pokes check the outer condition.
    s.schedule(3, [&] { s.poke(); });
    s.schedule(4, [&] {
        EXPECT_EQ(s.runLimit(), SimTime(1000));
        outerDone = true;
        s.poke();
    });
    s.schedule(5, [] {});
    EXPECT_TRUE(s.runUntil(1000, [&] { return outerDone; }));
    EXPECT_TRUE(innerMet);
    EXPECT_EQ(innerLimit, SimTime(101));
    EXPECT_EQ(s.now(), SimTime(4));
    EXPECT_TRUE(s.hasPendingEvents());
    // Outside every wait a poke is a no-op again.
    s.poke();
    s.run();
    EXPECT_EQ(s.now(), SimTime(5));
}

TEST(Simulator, StopEndsAWait)
{
    Simulator s;
    s.schedule(1, [&] {
        s.poke();
        s.stop();
    });
    s.schedule(2, [] {});
    EXPECT_FALSE(s.runUntil(kTimeForever, [] { return true; }));
    EXPECT_EQ(s.now(), SimTime(1));
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
