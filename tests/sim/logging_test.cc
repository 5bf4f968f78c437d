/**
 * @file
 * Diagnostics from concurrent sweep workers: every warn line reaches
 * stderr whole, never interleaved with another thread's line.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "sim/logging.hh"

namespace {

TEST(Logging, ConcurrentWarnLinesStayWhole)
{
    constexpr int kThreads = 8;
    constexpr int kCalls = 2000;
    auto expected = [](int t) {
        return "warn: interjection not confirmed on worker " +
               std::to_string(t) + "; proceeding to control";
    };

    testing::internal::CaptureStderr();
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t)
        workers.emplace_back([t] {
            for (int i = 0; i < kCalls; ++i)
                mbus::sim::warn("interjection not confirmed on worker ",
                                t, "; proceeding to control");
        });
    for (std::thread &w : workers)
        w.join();
    const std::string captured = testing::internal::GetCapturedStderr();

    std::map<std::string, int> seen;
    std::istringstream lines(captured);
    std::string line;
    while (std::getline(lines, line))
        ++seen[line];
    std::map<std::string, int> want;
    for (int t = 0; t < kThreads; ++t)
        want[expected(t)] = kCalls;
    EXPECT_EQ(seen, want);
}

} // namespace
