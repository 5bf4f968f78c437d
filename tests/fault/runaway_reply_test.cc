/**
 * @file
 * Regression: a corrupted memory-read request must not allocate
 * without bound.
 *
 * The pinned cell is a faulty five-fabric grid cell (MBus, three
 * nodes, an edge drop on node 1's CLK) whose faults corrupt a mailbox
 * message into a memory-read request asking for billions of words.
 * LayerController used to build the whole reply before streaming it
 * and ran past any memory cap; the reply is now clamped at the
 * mediator watchdog's kill point, so the cell finishes in
 * milliseconds. A config broadcast can raise that kill point to 4 GB,
 * so the reply is also held to what the bus could stream before the
 * simulation's horizon. Runaway cases run in a forked child under a
 * 1 GiB address-space cap, so a regression fails the test instead of
 * exhausting the host.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "backend/mbus_backend.hh"
#include "mbus/layer_controller.hh"
#include "sweep/codec.hh"
#include "sweep/scenario.hh"

using namespace mbus;

namespace {

/** encodeSpec bytes of the runaway cell ("faulty3135"). */
const char *const kRunawaySpec =
    "spec1|faulty3135|3|400000|10|2.5|1e-13|1|0|0|0|2|8|0|0|"
    "60000000000000|0|1|1|256|0|mix|1|0|0|smoke|1|32|3|4|-1|-1|0|0.0015|"
    "1|0.0003488737238872103|0.29999999999999999|0.050000000000000003|3|"
    "-1|5|-1|-1|0|0.0015|2|0.0009026638750650553|0.29999999999999999|"
    "0.050000000000000003|1|-1|3|-1|-1|0|0.0015|1|"
    "0.00038939946443002223|0.29999999999999999|0.050000000000000003|3|"
    "-1|2|8|2|0|0|256|0";

/** The cell's sweep seed. */
constexpr std::uint64_t kRunawaySeed = 7383070658408386369ULL;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kCapAddressSpace = false; // Shadow memory needs the VA.
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kCapAddressSpace = false;
#else
constexpr bool kCapAddressSpace = true;
#endif
#else
constexpr bool kCapAddressSpace = true;
#endif

/** Run @p body in a forked child under a 1 GiB address-space cap;
 *  @return the child's exit status, or -1 if it died on a signal. */
template <typename Body>
int
underMemoryCap(Body body)
{
    pid_t pid = ::fork();
    if (pid < 0)
        return -2;
    if (pid == 0) {
        if (kCapAddressSpace) {
            struct rlimit lim;
            lim.rlim_cur = lim.rlim_max = 1ULL << 30;
            if (::setrlimit(RLIMIT_AS, &lim) != 0)
                ::_exit(3);
        }
        ::_exit(body());
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status))
        return -1;
    return WEXITSTATUS(status);
}

/** A three-node ring whose mediator watchdog was raised to 4 GB by a
 *  config broadcast, as a corrupted or hostile message can do. */
struct RaisedLimitRing
{
    sim::Simulator sim;
    backend::MbusBackend be{sim, backend::BusParams{}};

    explicit RaisedLimitRing(sim::SimTime horizon)
    {
        sim.setHorizon(horizon);
        be.system().broadcastMaxMessageLength(1, 0xFFFFFFFFu);
        be.runUntilIdle(sim::kSecond);
    }

    /** Node 1 asks node 2 for @p words words from address 0, replied
     *  to node 1's memory. */
    void
    requestRead(std::uint32_t words)
    {
        bus::Message req;
        req.dest = be.unicastAddress(2, false, bus::kFuMemoryRead);
        auto reply = static_cast<std::uint8_t>(
            be.unicastAddress(1, false, bus::kFuMemoryWrite).encoded());
        req.payload = {0,
                       0,
                       0,
                       0,
                       static_cast<std::uint8_t>(words >> 24),
                       static_cast<std::uint8_t>(words >> 16),
                       static_cast<std::uint8_t>(words >> 8),
                       static_cast<std::uint8_t>(words),
                       reply};
        be.send(1, std::move(req), nullptr);
    }
};

} // namespace

TEST(RunawayReply, CorruptedMemoryReadFinishesUnderMemoryCap)
{
    sweep::ScenarioSpec spec;
    ASSERT_TRUE(sweep::decodeSpec(kRunawaySpec, spec));
    ASSERT_TRUE(spec.faults.enabled());
    ASSERT_EQ(spec.backend, backend::BackendKind::Mbus);

    int rc = underMemoryCap([&] {
        sweep::ScenarioStats st = sweep::runScenario(spec, kRunawaySeed);
        // Both planned messages still ACK; the clamped reply dies at
        // the mediator's length watchdog as the full one would.
        return !st.wedged && st.acked == 2 && st.planned == 2 ? 0 : 1;
    });
    EXPECT_EQ(rc, 0) << "-1: the reply allocation ran past the cap";
}

TEST(RunawayReply, RaisedLengthLimitStillBoundsTheReplyByTheHorizon)
{
    // All 2^32 - 1 words, with the watchdog out of the way: only the
    // horizon bounds the reply.
    int rc = underMemoryCap([] {
        RaisedLimitRing ring(sim::kSecond / 10);
        if (ring.be.system().config().maxMessageBytes != 0xFFFFFFFFu)
            return 2;
        ring.requestRead(0xFFFFFFFFu);
        ring.sim.run(sim::kSecond / 10);
        return ring.be.system().node(2).layer().memoryReads() == 1 ? 0
                                                                   : 1;
    });
    EXPECT_EQ(rc, 0) << "-1: the reply allocation ran past the cap";
}

TEST(RunawayReply, ReplyThatFinishesStreamingIsUnclamped)
{
    // 2,000 words (8 kB: legal only under the raised limit) stream in
    // about 0.16 s at 400 kHz; the horizon leaves room, so the whole
    // reply must land in node 1's memory.
    constexpr std::uint32_t kWords = 2000;
    RaisedLimitRing ring(sim::kSecond);
    bus::LayerController &src = ring.be.system().node(2).layer();
    for (std::uint32_t w = 0; w < kWords; ++w)
        src.writeMemory(w, 0xA5000000u | w);
    ring.requestRead(kWords);
    ASSERT_TRUE(ring.be.runUntilIdle(sim::kSecond / 2));
    bus::LayerController &dst = ring.be.system().node(1).layer();
    EXPECT_EQ(dst.memoryWrites(), 1u);
    EXPECT_EQ(dst.readMemory(kWords - 1), 0xA5000000u | (kWords - 1));
    EXPECT_EQ(dst.readMemory(kWords), 0u);
}
