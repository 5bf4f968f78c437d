/**
 * @file
 * Zero-allocation edge fanout tests: once wired, driving a chain of
 * nets and delivering edges to listeners must not touch the heap --
 * the property the slab kernel + compact subscriber tables exist for.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hh"
#include "tests/alloc_counter.hh"
#include "wire/net.hh"

using namespace mbus;

namespace {

struct Forwarder final : wire::EdgeListener
{
    wire::Net *next = nullptr;
    void
    onNetEdge(wire::Net &, bool v) override
    {
        next->drive(v);
    }
};

struct Counter final : wire::EdgeListener
{
    int edges = 0;
    void
    onNetEdge(wire::Net &, bool) override
    {
        ++edges;
    }
};

TEST(NetFanout, SteadyStateEdgeDeliveryDoesNotAllocate)
{
    sim::Simulator simulator;
    const int kHops = 8;
    std::vector<std::unique_ptr<wire::Net>> nets;
    for (int i = 0; i < kHops; ++i) {
        nets.push_back(std::make_unique<wire::Net>(
            simulator, "hop" + std::to_string(i), 10 * sim::kNanosecond,
            true));
    }
    std::vector<Forwarder> fwd(kHops - 1);
    Counter tail;
    for (int i = 0; i + 1 < kHops; ++i) {
        fwd[static_cast<std::size_t>(i)].next = nets[i + 1].get();
        nets[i]->listen(wire::Edge::Any, fwd[i]);
    }
    nets[kHops - 1]->listen(wire::Edge::Any, tail);

    // Warm-up at the same in-flight depth fills the kernel pools
    // (slab chunks and heap index) once and for all.
    for (int e = 0; e < 1000; ++e)
        nets[0]->drive(e % 2 == 1);
    simulator.run();

    int warmEdges = tail.edges;
    std::uint64_t before = gAllocs.load();
    for (int e = 0; e < 1000; ++e)
        nets[0]->drive(e % 2 == 1);
    simulator.run();
    std::uint64_t after = gAllocs.load();

    EXPECT_EQ(tail.edges - warmEdges, 1000);
    EXPECT_EQ(after - before, 0u)
        << "edge fanout through the ring must not allocate";
    EXPECT_EQ(simulator.queue().heapCallbackCount(), 0u);
}

TEST(NetFanout, ListenerMasksFilterEdges)
{
    sim::Simulator simulator;
    wire::Net net(simulator, "n", sim::kNanosecond, true);
    Counter rising, falling, any;
    net.listen(wire::Edge::Rising, rising);
    net.listen(wire::Edge::Falling, falling);
    net.listen(wire::Edge::Any, any);

    // The net starts high, so the first drive must be low to edge.
    for (int e = 0; e < 10; ++e)
        net.drive(e % 2 == 1);
    simulator.run();

    EXPECT_EQ(rising.edges, 5);
    EXPECT_EQ(falling.edges, 5);
    EXPECT_EQ(any.edges, 10);
}

TEST(NetFanout, InternedIdsResolveToNames)
{
    sim::Simulator simulator;
    wire::Net a(simulator, "ring.CLK", sim::kNanosecond);
    wire::Net b(simulator, "ring.DATA", sim::kNanosecond);
    wire::Net c(simulator, "ring.CLK", sim::kNanosecond);

    EXPECT_NE(a.id(), b.id());
    EXPECT_EQ(a.id(), c.id()) << "same name must intern to one id";
    EXPECT_EQ(a.name(), "ring.CLK");
    EXPECT_EQ(b.name(), "ring.DATA");
    EXPECT_EQ(simulator.names().size(), 2u);
}

TEST(NetFanout, ListenerSeesNetIdentity)
{
    sim::Simulator simulator;
    wire::Net a(simulator, "a", sim::kNanosecond, true);
    wire::Net b(simulator, "b", sim::kNanosecond, true);

    struct Recorder final : wire::EdgeListener
    {
        std::vector<const wire::Net *> seen;
        void
        onNetEdge(wire::Net &net, bool) override
        {
            seen.push_back(&net);
        }
    } rec;

    a.listen(wire::Edge::Any, rec);
    b.listen(wire::Edge::Any, rec);
    a.drive(false);
    b.drive(false);
    simulator.run();

    ASSERT_EQ(rec.seen.size(), 2u);
    EXPECT_EQ(rec.seen[0], &a);
    EXPECT_EQ(rec.seen[1], &b);
}

} // namespace
