/**
 * @file
 * Golden replay of the software MBus member (Sec 6.6).
 *
 * Every cell below was captured while the repository still carried a
 * second, behavioral software member next to the libmbus port, and
 * was admitted only where the two engines agreed on the waveform and
 * on every bus-observable field; its digests were re-pinned once, with
 * only switching energy moving, when the MBus ledger came to price
 * each cell as count x unit. The pins are the VCD hash and length
 * (on the cells that capture a waveform) and observableDigest(): an
 * FNV-1a over transaction outcomes, delivered bytes, latencies, sim
 * time, per-node wire edges, bit-exact energy and the fault/retry
 * counters. Kernel-cost counters (events, trains, dispatch calls) are
 * not pinned; perf_gate gates those.
 *
 * Three families: 200 randomized classic-traffic cells (every
 * traffic pattern, storms, gating, RX overflow, kernel batching on
 * and off), the canonical application mix quiet and under a storm
 * (also run without its waveform, where the data-phase fast-forward
 * must keep the digest for fewer kernel events than every edge),
 * and 100 software-member cells of the faulty five-fabric grid
 * recipe, each with a waveform.
 *
 * Compiled into the sweep test binary (`ctest -L sweep`).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include "bench/bench_util.hh"
#include "sim/hash.hh"
#include "sim/random.hh"
#include "sweep/sweep.hh"
#include "tests/record_equality.hh"

using namespace mbus;

namespace {

/** FNV-1a over everything bus-observable in a cell: outcomes,
 *  delivered bytes, timing, per-node wire edges, bit-exact energy,
 *  and the fault/retry counters. Kernel-cost counters (events,
 *  trains, dispatch calls) are left out: they track how the
 *  simulator schedules work, not what happens on the bus.
 *  It stays a pinned digest of its own rather than one derived from
 *  the record-equality rule's field list, because re-deriving it
 *  would re-pin the 300+ golden values below. */
std::uint64_t
observableDigest(const sweep::ScenarioStats &s)
{
    sim::Fnv1a h;
    auto u = [&h](std::uint64_t v) { h.update(v); };
    auto i = [&h](long long v) {
        h.update(static_cast<std::uint64_t>(v));
    };
    auto d = [&h](double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h.update(bits);
    };
    i(s.planned);
    i(s.acked);
    i(s.naked);
    i(s.broadcasts);
    i(s.interrupted);
    i(s.rxAborts);
    i(s.failed);
    u(s.bytesDelivered);
    u(s.payloadMismatches);
    u(s.arbitrationRetries);
    u(s.clockCycles);
    d(s.switchingJ);
    d(s.leakageJ);
    u(s.wedged ? 1 : 0);
    u(s.simTime);
    for (std::uint64_t e : s.perNodeEdges)
        u(e);
    for (double l : s.txLatenciesS)
        d(l);
    i(s.samplesPlanned);
    i(s.samplesDelivered);
    i(s.missedDeadlines);
    i(s.stormInterjections);
    i(s.faultEvents);
    u(s.busResets);
    i(s.txResets);
    u(s.retries);
    i(s.recoveredTx);
    i(s.abandonedTx);
    i(s.deliveredOk);
    i(s.deliveredInterrupted);
    i(s.deliveredOverflow);
    return h.digest();
}

struct GoldenCell
{
    sweep::ScenarioSpec spec;
    std::uint64_t seed;
};

/** One randomized mixed-ring spec over every traffic pattern,
 *  storms, gating, RX overflow and the kernel batching switches. */
sweep::ScenarioSpec
randomSpec(sim::Random &rng, std::size_t i)
{
    sweep::ScenarioSpec s;
    s.name = "diff" + std::to_string(i);
    s.nodes = static_cast<int>(rng.between(3, 5));
    s.busClockHz = 50e3 + 350e3 * rng.uniform();
    s.messages = static_cast<int>(rng.between(1, 5));
    s.payloadBytes = rng.below(17);
    s.traffic = static_cast<sweep::TrafficPattern>(rng.below(4));
    s.fullAddressing = rng.chance(0.25);
    s.powerGated = rng.chance(0.3);
    s.priorityRate = rng.chance(0.5) ? 0.5 : 0.0;
    s.interjectRate = rng.chance(0.4) ? 0.35 : 0.0;
    s.edgeTrains = rng.chance(0.8);
    s.chunkedDispatch = rng.chance(0.8);
    if (rng.chance(0.2))
        s.softRxCapacity = rng.between(8, 16); // Force RX overflow.
    s.captureVcd = i % 4 == 0; // Waveform identity on a quarter.
    s.backend = backend::BackendKind::Bitbang;
    return s;
}

std::vector<GoldenCell>
randomizedCells()
{
    std::vector<GoldenCell> cells;
    sim::Random master(0x6c69626d627573ULL); // "libmbus"
    for (std::size_t i = 0; i < 200; ++i) {
        sweep::ScenarioSpec spec = randomSpec(master, i);
        cells.push_back({spec, sim::Random(0xd1ff).split(i).next()});
    }
    return cells;
}

/** The canonical application mix, quiet and under a storm. */
std::vector<GoldenCell>
workloadCells()
{
    std::vector<GoldenCell> cells;
    for (double storm : {0.0, 0.15}) {
        sweep::ScenarioSpec spec = benchutil::canonicalWorkloadCell(
            /*nodes=*/3, /*clockHz=*/400e3, storm, /*smoke=*/true);
        spec.workload.durationS = 6.0;
        spec.captureVcd = true;
        spec.backend = backend::BackendKind::Bitbang;
        cells.push_back({spec, 0x1757});
    }
    return cells;
}

/** The software-member cells of the faulty five-fabric grid recipe
 *  (glitches, stuck-at holds, dropped edges, brownouts, drift under
 *  the watchdog and retry policy), all with a waveform. */
std::vector<GoldenCell>
faultyCells()
{
    std::vector<GoldenCell> cells;
    std::vector<sweep::ScenarioSpec> grid =
        benchutil::faultyFiveFabricGrid(250, "fw_fault");
    for (std::size_t i = 0; i < grid.size(); ++i) {
        if (grid[i].backend != backend::BackendKind::Bitbang &&
            grid[i].backend != backend::BackendKind::Firmware)
            continue;
        sweep::ScenarioSpec spec = grid[i];
        spec.backend = backend::BackendKind::Bitbang;
        spec.captureVcd = true;
        cells.push_back({spec, sim::Random(0xfa17).split(i).next()});
    }
    return cells;
}

struct Golden
{
    std::uint64_t vcdHash;
    std::size_t vcdBytes;
    std::uint64_t digest;
};

/** Fault primitives applied and watchdog resets, summed over cells. */
struct FaultTotals
{
    int faultEvents = 0;
    std::uint64_t busResets = 0;
};

FaultTotals
expectGolden(const std::vector<GoldenCell> &cells, const Golden *golden,
             std::size_t n)
{
    FaultTotals totals;
    EXPECT_EQ(cells.size(), n);
    for (std::size_t i = 0; i < n && i < cells.size(); ++i) {
        sweep::ScenarioStats s =
            sweep::runScenario(cells[i].spec, cells[i].seed);
        totals.faultEvents += s.faultEvents;
        totals.busResets += s.busResets;
        SCOPED_TRACE(cells[i].spec.name);
        EXPECT_EQ(s.vcdHash, golden[i].vcdHash);
        EXPECT_EQ(s.vcdBytes, golden[i].vcdBytes);
        EXPECT_EQ(observableDigest(s), golden[i].digest);
        EXPECT_FALSE(s.wedged);
        if (::testing::Test::HasFailure())
            break; // One divergence is enough context; stop early.
    }
    return totals;
}

// {vcdHash, vcdBytes, observableDigest}, one row per cell.
const Golden kRandomized[] = {
    {0xf1fa92aa8346f34cULL, 28182u, 0x5ddcaa4cb5fd169dULL},
    {0x0000000000000000ULL, 0u, 0x49cc4d526269c634ULL},
    {0x0000000000000000ULL, 0u, 0x4395513d644e27feULL},
    {0x0000000000000000ULL, 0u, 0x10fadd667f984ab6ULL},
    {0x32614713890505ceULL, 25453u, 0x95db2c63fa4e45e7ULL},
    {0x0000000000000000ULL, 0u, 0x4ee40f2b4a41dc4cULL},
    {0x0000000000000000ULL, 0u, 0xe616443f12e79ee4ULL},
    {0x0000000000000000ULL, 0u, 0x8adcff5a9e4c4cc6ULL},
    {0x61d435d2ef0ac94bULL, 57229u, 0x1201f6ebf169baa7ULL},
    {0x0000000000000000ULL, 0u, 0x2fbb061d537bac06ULL},
    {0x0000000000000000ULL, 0u, 0x31ade4a7f97ead70ULL},
    {0x0000000000000000ULL, 0u, 0x5c9401bbad37b615ULL},
    {0x70c7943d5afc0c6aULL, 55204u, 0x47bde1990d2df178ULL},
    {0x0000000000000000ULL, 0u, 0x00d83cbac6a06253ULL},
    {0x0000000000000000ULL, 0u, 0x2789c5c8f1663f02ULL},
    {0x0000000000000000ULL, 0u, 0x7cad427d4fc85cc1ULL},
    {0x7be8392a04645d6dULL, 12459u, 0xd95d04b7dbac10f4ULL},
    {0x0000000000000000ULL, 0u, 0x0e41b7107c480b43ULL},
    {0x0000000000000000ULL, 0u, 0x63747751b19aed10ULL},
    {0x0000000000000000ULL, 0u, 0x9203a6d4bea1b90eULL},
    {0xc81c3debd3af2dcdULL, 2128u, 0xd252e9b185fd1c32ULL},
    {0x0000000000000000ULL, 0u, 0x18b504b3064ce704ULL},
    {0x0000000000000000ULL, 0u, 0x1c56604f039447f1ULL},
    {0x0000000000000000ULL, 0u, 0x9bbeac3fb2653701ULL},
    {0x8850395234eec2a9ULL, 56488u, 0x897db3c0d4c61e3cULL},
    {0x0000000000000000ULL, 0u, 0x94d38672b4484da3ULL},
    {0x0000000000000000ULL, 0u, 0x0e327e6b5d8a3a0dULL},
    {0x0000000000000000ULL, 0u, 0x82e265900af5c7bcULL},
    {0x0e1bf7f255d84e10ULL, 3945u, 0xdf999d7e32d176deULL},
    {0x0000000000000000ULL, 0u, 0x6d7634b3c66db0bdULL},
    {0x0000000000000000ULL, 0u, 0x944840bffcac084eULL},
    {0x0000000000000000ULL, 0u, 0xe5aae0fb296c8cacULL},
    {0x6e0dda29b7d07852ULL, 10452u, 0xd6f707ad0981b186ULL},
    {0x0000000000000000ULL, 0u, 0xc17695cafe978c07ULL},
    {0x0000000000000000ULL, 0u, 0x087a4c5d09b364b1ULL},
    {0x0000000000000000ULL, 0u, 0x7a81a5b8dbe3c8b4ULL},
    {0xba049c66e1d44b7bULL, 29564u, 0xa4864e1b91ab77c9ULL},
    {0x0000000000000000ULL, 0u, 0x98048d62b53ec9f2ULL},
    {0x0000000000000000ULL, 0u, 0x4e1afcc4a06c7c04ULL},
    {0x0000000000000000ULL, 0u, 0x359da87e07416009ULL},
    {0xbfd852c4522211a2ULL, 8783u, 0x8c387efd740f8033ULL},
    {0x0000000000000000ULL, 0u, 0xb5bb6c7d273ab7ceULL},
    {0x0000000000000000ULL, 0u, 0xaad884024002aed7ULL},
    {0x0000000000000000ULL, 0u, 0xae9a6e259a77ec90ULL},
    {0x1c96120b475aa2b6ULL, 25215u, 0xe84707e29104e3e3ULL},
    {0x0000000000000000ULL, 0u, 0x32c28c63049887e4ULL},
    {0x0000000000000000ULL, 0u, 0x407ba56a5aa8a3ecULL},
    {0x0000000000000000ULL, 0u, 0x2403fafce1ec55a5ULL},
    {0x74a437ed041fc6d5ULL, 28093u, 0x7f55f88fca1f5969ULL},
    {0x0000000000000000ULL, 0u, 0x82883cfeed262386ULL},
    {0x0000000000000000ULL, 0u, 0x5285e64a8f9fa0c1ULL},
    {0x0000000000000000ULL, 0u, 0xea6fca1f9caa38f4ULL},
    {0xd60b808a526ba6fdULL, 15413u, 0x19d64e4f18faa84fULL},
    {0x0000000000000000ULL, 0u, 0x2ff727cbd2664e01ULL},
    {0x0000000000000000ULL, 0u, 0x994fe9998a66836eULL},
    {0x0000000000000000ULL, 0u, 0xfb36e322043c5d7cULL},
    {0x845beb0a36f2a232ULL, 41128u, 0x9f3fcc248e714359ULL},
    {0x0000000000000000ULL, 0u, 0x6134e9082cc19e56ULL},
    {0x0000000000000000ULL, 0u, 0x1c8f3596c5abc064ULL},
    {0x0000000000000000ULL, 0u, 0x3fe09a89d2fe1a6cULL},
    {0x83c95cf9a46fb83dULL, 28776u, 0x33fa52ad16fb5f99ULL},
    {0x0000000000000000ULL, 0u, 0x3e5120149c535552ULL},
    {0x0000000000000000ULL, 0u, 0xe0eb6d8d523e323fULL},
    {0x0000000000000000ULL, 0u, 0x3da6fe3ceaee7dc0ULL},
    {0x487a8622804ac9e6ULL, 11546u, 0x5634928fbe4ef05dULL},
    {0x0000000000000000ULL, 0u, 0xc14435b89f7b6218ULL},
    {0x0000000000000000ULL, 0u, 0x46948f502520b54eULL},
    {0x0000000000000000ULL, 0u, 0xd9c9595f341cc5beULL},
    {0xd948a1f0d30135adULL, 36934u, 0x8d641a4378debf4fULL},
    {0x0000000000000000ULL, 0u, 0xc7e406b91a5b3ce8ULL},
    {0x0000000000000000ULL, 0u, 0xd96406161b903cb9ULL},
    {0x0000000000000000ULL, 0u, 0xd4d1a98af17d06bfULL},
    {0x6dfddc57c8b98886ULL, 23933u, 0x396e85240ebbcd0cULL},
    {0x0000000000000000ULL, 0u, 0x6815d5dcb0a70c8bULL},
    {0x0000000000000000ULL, 0u, 0x5bffc5a7cd97d82dULL},
    {0x0000000000000000ULL, 0u, 0x0cc292748851b358ULL},
    {0xc5ba3da05ab8713fULL, 3836u, 0x3ea567ae3b2360daULL},
    {0x0000000000000000ULL, 0u, 0x21131f76e4a167c2ULL},
    {0x0000000000000000ULL, 0u, 0xec2c011158f3226cULL},
    {0x0000000000000000ULL, 0u, 0x94ec77982a4c28c1ULL},
    {0x3e4cb75d02b11612ULL, 23689u, 0x99c31b47478d4921ULL},
    {0x0000000000000000ULL, 0u, 0xcb69bf016fa59934ULL},
    {0x0000000000000000ULL, 0u, 0x6eea3b79240c5900ULL},
    {0x0000000000000000ULL, 0u, 0x8177fdc2c5a8b090ULL},
    {0xd55d4b71e0d86775ULL, 52835u, 0x94e754f70f1ce3a2ULL},
    {0x0000000000000000ULL, 0u, 0xd6ef5e452a044838ULL},
    {0x0000000000000000ULL, 0u, 0x41853adf77e513ceULL},
    {0x0000000000000000ULL, 0u, 0xb239c77df087cbc9ULL},
    {0xc3916fef0935d88cULL, 98478u, 0x7a285a406aaadc54ULL},
    {0x0000000000000000ULL, 0u, 0x622a9084d8352f6eULL},
    {0x0000000000000000ULL, 0u, 0xfc3582868316639dULL},
    {0x0000000000000000ULL, 0u, 0x60cdf8ebe3cd8a82ULL},
    {0x09358f9b7c0a3a3eULL, 21377u, 0x90e2bf1ddc7a494eULL},
    {0x0000000000000000ULL, 0u, 0x5b0f90b26cd99cccULL},
    {0x0000000000000000ULL, 0u, 0x9e9d97cec4db871cULL},
    {0x0000000000000000ULL, 0u, 0x5fe0387b08e8c286ULL},
    {0x220ad850c8f435eeULL, 9929u, 0x7dad00200b474395ULL},
    {0x0000000000000000ULL, 0u, 0xf984b301b10046a0ULL},
    {0x0000000000000000ULL, 0u, 0x57c904356f954df0ULL},
    {0x0000000000000000ULL, 0u, 0xaa1027ce57fd7e67ULL},
    {0xf88465236d666893ULL, 77237u, 0x729c9ec069725267ULL},
    {0x0000000000000000ULL, 0u, 0xc3cda750c5a7d618ULL},
    {0x0000000000000000ULL, 0u, 0xa5f791bd35333e36ULL},
    {0x0000000000000000ULL, 0u, 0xae17fcc47a7d4e56ULL},
    {0x18ac19f52508251cULL, 34538u, 0xd396c513bbb9e79cULL},
    {0x0000000000000000ULL, 0u, 0x3980de5e67828827ULL},
    {0x0000000000000000ULL, 0u, 0x78155796106bb71bULL},
    {0x0000000000000000ULL, 0u, 0x312225723fcf973bULL},
    {0x03d6db914926e093ULL, 44045u, 0xa8b210823f5e0a99ULL},
    {0x0000000000000000ULL, 0u, 0xbf2c406a50734bf0ULL},
    {0x0000000000000000ULL, 0u, 0x1e193a987fe073adULL},
    {0x0000000000000000ULL, 0u, 0xbceddb9f2faeae77ULL},
    {0xe20ef5f93ced69d9ULL, 56026u, 0xa46af6344009ff1bULL},
    {0x0000000000000000ULL, 0u, 0xa3a5d982e80771bfULL},
    {0x0000000000000000ULL, 0u, 0x41c89f1f6c0c6332ULL},
    {0x0000000000000000ULL, 0u, 0xeb6c32951362f269ULL},
    {0x58f82bb7ea58bfd7ULL, 43438u, 0x02736566835dab3cULL},
    {0x0000000000000000ULL, 0u, 0x0f76006c0e50ad3eULL},
    {0x0000000000000000ULL, 0u, 0x17faa5d7d806467dULL},
    {0x0000000000000000ULL, 0u, 0x8ecbcefea7f17884ULL},
    {0x1ac53bac4ff6708cULL, 35102u, 0x9e4ae2ac5c1f8320ULL},
    {0x0000000000000000ULL, 0u, 0x9bea91798620e814ULL},
    {0x0000000000000000ULL, 0u, 0x56f9332bc34b3842ULL},
    {0x0000000000000000ULL, 0u, 0x11371d3a0dc3a5a0ULL},
    {0x55cb63edf7b069d5ULL, 29156u, 0x75c35b2b36a7acfaULL},
    {0x0000000000000000ULL, 0u, 0xbdeeb5fd688acac7ULL},
    {0x0000000000000000ULL, 0u, 0xdf5e170fb8afaf58ULL},
    {0x0000000000000000ULL, 0u, 0xdaf0af76b0ba779eULL},
    {0x7cb7b5f1099cec85ULL, 5225u, 0x4553ad2df9f5b0cbULL},
    {0x0000000000000000ULL, 0u, 0xcc3b7244ff6d3f61ULL},
    {0x0000000000000000ULL, 0u, 0x1dc4ce1adcf615b1ULL},
    {0x0000000000000000ULL, 0u, 0xf19bf68a235e9d0dULL},
    {0x6741a59364f7692bULL, 37337u, 0xa603b0f1dee39fa9ULL},
    {0x0000000000000000ULL, 0u, 0x35b8bdec807efe31ULL},
    {0x0000000000000000ULL, 0u, 0x7a74e6888482bd47ULL},
    {0x0000000000000000ULL, 0u, 0x64fc3ecb4a102758ULL},
    {0x17393033ece4450aULL, 27059u, 0x063d84f574cddc9eULL},
    {0x0000000000000000ULL, 0u, 0x6e0946e00e4f2e5eULL},
    {0x0000000000000000ULL, 0u, 0x328f84cd80775205ULL},
    {0x0000000000000000ULL, 0u, 0xae436e8dc2e87f0eULL},
    {0xf270b6bb5cc24b5dULL, 40285u, 0xcc1e8422ed0d4479ULL},
    {0x0000000000000000ULL, 0u, 0xaf306602adba2ef0ULL},
    {0x0000000000000000ULL, 0u, 0x81917705617bbd13ULL},
    {0x0000000000000000ULL, 0u, 0x8fe969d95cac05e9ULL},
    {0xd4141040fb187d37ULL, 11744u, 0xd601045e3b170238ULL},
    {0x0000000000000000ULL, 0u, 0xca5b1a32d94f78ecULL},
    {0x0000000000000000ULL, 0u, 0xd252e9b185fd1c32ULL},
    {0x0000000000000000ULL, 0u, 0xcef550ada7492018ULL},
    {0x03c176e035bae16bULL, 21855u, 0xa213b84da0d1b907ULL},
    {0x0000000000000000ULL, 0u, 0x62bc6608671eae9bULL},
    {0x0000000000000000ULL, 0u, 0xc5d24137d99a915eULL},
    {0x0000000000000000ULL, 0u, 0x67b4702cc402a4beULL},
    {0x307a78221046d596ULL, 58294u, 0xb98d056e586cdbd3ULL},
    {0x0000000000000000ULL, 0u, 0xaed52ae9e4eb4d90ULL},
    {0x0000000000000000ULL, 0u, 0x406698f58528e402ULL},
    {0x0000000000000000ULL, 0u, 0xbd7177842bc7f319ULL},
    {0x6e503c9f8ba205acULL, 6966u, 0x37d5d6a9d2e3ebfdULL},
    {0x0000000000000000ULL, 0u, 0x6961c4d00cb0fb8fULL},
    {0x0000000000000000ULL, 0u, 0xa01ecf3abf52e9cfULL},
    {0x0000000000000000ULL, 0u, 0x127a8cc909c65203ULL},
    {0x567c90de2df4f658ULL, 50154u, 0xbda1c2b85459b024ULL},
    {0x0000000000000000ULL, 0u, 0xb27e1d35a46369eaULL},
    {0x0000000000000000ULL, 0u, 0x2ca164bc0dc030faULL},
    {0x0000000000000000ULL, 0u, 0x2d758de9a2185f72ULL},
    {0x11b8c702628d03eeULL, 29616u, 0x14142f8e12e01842ULL},
    {0x0000000000000000ULL, 0u, 0xf857529a08a98818ULL},
    {0x0000000000000000ULL, 0u, 0xd252e9b185fd1c32ULL},
    {0x0000000000000000ULL, 0u, 0xdbf35af148855ff3ULL},
    {0x3c1809c1ce5d2d25ULL, 7230u, 0xfead66fab80c57c9ULL},
    {0x0000000000000000ULL, 0u, 0x3de1d39d22d1201aULL},
    {0x0000000000000000ULL, 0u, 0x66c2388e129ec98bULL},
    {0x0000000000000000ULL, 0u, 0x6cbbc7e57be7172eULL},
    {0x99a8737b76b6b328ULL, 38285u, 0xded2d1140d2bcbc0ULL},
    {0x0000000000000000ULL, 0u, 0xa95525f1c90f25a9ULL},
    {0x0000000000000000ULL, 0u, 0x8ef3ae50d2f11281ULL},
    {0x0000000000000000ULL, 0u, 0x8796babdf21e8aeeULL},
    {0x21dc948413584657ULL, 7677u, 0xdab7ce47392c512cULL},
    {0x0000000000000000ULL, 0u, 0x943e7cb5284ea942ULL},
    {0x0000000000000000ULL, 0u, 0x4f7a15bb77f521f6ULL},
    {0x0000000000000000ULL, 0u, 0xf4c6ff463b42e077ULL},
    {0x269550f0c7ee0fb7ULL, 4623u, 0x0bdad4de38c3402aULL},
    {0x0000000000000000ULL, 0u, 0xa48462f5473195e6ULL},
    {0x0000000000000000ULL, 0u, 0xd0fd4ad89bb3ff06ULL},
    {0x0000000000000000ULL, 0u, 0xb86af9161df2d3e8ULL},
    {0x1aa5f347a99427a0ULL, 6823u, 0x7b34a205d7a451e0ULL},
    {0x0000000000000000ULL, 0u, 0x0dcf3b8325cfe4eaULL},
    {0x0000000000000000ULL, 0u, 0x91353dbc6a7de48cULL},
    {0x0000000000000000ULL, 0u, 0x72734e5b019fb992ULL},
    {0x990caff9bc173c7bULL, 20611u, 0x68a36d608796805bULL},
    {0x0000000000000000ULL, 0u, 0x1e77d71cd33ceadeULL},
    {0x0000000000000000ULL, 0u, 0x2f769652368847a7ULL},
    {0x0000000000000000ULL, 0u, 0x55b7434d5050b006ULL},
    {0x95a29d89388bbe92ULL, 15217u, 0x8656f25b6a7f070eULL},
    {0x0000000000000000ULL, 0u, 0x28dc5e53c72c4252ULL},
    {0x0000000000000000ULL, 0u, 0x1e3733194ba82745ULL},
    {0x0000000000000000ULL, 0u, 0x839af0747fd7b7fdULL},
    {0x0d6b4297945b7143ULL, 56016u, 0xcc70f286e8a470adULL},
    {0x0000000000000000ULL, 0u, 0x4f21196bed3af151ULL},
    {0x0000000000000000ULL, 0u, 0xb553c32d1ab69d2eULL},
    {0x0000000000000000ULL, 0u, 0x2f9172bdfae65e91ULL},
};

const Golden kWorkload[] = {
    {0x20d4bbf941e37161ULL, 7289094u, 0x2384ac68d373f203ULL},
    {0xfbe598edc05fe62fULL, 6779838u, 0xdf21f084c7b50a89ULL},
};

const Golden kFaulty[] = {
    {0xe9b337b7f7335f06ULL, 41940u, 0x3f0cc5f9ab0de710ULL},
    {0x6adce614e67d4d1eULL, 10251u, 0x6530d0294312cde9ULL},
    {0x4fa0482f36c969f9ULL, 21692u, 0xc8f4a4df5df2dceaULL},
    {0x1144db68977c350aULL, 22951u, 0x69cb033c96a20276ULL},
    {0x2c6a903854c90f78ULL, 22602u, 0x5a4dfcb5b2689b52ULL},
    {0x46a5f6a74b119fc5ULL, 27076u, 0x250c008660e6db2bULL},
    {0xe56fe49fe46f749dULL, 16262u, 0xc37304fa59f53f69ULL},
    {0x88034dbda2ac86edULL, 23747u, 0xafaa01ad0f755131ULL},
    {0xc1aa4d48ad6c3653ULL, 6425u, 0x554e14310f15973eULL},
    {0x2cae1f7794a96f07ULL, 11807u, 0xdd5512cd19f6a952ULL},
    {0x679d4bb40b2bc491ULL, 35567u, 0xf1af506405082e98ULL},
    {0x2027d962b03e0485ULL, 5245u, 0xd22cc3f097d2b7afULL},
    {0x31e6f212767a6b6aULL, 14545u, 0x3dca5934b4ea4917ULL},
    {0xa5b747b475853f8eULL, 11032u, 0x528b102c7df89d4bULL},
    {0xd41bcd7f79dcc60fULL, 27603u, 0x3f34c7909c8ad911ULL},
    {0x331c93435d1f4edbULL, 22881u, 0x49354cb94dece937ULL},
    {0xb125c973cc42faddULL, 17631u, 0xf5dc58ae104e1177ULL},
    {0xe17d227f94812964ULL, 48170u, 0xfbc1dac3f302a444ULL},
    {0x7f7779dd7ec97dc8ULL, 21318u, 0x95686eebb23bcb78ULL},
    {0xdf02ab45e8b9205bULL, 19336u, 0x12fc3cb801f9bb90ULL},
    {0xf27953ccaa2d7e86ULL, 21848u, 0x84023b28ef04f3a4ULL},
    {0xc9ed0586b7231c5cULL, 33916u, 0x17344c5dc23c5139ULL},
    {0x65bd396921efa3c5ULL, 9113u, 0x40fea79e4b5b192dULL},
    {0x99544b5e54ad58a6ULL, 7030u, 0xdc8a4ea88ba3aa9cULL},
    {0xc9ff0978d3ac4f8aULL, 28201u, 0xe71e34750dc39ab1ULL},
    {0x16d58c83d761a4cdULL, 12242u, 0xf93ca6fb957ab943ULL},
    {0xb6c7e88f077ae5ebULL, 15169u, 0x494bd3b49a9e1ac7ULL},
    {0x9b9c73c6a0c4a274ULL, 33506u, 0xbf0a062495db377fULL},
    {0x005a17e4cc79edc0ULL, 185350u, 0x1cddb17b22f7bd49ULL},
    {0xe47e3f2525096b65ULL, 36505u, 0xe6e89b90f1f105d0ULL},
    {0x865904d974dbc596ULL, 1145947u, 0xc83ffd1f19344a10ULL},
    {0x0e14347ff1c72323ULL, 366884u, 0xf4e9193e2f27668eULL},
    {0x46024f690f006923ULL, 49518u, 0x5902a4db1da2b317ULL},
    {0x715fbfbc3cbad3f7ULL, 9112u, 0x65a3419af9d24a73ULL},
    {0xeda8f319fb65baf4ULL, 17780u, 0x8c79400d011f9ab6ULL},
    {0x9b23bf9542288cd3ULL, 4723u, 0x507cec46e3e6ffadULL},
    {0xc317c6430dff47a8ULL, 11732u, 0x8d19c64d8ad5b050ULL},
    {0x96bc3fd88c0db012ULL, 16587u, 0x4477f8b98a6267a9ULL},
    {0x5ee3654af372a05bULL, 1149624u, 0x61e938ecccefbeaaULL},
    {0x7d0c83da9c561878ULL, 7249u, 0xb972c7b7dd25cd1aULL},
    {0x7b70a0b7a513ce20ULL, 16356u, 0x9956999fa8c5b303ULL},
    {0x9004485f0ee56419ULL, 687881u, 0xecdf63b399a6f992ULL},
    {0xc1f9c738d986b8e7ULL, 33777u, 0xa00cbf88bc5073bdULL},
    {0x533829f974b3638cULL, 168412u, 0x7202654674741878ULL},
    {0xf1fa42737f3c190dULL, 47940u, 0xd5c33fd6d22b35f5ULL},
    {0xffca90a853c202c1ULL, 28153u, 0x10f325e40a86dcb1ULL},
    {0x778f5c772b5b2e7bULL, 15652u, 0x15f8fe7d67f6e668ULL},
    {0x4a828de74fedd676ULL, 26186u, 0xea53c59a8e02b574ULL},
    {0x4a6503b682e05800ULL, 8797u, 0xdc9f1e0b6604d74fULL},
    {0xdbf3d32f860f65daULL, 13608u, 0x9f7c990d60fe6735ULL},
    {0xe581a37dd70f4ed8ULL, 29049u, 0x3271a0841abc5e8aULL},
    {0x34b06d988a1a7b03ULL, 25449u, 0xf5b7b2df6028f6f8ULL},
    {0xdb39a0d1691ace7eULL, 19293u, 0x8151a577ef5de68eULL},
    {0xe1684b08112bf259ULL, 10326u, 0xa107141c83ec53a6ULL},
    {0xb5dc2bb4ca339e02ULL, 932493u, 0x58c8e7a093ca5678ULL},
    {0x20d2da0c2e349b22ULL, 15359u, 0xce0a332b4999dc12ULL},
    {0x6b4aea0b16532725ULL, 19862u, 0x50b8497ca5c82fd2ULL},
    {0xff84357f66f0cb84ULL, 21680u, 0x92a1c9272f05bdeeULL},
    {0x93344b99dc0404fdULL, 8395u, 0xf8531f0e4f9b3137ULL},
    {0x2a361d3a94c1574cULL, 7642u, 0x402c036e4425dffdULL},
    {0x9d475ede5c0c8656ULL, 6247u, 0x21ec714deb5f6a46ULL},
    {0x398fb122e2598496ULL, 47728u, 0xf1078836d4fe6353ULL},
    {0x210cc4323f7980a2ULL, 171521u, 0xec7676f1008a97afULL},
    {0xf950aff22f0172acULL, 34360u, 0x2c66011cc7b0ea0cULL},
    {0xade7d9bf7d5e5328ULL, 682781u, 0xdfffbc4e8993399cULL},
    {0xab22282a0ad0928cULL, 11242u, 0x694d533f2c3b88aeULL},
    {0xc841436436ea7517ULL, 4584159u, 0x15202b1ba54ff66dULL},
    {0xf48cadac8fa7bb68ULL, 6198u, 0x40a4e738490f5ab7ULL},
    {0x7a09114a43e42ba9ULL, 694763u, 0x438195aa6aa6a722ULL},
    {0xcaa84cae3fa51b4bULL, 31412u, 0x3e72ecc7678a6ff5ULL},
    {0x162d344575b88de7ULL, 19867u, 0x012b367fa705306cULL},
    {0xf2d9b3bf83e563f1ULL, 17127u, 0xdcc5bb5a1f683f4fULL},
    {0x43296b349c3c0ad3ULL, 60284u, 0xf9f53eec35487112ULL},
    {0x8e8ec867218f677eULL, 20880u, 0x3801a779befc8d5aULL},
    {0x2c867ae931365ab0ULL, 22432u, 0x218e95f27ba1b8c8ULL},
    {0x489120aee2788661ULL, 25908u, 0xc3f1d68020f12d7dULL},
    {0x8c0817cd6de5753bULL, 18786u, 0xca3cb3e874fe9ab6ULL},
    {0x417bcb6e56e0596aULL, 15099u, 0xac96473eacbcb751ULL},
    {0x4005de0476e1529cULL, 12271u, 0xa57bbad643af6629ULL},
    {0x005e815f856c813fULL, 21312u, 0xda891f8ba81c0f54ULL},
    {0xefe8d4f3820758c3ULL, 30595u, 0x2f441ef9542ccd31ULL},
    {0x757726c51335a59cULL, 30476u, 0xe57543cf1d610a71ULL},
    {0xd26f8a5e893d4504ULL, 22994u, 0xa5905bf3118faf68ULL},
    {0x93e51181b81486bdULL, 14674u, 0x79b9e1bd96646ccaULL},
    {0xb559aae1ae009b8eULL, 40368u, 0xd5a254a235a436f6ULL},
    {0x6bba72500c316f6dULL, 7327u, 0xef38b5ec839ef42bULL},
    {0x464886c4febb461fULL, 14883u, 0x493614918de0d851ULL},
    {0x7ba82ec5d47ab627ULL, 6161u, 0x2a63cc2a80f9e3a9ULL},
    {0x40f394ecaa184e54ULL, 30011u, 0x3751c1844ed53b34ULL},
    {0xe8ae6b5ed238a01cULL, 19498u, 0xf1db5f6c19b5aba8ULL},
    {0x6a5db540500ca942ULL, 17747u, 0x2fb1cabdfeac9d32ULL},
    {0x890b135ec0ad55c2ULL, 18545u, 0xbe231e72e138f8e4ULL},
    {0x42052a464230a623ULL, 697415u, 0x721b2ba1d4f15866ULL},
    {0x3784e0029ccb2ca2ULL, 35817u, 0xee226719643da9cbULL},
    {0xc438fd77206f4122ULL, 31479u, 0x6f566128bcff20bbULL},
    {0xb7c3b5ffc41d9b99ULL, 25826u, 0x790ffcf07adf33cbULL},
    {0x88bbc459079a0861ULL, 24244u, 0xaed0200d22373164ULL},
    {0xe6cc95ad7327c286ULL, 37315u, 0x659ae4cee56dae15ULL},
    {0x5daa5cffbb60320bULL, 15962u, 0x7811578e4db5fc76ULL},
    {0x54cc2d3495d46dfeULL, 21342u, 0x67eac89a5d3890d6ULL},
};

} // namespace

TEST(FirmwareGolden, TwoHundredRandomizedScenarios)
{
    expectGolden(randomizedCells(), kRandomized, std::size(kRandomized));
}

TEST(FirmwareGolden, WorkloadMix)
{
    const std::vector<GoldenCell> cells = workloadCells();
    expectGolden(cells, kWorkload, std::size(kWorkload));
    // Without the waveform the same cells take the data-phase
    // fast-forward: the same digests, and the same record model costs
    // aside, for fewer kernel events than the edge engine spends.
    for (std::size_t i = 0; i < cells.size(); ++i) {
        sweep::ScenarioSpec spec = cells[i].spec;
        spec.captureVcd = false;
        sweep::ScenarioSpec edge = spec;
        edge.fidelity = sweep::Fidelity::Edge;
        const sweep::ScenarioStats a =
            sweep::runScenario(spec, cells[i].seed);
        const sweep::ScenarioStats b =
            sweep::runScenario(edge, cells[i].seed);
        SCOPED_TRACE(spec.name);
        EXPECT_EQ(observableDigest(a), kWorkload[i].digest);
        EXPECT_EQ(observableDigest(b), kWorkload[i].digest);
        EXPECT_TRUE(test::sameRecord(a, b, test::Except::ModelCosts));
        EXPECT_LT(a.eventsExecuted, b.eventsExecuted);
    }
}

TEST(FirmwareGolden, FaultySoftwareMemberCells)
{
    FaultTotals totals =
        expectGolden(faultyCells(), kFaulty, std::size(kFaulty));
    // The recipe really exercises the fault and recovery paths.
    EXPECT_EQ(totals.faultEvents, 463);
    EXPECT_EQ(totals.busResets, 39u);
}
