/**
 * @file
 * Tests for the benchmark's own arithmetic: the percentile reporting
 * rule, recovering wire bits from events/bit, failure counting, the
 * reference format, and per-fabric splitting (the per-fabric sweeps
 * must merge back into the whole-grid fingerprint).
 *
 * Build and run: python3 perfbench/run.py --selftest
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hh"
#include "sim/random.hh"

using namespace perfbench;

namespace {

int failures = 0;

#define CHECK(cond)                                                      \
    do {                                                                 \
        if (!(cond)) {                                                   \
            std::printf("FAIL %s:%d: %s\n", __FILE__, __LINE__, #cond);  \
            ++failures;                                                  \
        }                                                                \
    } while (0)

void
percentileRule()
{
    CHECK(samplesBeyond(1000, 0.99) == 10);
    CHECK(percentileReportable(1000, 0.99));
    CHECK(!percentileReportable(999, 0.99));
    CHECK(!percentileReportable(120, 0.99));
    CHECK(percentileReportable(4000, 0.99));
    CHECK(samplesBeyond(120, 0.90) == 12);
    CHECK(percentileReportable(104, 0.90));
    CHECK(!percentileReportable(99, 0.90));
    CHECK(samplesBeyond(0, 0.5) == 0);
    CHECK(samplesBeyond(1, 0.5) == 0);

    std::vector<double> v;
    for (int i = 100; i >= 1; --i)
        v.push_back(i);
    CHECK(percentile(v, 0.50) == 50);
    CHECK(percentile(v, 0.90) == 90);
    CHECK(percentile(v, 0.99) == 99);
    CHECK(median({3, 1, 2}) == 2);
    CHECK(median({4, 1, 3, 2}) == 2.5);
    CHECK(median({}) == 0);

    std::vector<double> walls(99, 1.0);
    walls.push_back(100.0);
    CHECK(stragglerShare(walls) == 100.0 / 199.0);

    // The tail left out of the gated throughput: ceil(1%) of the cells,
    // slowest first.
    std::vector<bool> keep = outsideSlowest(walls, kTailFrac);
    CHECK(!keep[99]);
    CHECK(std::count(keep.begin(), keep.end(), false) == 1);
    walls.push_back(50.0); // 101 cells: ceil(1.01) = 2 left out.
    keep = outsideSlowest(walls, kTailFrac);
    CHECK(!keep[99] && !keep[100]);
    CHECK(std::count(keep.begin(), keep.end(), false) == 2);
    CHECK(outsideSlowest({}, kTailFrac).empty());
}

void
bitsFromEventsPerBit()
{
    mbus::sim::Random rng(42);
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t bits = 1 + rng.below(1ull << 32);
        std::uint64_t events = bits * (1 + rng.below(20)) + rng.below(bits);
        double epb = static_cast<double>(events) / static_cast<double>(bits);
        if (recoverBits(events, epb) != bits) {
            CHECK(recoverBits(events, epb) == bits);
            break;
        }
    }
    CHECK(recoverBits(12345, 0.0) == 0);
}

void
failureCounting()
{
    ScenarioSpec clean;
    ScenarioStats ok;
    ok.planned = 5;
    ok.acked = 3;
    ok.interrupted = 1;
    ok.failed = 1;
    CHECK(checkCell(clean, ok) == 0);

    ScenarioStats lost = ok;
    lost.acked = 2;
    CHECK(checkCell(clean, lost) == kOutcomeSum);

    ScenarioStats wedged = ok;
    wedged.wedged = true;
    CHECK(checkCell(clean, wedged) == kWedged);

    // A mismatch is a failure unless a transaction its sender saw end
    // without an ACK accounts for it.
    ScenarioStats corrupt = ok;
    corrupt.payloadMismatches = 2;
    CHECK(checkCell(clean, corrupt) == 0);
    corrupt.payloadMismatches = 3;
    CHECK(checkCell(clean, corrupt) == kMismatch);
    ScenarioStats silent;
    silent.planned = 2;
    silent.acked = 2;
    silent.payloadMismatches = 1;
    CHECK(checkCell(clean, silent) == kMismatch);
    ScenarioStats naked = silent;
    naked.acked = 1;
    naked.naked = 1;
    CHECK(checkCell(clean, naked) == 0);

    // Under injected faults a corrupted payload, or a wedge that leaves
    // messages without a terminal status, is an expected simulated
    // outcome, not a benchmark failure; a miscount still is.
    ScenarioSpec faulty;
    mbus::fault::FaultEntry e;
    faulty.faults.entries.push_back(e);
    CHECK(checkCell(faulty, corrupt) == 0);
    ScenarioStats stuck = lost;
    stuck.wedged = true;
    CHECK(checkCell(faulty, stuck) == 0);
    CHECK(checkCell(clean, stuck) == (kOutcomeSum | kWedged));
    CHECK(checkCell(faulty, lost) == kOutcomeSum);
    ScenarioStats over = ok;
    over.acked = 4;
    over.wedged = true;
    CHECK(checkCell(faulty, over) == kOutcomeSum);

    Tally t;
    t.add(0);
    t.add(kOutcomeSum | kWedged); // Two reasons, one failed cell.
    t.add(0);
    t.add(kReplay);
    CHECK(t.attempted == 4);
    CHECK(t.failed == 2);
    CHECK(t.failedFrac() == 0.5);
    CHECK(t.reasons == (kOutcomeSum | kWedged | kReplay));
}

/** A small five-fabric grid: the first cells of each faulty range. */
Grid
smallFaultyGrid()
{
    Grid big = makeGrid("faulty_grid", kDefaultSeed);
    std::vector<ScenarioSpec> cells;
    for (const FabricRange &r : big.ranges) {
        for (std::size_t i = 0; i < 4; ++i)
            cells.push_back(big.cells[r.first + i]);
    }
    return groupByFabric(cells);
}

void
perFabricSplitting()
{
    Grid g = smallFaultyGrid();
    CHECK(g.ranges.size() == 5);
    std::size_t next = 0;
    for (const FabricRange &r : g.ranges) {
        CHECK(r.first == next);
        for (std::size_t i = r.first; i < r.first + r.count; ++i)
            CHECK(g.cells[i].backend == r.kind);
        next += r.count;
    }
    CHECK(next == g.cells.size());

    const std::uint64_t seed = 7;
    Round round = runRound(g, seed);
    CHECK(round.cells.size() == g.cells.size());
    CHECK(round.sweeps.size() == g.ranges.size());

    mbus::sweep::SweepConfig cfg;
    cfg.masterSeed = seed;
    cfg.threads = 1;
    mbus::sweep::SweepResult whole =
        mbus::sweep::SweepDriver(cfg).run(g.cells);
    mbus::sweep::SweepResult merged =
        mbus::sweep::SweepResult::fromCells(cfg, round.cells);
    CHECK(merged.fingerprint() == whole.fingerprint());

    // Each per-fabric sweep is the matching slice of the whole grid.
    for (std::size_t k = 0; k < g.ranges.size(); ++k) {
        const FabricRange &r = g.ranges[k];
        std::vector<CellResult> slice(whole.cells().begin() + r.first,
                                      whole.cells().begin() + r.first +
                                          r.count);
        CHECK(mbus::sweep::SweepResult::fromCells(cfg, slice)
                  .fingerprint() == round.sweeps[k].fingerprint);
    }

    // Check accounting over the round: all cells pass, and the stored
    // reference format round-trips and catches a changed outcome.
    Tally t;
    checkRound(g, round, nullptr, t);
    CHECK(t.attempted == g.cells.size());
    CHECK(t.failed == 0);

    std::string path = "perfbench_selftest_reference.tsv";
    CHECK(writeReference(path, round));
    Reference ref;
    CHECK(loadReference(path, ref));
    std::remove(path.c_str());
    Tally pinned;
    checkRound(g, round, &ref, pinned);
    CHECK(pinned.failed == 0);

    Reference bumped = ref;
    bumped.outcomes[0].switchingJ *= 1 + 0.1 * kEnergyRelTol;
    Tally within;
    checkRound(g, round, &bumped, within);
    CHECK(within.failed == 0);
    bumped.outcomes[0].switchingJ *= 1 + 10 * kEnergyRelTol;
    Tally beyond;
    checkRound(g, round, &bumped, beyond);
    CHECK(beyond.failed == 1);
    CHECK(beyond.reasons == kReference);
}

} // namespace

int
main()
{
    percentileRule();
    bitsFromEventsPerBit();
    failureCounting();
    perFabricSplitting();
    if (failures) {
        std::printf("perfbench_selftest: %d check(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench_selftest: all checks passed\n");
    return 0;
}
