/**
 * @file
 * Regenerates Figure 11: (a) total bus power vs clock frequency and
 * (b) energy per goodput bit vs payload length, for standard I2C,
 * Oracle I2C, and MBus (simulated and measured scales) at 2 and 14
 * nodes -- then (c) re-derives the comparison *dynamically* by
 * running one application mix through the shared backend harness on
 * every fabric (hardware MBus, transactional I2C std/oracle, and the
 * bit-banged mixed ring) and, given --out PATH, appends the measured
 * numbers to that file's runs[] trajectory.
 *
 * Usage: fig11_energy [--out PATH]
 */

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>

#include "analysis/energy_model.hh"
#include "baseline/i2c.hh"
#include "bench/bench_util.hh"
#include "sweep/sweep.hh"

using namespace mbus;
using namespace mbus::analysis;

int
main(int argc, char **argv)
{
    std::string outPath;
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--out") == 0)
            outPath = argv[i + 1];
    benchutil::banner(
        "Figure 11: Energy Comparisons (MBus vs I2C variants)",
        "Pannuto et al., ISCA'15, Fig 11a/11b + Sec 6.2");

    baseline::I2cModel std_i2c(50e-12, 1.2,
                               baseline::I2cSizing::Standard);
    auto oracle2 =
        baseline::I2cModel::forNodeCount(2, baseline::I2cSizing::Oracle);
    auto oracle14 = baseline::I2cModel::forNodeCount(
        14, baseline::I2cSizing::Oracle);

    benchutil::section("(a) Total bus power draw [uW] vs clock "
                       "frequency [MHz]");
    std::printf("%6s %12s %12s %12s %12s %12s %12s %12s\n", "MHz",
                "I2C@50pF", "Oracle14", "MBus14meas", "Oracle2",
                "MBus2meas", "MBus14sim", "MBus2sim");
    for (double mhz : {0.1, 0.4, 1.0, 2.0, 4.0, 6.0, 7.1, 8.0}) {
        double f = mhz * 1e6;
        std::printf(
            "%6.1f %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f %12.1f\n",
            mhz, std_i2c.totalPowerW(f) * 1e6,
            oracle14.totalPowerW(f) * 1e6,
            mbusPowerW(f, 14, EnergyScale::Measured) * 1e6,
            oracle2.totalPowerW(f) * 1e6,
            mbusPowerW(f, 2, EnergyScale::Measured) * 1e6,
            mbusPowerW(f, 14, EnergyScale::Simulated) * 1e6,
            mbusPowerW(f, 2, EnergyScale::Simulated) * 1e6);
    }
    std::printf("(Standard I2C rows above its ~1 MHz legal range "
                "extrapolate the fixed 300 ns rise sizing.)\n");

    benchutil::section("(b) Energy per goodput bit [pJ] vs payload "
                       "[bytes] at 400 kHz");
    std::printf("%6s %12s %12s %12s %12s %12s %12s %12s\n", "bytes",
                "I2C@50pF", "Oracle14", "MBus14meas", "Oracle2",
                "MBus2meas", "MBus14sim", "MBus2sim");
    for (std::size_t n = 1; n <= 12; ++n) {
        std::printf(
            "%6zu %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f %12.0f\n",
            n, std_i2c.energyPerGoodputBitJ(n, 400e3) * 1e12,
            oracle14.energyPerGoodputBitJ(n, 400e3) * 1e12,
            mbusEnergyPerGoodputBitJ(n, 14, false,
                                     EnergyScale::Measured) *
                1e12,
            oracle2.energyPerGoodputBitJ(n, 400e3) * 1e12,
            mbusEnergyPerGoodputBitJ(n, 2, false,
                                     EnergyScale::Measured) *
                1e12,
            mbusEnergyPerGoodputBitJ(n, 14, false,
                                     EnergyScale::Simulated) *
                1e12,
            mbusEnergyPerGoodputBitJ(n, 2, false,
                                     EnergyScale::Simulated) *
                1e12);
    }

    benchutil::section("Shape checks (paper claims)");
    bool sim_wins_everywhere = true;
    for (std::size_t n = 1; n <= 12; ++n) {
        if (mbusEnergyPerGoodputBitJ(n, 14, false,
                                     EnergyScale::Simulated) >=
            oracle14.energyPerGoodputBitJ(n, 400e3)) {
            sim_wins_everywhere = false;
        }
    }
    std::size_t meas_crossover = 0;
    for (std::size_t n = 1; n <= 12; ++n) {
        if (mbusEnergyPerGoodputBitJ(n, 14, false,
                                     EnergyScale::Measured) <
            oracle14.energyPerGoodputBitJ(n, 400e3)) {
            meas_crossover = n;
            break;
        }
    }
    std::printf("simulated MBus beats Oracle I2C at every length: "
                "%s (paper: yes)\n",
                sim_wins_everywhere ? "yes" : "NO");
    std::printf("measured MBus overtakes Oracle I2C from %zu bytes "
                "(paper: suffers only for 1-2 byte messages)\n",
                meas_crossover);
    std::printf("=> systems should coalesce short messages "
                "(Sec 6.2).\n");

    benchutil::section("Sec 2.1 pull-up decomposition (relaxed I2C, "
                       "50 pF, 400 kHz)");
    baseline::I2cModel relaxed(50e-12, 1.2,
                               baseline::I2cSizing::Oracle);
    std::printf("pull-up resistor:     %.1f kOhm (paper: 15.5)\n",
                relaxed.pullUpOhms(400e3) / 1e3);
    std::printf("charge dump:          %.0f pJ   (paper: 23)\n",
                relaxed.dumpEnergyJ() * 1e12);
    std::printf("resistor during rise: %.0f pJ   (paper: 35)\n",
                relaxed.chargeLossJ() * 1e12);
    std::printf("low-phase loss:       %.0f pJ  (paper: 116)\n",
                relaxed.lowPhaseLossJ(400e3) * 1e12);
    std::printf("clock power:          %.1f uW (paper: 69.6)\n",
                relaxed.clockPowerW(400e3) * 1e6);

    benchutil::section("(c) One workload, every fabric (shared "
                       "backend harness, sim scale)");
    std::vector<sweep::ScenarioSpec> grid;
    for (backend::BackendKind kind :
         {backend::BackendKind::Mbus, backend::BackendKind::I2cStd,
          backend::BackendKind::I2cOracle,
          backend::BackendKind::Bitbang}) {
        sweep::ScenarioSpec s = benchutil::canonicalWorkloadCell(
            /*nodes=*/3, /*clockHz=*/400e3, /*stormFrac=*/0.10,
            /*smoke=*/true);
        s.backend = kind;
        s.name = backend::backendKindName(kind);
        grid.push_back(std::move(s));
    }
    sweep::SweepResult result = sweep::SweepDriver().run(grid);

    std::printf("%-12s %14s %14s %14s %12s\n", "backend",
                "e/sample [J]", "lat_p50 [s]", "lat_p99 [s]",
                "lifetime [d]");
    bool healthy = true;
    for (const sweep::CellResult &c : result.cells()) {
        const sweep::ScenarioStats &s = c.stats;
        std::printf("%-12s %14.4e %14.4e %14.4e %12.2f\n",
                    c.spec.name.c_str(), s.energyPerSampleJ,
                    s.latencyP50S, s.latencyP99S, s.lifetimeDays);
        if (s.wedged || s.samplesDelivered == 0 ||
            s.payloadMismatches != 0)
            healthy = false;
    }
    const sweep::ScenarioStats &mb = result.cell(0).stats;
    const sweep::ScenarioStats &istd = result.cell(1).stats;
    const sweep::ScenarioStats &iora = result.cell(2).stats;
    const sweep::ScenarioStats &bb = result.cell(3).stats;
    bool ordering = mb.energyPerSampleJ < iora.energyPerSampleJ &&
                    iora.energyPerSampleJ < istd.energyPerSampleJ &&
                    istd.energyPerSampleJ < bb.energyPerSampleJ;
    std::printf("energy ordering MBus < Oracle I2C < standard I2C < "
                "bitbang: %s (paper: yes)\n",
                ordering ? "yes" : "NO");
    std::printf("MBus lifetime advantage over oracle I2C: %.1fx\n",
                iora.energyPerSampleJ / mb.energyPerSampleJ);

    std::ostringstream entry;
    entry << "{\"mode\": \"fig11_backends\", \"cells\": "
          << result.size();
    for (const sweep::CellResult &c : result.cells()) {
        const sweep::ScenarioStats &s = c.stats;
        entry << ", \"" << c.spec.name
              << "\": {\"energy_per_sample_j\": " << s.energyPerSampleJ
              << ", \"lat_p99_s\": " << s.latencyP99S
              << ", \"lifetime_days\": " << s.lifetimeDays
              << ", \"events_per_bit\": " << s.eventsPerBit << "}";
    }
    entry << "}";
    if (!outPath.empty()) {
        if (benchutil::appendRunEntry(outPath, entry.str()))
            std::printf("appended run entry to %s\n", outPath.c_str());
        else
            std::printf("WARN: could not update %s\n", outPath.c_str());
    }

    if (!healthy || !ordering) {
        std::printf("FIG11 BACKEND COMPARISON FAILED\n");
        return 1;
    }
    return 0;
}
