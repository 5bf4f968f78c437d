/**
 * @file
 * The content-addressed cell cache behind SweepConfig::cacheDir.
 *
 * A sweep cell is a pure function of (spec, seed, harness version):
 * the simulator is deterministic, so running the same spec with the
 * same seed on the same code always produces the same ScenarioStats.
 * That makes cells cacheable by content. The key is FNV-1a over the
 * canonical spec serialization (sweep/codec.hh encodeSpec), the cell
 * seed, and a harness-version salt; the value is the encodeStats()
 * bytes, one file per cell under the cache directory.
 *
 * The salt is the invalidation lever: any change that can alter
 * simulated physics bumps kHarnessVersionSalt, every old key stops
 * resolving, and stale entries are simply never read again (they are
 * inert files, not wrong answers). A corrupt or truncated value file
 * decodes as a miss, so the cache can never poison a sweep -- the
 * worst case is re-simulating a cell.
 *
 * Writes go through sim::atomicWriteFile, so a value file is either
 * absent or complete. A sweep killed at any point therefore resumes
 * when it is re-run on the same directory: every cell stored before
 * the kill is served, the rest are simulated.
 */

#ifndef MBUS_SWEEP_CACHE_HH
#define MBUS_SWEEP_CACHE_HH

#include <atomic>
#include <cstdint>
#include <string>

#include "sweep/scenario.hh"

namespace mbus {
namespace sweep {

/**
 * Bump on any change that alters simulated physics or the stats
 * codec; every cached cell from older harnesses then misses.
 * SweepCache.SaltPinsCachedStats fails until this and its pinned
 * stats hash move together.
 */
constexpr std::uint64_t kHarnessVersionSalt = 0x4d425553'0000000aULL;

/** The cache key for one cell: FNV-1a over canonical spec bytes,
 *  the cell seed, and the harness-version salt. */
std::uint64_t cellKey(const std::string &specBytes, std::uint64_t seed,
                      std::uint64_t salt = kHarnessVersionSalt);

/** On-disk content-addressed store of finished cells. */
class CellCache
{
  public:
    /** @param dir Cache directory (created with any missing parents);
     *         empty disables the cache (every lookup misses, stores
     *         drop).
     *  @param salt Harness-version salt folded into every key. */
    explicit CellCache(std::string dir,
                       std::uint64_t salt = kHarnessVersionSalt);

    bool enabled() const { return !dir_.empty(); }

    /** The key for a cell under this cache's salt. */
    std::uint64_t key(const std::string &specBytes,
                      std::uint64_t seed) const;

    /**
     * Look up a finished cell. A hit decodes the stored
     * encodeStats() payload into @p stats; anything unreadable or
     * malformed is a miss and leaves @p stats untouched.
     */
    bool lookup(std::uint64_t key, ScenarioStats &stats);

    /** Store a finished cell (encodeStats() bytes) under @p key.
     *  @return false (and counts a store failure) when the value
     *          file could not be written. */
    bool store(std::uint64_t key, const std::string &statsBytes);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }
    std::uint64_t storeFailures() const { return storeFailures_.load(); }

    /** The value-file path for @p key (16 lowercase hex + ".cell"). */
    std::string pathFor(std::uint64_t key) const;

  private:
    std::string dir_;
    std::uint64_t salt_;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> storeFailures_{0};
};

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_CACHE_HH
