/**
 * @file
 * Canonical, byte-stable serialization of sweep cells.
 *
 * Two encoders with one framing:
 *
 *  - encodeSpec(): the *canonical* form of a ScenarioSpec -- every
 *    field (including the workload, fault, retry, and trace subtrees)
 *    in one fixed order, doubles in the 17-digit round-trip format.
 *    Two specs encode to identical bytes iff they describe identical
 *    cells, which is exactly what the content-addressed cell cache
 *    hashes (sweep/cache.hh: FNV-1a over spec bytes + seed + salt).
 *
 *  - encodeStats(): a complete round-trip of a ScenarioStats record,
 *    so a cell served from the cache yields the same CSV/JSON/
 *    fingerprint bytes as a freshly simulated one. decodeStats() of
 *    encodeStats() reproduces every field exactly -- doubles included
 *    (17 significant digits round-trip any IEEE-754 double).
 *
 * Framing: '|'-separated tokens; strings are percent-escaped so a
 * token never contains '|', '%', whitespace, or control bytes. Both
 * encodings carry a leading version tag ("spec1" / "stat1"); decoders
 * reject anything else, which is what lets a harness-version bump
 * invalidate stale cache entries safely.
 */

#ifndef MBUS_SWEEP_CODEC_HH
#define MBUS_SWEEP_CODEC_HH

#include <string>

#include "sweep/scenario.hh"

namespace mbus {
namespace sweep {

/** Percent-escape @p raw so it is one framing-safe token (no '|',
 *  '%', whitespace, or bytes outside printable ASCII). */
std::string escapeToken(const std::string &raw);

/** Invert escapeToken(). Invalid escapes decode as-is. */
std::string unescapeToken(const std::string &token);

/** Canonical serialization of every ScenarioSpec field. */
std::string encodeSpec(const ScenarioSpec &spec);

/** Parse encodeSpec() bytes. @return false (and leave @p out
 *  untouched) on version mismatch or malformed input. */
bool decodeSpec(const std::string &bytes, ScenarioSpec &out);

/** Complete serialization of a ScenarioStats record. */
std::string encodeStats(const ScenarioStats &stats);

/** Parse encodeStats() bytes. @return false (and leave @p out
 *  untouched) on version mismatch or malformed input. */
bool decodeStats(const std::string &bytes, ScenarioStats &out);

} // namespace sweep
} // namespace mbus

#endif // MBUS_SWEEP_CODEC_HH
