/**
 * @file
 * The one FNV-1a implementation in the harness.
 *
 * Every content fingerprint -- the sweep CSV fingerprint, per-cell
 * VCD hashes, protocol-trace hashes, and the content-addressed
 * cell-cache keys -- uses this 64-bit FNV-1a. Centralizing it means a
 * fingerprint printed by one subsystem can always be compared against
 * one computed by another, and the incremental Fnv1a hasher lets
 * multi-part keys (spec bytes + seed + version salt) be built without
 * concatenating buffers.
 */

#ifndef MBUS_SIM_HASH_HH
#define MBUS_SIM_HASH_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace mbus {
namespace sim {

constexpr std::uint64_t kFnvOffsetBasis = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** One-shot FNV-1a 64 over @p len bytes, chainable via @p basis. */
inline std::uint64_t
fnv1a(const void *data, std::size_t len,
      std::uint64_t basis = kFnvOffsetBasis)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = basis;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** One-shot FNV-1a 64 over a byte string. */
inline std::uint64_t
fnv1a(const std::string &bytes, std::uint64_t basis = kFnvOffsetBasis)
{
    return fnv1a(bytes.data(), bytes.size(), basis);
}

/**
 * Incremental FNV-1a 64: feed heterogeneous parts in a fixed order
 * and read the digest. Integer parts are folded little-endian so the
 * digest is platform-independent.
 */
class Fnv1a
{
  public:
    Fnv1a &
    update(const void *data, std::size_t len)
    {
        h_ = fnv1a(data, len, h_);
        return *this;
    }

    Fnv1a &
    update(const std::string &bytes)
    {
        return update(bytes.data(), bytes.size());
    }

    Fnv1a &
    update(std::uint64_t v)
    {
        unsigned char b[8];
        for (int i = 0; i < 8; ++i)
            b[i] = static_cast<unsigned char>((v >> (8 * i)) & 0xff);
        return update(b, sizeof b);
    }

    std::uint64_t digest() const { return h_; }

  private:
    std::uint64_t h_ = kFnvOffsetBasis;
};

} // namespace sim
} // namespace mbus

#endif // MBUS_SIM_HASH_HH
