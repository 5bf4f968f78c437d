#include "sweep/cache.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

#include "sim/fsio.hh"
#include "sim/hash.hh"
#include "sweep/codec.hh"

namespace mbus {
namespace sweep {

std::uint64_t
cellKey(const std::string &specBytes, std::uint64_t seed,
        std::uint64_t salt)
{
    sim::Fnv1a h;
    h.update(specBytes);
    h.update(seed);
    h.update(salt);
    return h.digest();
}

CellCache::CellCache(std::string dir, std::uint64_t salt)
    : dir_(std::move(dir)), salt_(salt)
{
    // A directory that cannot be created is not an error here: every
    // store() into it then fails and is counted, which callers report.
    std::error_code ec;
    if (!dir_.empty())
        std::filesystem::create_directories(dir_, ec);
}

std::uint64_t
CellCache::key(const std::string &specBytes, std::uint64_t seed) const
{
    return cellKey(specBytes, seed, salt_);
}

std::string
CellCache::pathFor(std::uint64_t key) const
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(key));
    return dir_ + "/" + hex + ".cell";
}

bool
CellCache::lookup(std::uint64_t key, ScenarioStats &stats)
{
    std::ifstream in;
    if (enabled())
        in.open(pathFor(key), std::ios::binary);
    std::string got{std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>()};
    // Strip the trailing newline the store appends for greppability.
    if (!got.empty() && got.back() == '\n')
        got.pop_back();
    // A missing or undecodable value is a miss, never a wrong answer.
    if (!in.is_open() || !decodeStats(got, stats)) {
        ++misses_;
        return false;
    }
    ++hits_;
    return true;
}

bool
CellCache::store(std::uint64_t key, const std::string &statsBytes)
{
    if (!enabled())
        return false;
    if (sim::atomicWriteFile(pathFor(key), statsBytes + "\n"))
        return true;
    ++storeFailures_;
    return false;
}

} // namespace sweep
} // namespace mbus
