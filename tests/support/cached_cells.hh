/**
 * @file
 * What a result cache directory holds, read through the cache: every
 * `*.simlog` log is read with ResultCache::read, so a frame counts
 * only once it is complete and valid, and an append still in progress
 * does not count.
 */

#ifndef PIPEDEPTH_TESTS_SUPPORT_CACHED_CELLS_HH
#define PIPEDEPTH_TESTS_SUPPORT_CACHED_CELLS_HH

#include <cstddef>
#include <filesystem>
#include <string>
#include <system_error>

#include "sweep/result_cache.hh"

namespace pipedepth
{

/** The log key a `<32 hex digits>.simlog` file is named by. */
inline CacheKey
logKeyOf(const std::filesystem::path &log)
{
    const std::string hex = log.stem().string();
    return {std::stoull(hex.substr(0, 16), nullptr, 16),
            std::stoull(hex.substr(16, 16), nullptr, 16)};
}

/** Cells readable from the logs in @p dir (0 if it is absent). */
inline std::size_t
cachedCellCount(const std::filesystem::path &dir)
{
    std::error_code ec;
    if (!std::filesystem::is_directory(dir, ec))
        return 0;
    const ResultCache cache(dir.string());
    std::size_t cells = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir, ec)) {
        if (e.path().extension() == ".simlog")
            cells += cache.read(logKeyOf(e.path())).size();
    }
    return cells;
}

} // namespace pipedepth

#endif // PIPEDEPTH_TESTS_SUPPORT_CACHED_CELLS_HH
