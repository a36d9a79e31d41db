#include "cpu/cache.hh"

#include <algorithm>

#include "support/logging.hh"

namespace pca::cpu
{

namespace
{

int
log2Exact(int v)
{
    pca_assert(v > 0 && (v & (v - 1)) == 0);
    int s = 0;
    while ((1 << s) < v)
        ++s;
    return s;
}

} // namespace

CacheModel::CacheModel(int sets, int ways, int line_bytes)
    : numSets(sets), numWays(ways), lineSize(line_bytes),
      lineShift(log2Exact(line_bytes)),
      waysStore(std::make_unique_for_overwrite<Way[]>(
          static_cast<std::size_t>(sets) * ways)),
      setLive(static_cast<std::size_t>(sets), 0)
{
    pca_assert(sets > 0 && (sets & (sets - 1)) == 0);
    pca_assert(ways > 0);
}

bool
CacheModel::contains(Addr addr) const
{
    if (!setLive[setIndex(addr)])
        return false; // never touched, so its ways are uninitialized
    const std::size_t base = setIndex(addr) * numWays;
    const Addr tag = tagOf(addr);
    for (std::size_t w = base; w < base + numWays; ++w)
        if (valid(waysStore[w]) && waysStore[w].tag == tag)
            return true;
    return false;
}

void
CacheModel::clearSet(std::size_t set)
{
    setLive[set] = 1;
    std::fill_n(&waysStore[set * static_cast<std::size_t>(numWays)],
                numWays, Way{});
}

void
CacheModel::flush()
{
    flushedAt = useClock;
    hotTag = ~Addr{0};
    hotWay = 0;
}

} // namespace pca::cpu
