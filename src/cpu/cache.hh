/**
 * @file
 * Set-associative cache model with LRU replacement, used for the
 * instruction cache and (with page-sized "lines") the instruction
 * TLB. These structures make cycle counts sensitive to code
 * placement, the effect Section 6 of the paper demonstrates.
 */

#ifndef PCA_CPU_CACHE_HH
#define PCA_CPU_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "support/types.hh"

namespace pca::cpu
{

/** Generic set-associative lookup structure (tags only). */
class CacheModel
{
  public:
    /**
     * @param sets number of sets (power of two)
     * @param ways associativity
     * @param line_bytes line (or page) size in bytes, power of two
     */
    CacheModel(int sets, int ways, int line_bytes);

    /**
     * Look up the line containing @p addr, filling it on a miss.
     * @return true on hit
     *
     * The valid ways of a set always form a prefix of it: a set
     * starts empty (first touch, flush), a fill takes the first
     * invalid way, and a valid way is replaced only when the set is
     * full. So the scan stops at the first invalid way: no later way
     * can hold the line, and it is the LRU victim, because an
     * invalid way counts as age 0 (the first one wins the tie).
     *
     * Inline: every simulated instruction funnels several of these
     * (fetch, TLB, data, BTB), and the way loop is short.
     */
    bool access(Addr addr)
    {
        const std::size_t base = touchSet(addr);
        const Addr tag = tagOf(addr);
        ++useClock;

        const std::size_t end = base + static_cast<std::size_t>(numWays);
        std::size_t victim = base;
        std::uint64_t oldest = UINT64_MAX;
        for (std::size_t w = base; w < end; ++w) {
            Way &way = waysStore[w];
            if (!valid(way)) {
                victim = w;
                break;
            }
            if (way.tag == tag) {
                way.lastUse = useClock;
                ++hitCount;
                return true;
            }
            if (way.lastUse < oldest) {
                oldest = way.lastUse;
                victim = w;
            }
        }
        Way &way = waysStore[victim];
        way.tag = tag;
        way.lastUse = useClock;
        ++missCount;
        return false;
    }

    /**
     * access() with a one-entry memo of the last hit. Exact same
     * semantics and statistics — the memo only skips the way scan
     * when the previous hit line is accessed again (it is still MRU,
     * so the scan would find it first). For single-address hot spots
     * like a loop branch in the BTB.
     */
    bool accessHot(Addr addr)
    {
        const Addr tag = tagOf(addr);
        if (tag == hotTag) {
            // The memo names a way of a touched, so initialized, set.
            Way &hw = waysStore[hotWay];
            if (valid(hw) && hw.tag == tag) {
                hw.lastUse = ++useClock;
                ++hitCount;
                return true;
            }
        }
        const bool hit = access(addr);
        // access() left the line MRU (filled on miss), so its way now
        // holds the most recent useClock stamp: remember it.
        const std::size_t base =
            setIndex(addr) * static_cast<std::size_t>(numWays);
        for (std::size_t w = base;
             w < base + static_cast<std::size_t>(numWays); ++w) {
            if (waysStore[w].lastUse == useClock) {
                hotTag = tag;
                hotWay = w;
                break;
            }
        }
        return hit;
    }

    /** Probe without side effects. */
    bool contains(Addr addr) const;

    /**
     * Invalidate everything (cold start) in O(1): every way last used
     * at or before this instant reads as invalid from now on.
     */
    void flush();

    int sets() const { return numSets; }
    int ways() const { return numWays; }
    int lineBytes() const { return lineSize; }

    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

  private:
    /**
     * One way. There is no valid bit: the LRU clock never resets, and
     * a way holds a line iff it was used after the last flush. No
     * member initializers, so the way storage is allocated
     * uninitialized; touchSet() clears a set before its first use.
     */
    struct Way
    {
        Addr tag;
        std::uint64_t lastUse;
    };

    /**
     * Invalid ways count as age 0 in victim choice, so a flushed
     * model picks the same victims as a fresh one.
     */
    bool valid(const Way &way) const { return way.lastUse > flushedAt; }

    /**
     * Index of the first way of @p addr's set. The first access to a
     * set since construction clears its ways, so a model costs
     * O(sets it touches), not O(sets x ways).
     */
    std::size_t touchSet(Addr addr)
    {
        const std::size_t set = setIndex(addr);
        if (!setLive[set]) [[unlikely]]
            clearSet(set);
        return set * static_cast<std::size_t>(numWays);
    }

    /** Clear set @p set's ways and mark it live. */
    void clearSet(std::size_t set);

    std::size_t setIndex(Addr addr) const
    {
        return static_cast<std::size_t>(
            (addr >> lineShift) & static_cast<Addr>(numSets - 1));
    }

    Addr tagOf(Addr addr) const { return addr >> lineShift; }

    int numSets;
    int numWays;
    int lineSize;
    int lineShift;
    std::unique_ptr<Way[]> waysStore; // numSets * numWays
    /** Per set: its ways are initialized (touched since construction). */
    std::vector<std::uint8_t> setLive;
    Addr hotTag = ~Addr{0};     // accessHot memo: last hit line
    std::size_t hotWay = 0;     // ... and the way that held it
    std::uint64_t useClock = 0;  // strictly monotonic, never reset
    std::uint64_t flushedAt = 0; // useClock at the last flush
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

} // namespace pca::cpu

#endif // PCA_CPU_CACHE_HH
