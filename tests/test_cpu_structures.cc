/**
 * @file
 * Unit tests for the micro-architectural structures: cache model,
 * guest memory, branch predictor, and front-end fetch model.
 */

#include <algorithm>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/cache.hh"
#include "cpu/frontend.hh"
#include "cpu/memory.hh"
#include "cpu/microarch.hh"
#include "cpu/predictor.hh"
#include "support/random.hh"

namespace pca::cpu
{
namespace
{

TEST(Cache, MissThenHit)
{
    CacheModel c(64, 2, 64);
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103f)); // same line
    EXPECT_FALSE(c.access(0x1040)); // next line
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    CacheModel c(1, 2, 64); // one set, two ways
    c.access(0x0000);
    c.access(0x1000);
    c.access(0x0000);      // refresh line 0
    c.access(0x2000);      // evicts 0x1000 (LRU)
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x2000));
}

TEST(Cache, SetIndexingSeparatesLines)
{
    CacheModel c(4, 1, 64);
    // These map to different sets: no conflict.
    c.access(0 * 64);
    c.access(1 * 64);
    c.access(2 * 64);
    c.access(3 * 64);
    EXPECT_TRUE(c.contains(0));
    EXPECT_TRUE(c.contains(3 * 64));
    // Same set as line 0 in a 4-set direct-mapped cache.
    c.access(4 * 64);
    EXPECT_FALSE(c.contains(0));
}

TEST(Cache, FlushInvalidates)
{
    CacheModel c(8, 2, 64);
    c.access(0x40);
    c.flush();
    EXPECT_FALSE(c.contains(0x40));
}

TEST(Cache, FlushedModelBehavesLikeFreshOne)
{
    // A flush must leave exactly a cold model behind: every lookup,
    // fill and victim choice afterwards matches a new model's.
    constexpr int lines = 64;
    Rng rng(42);
    auto addr = [&] {
        return static_cast<Addr>(rng.nextBelow(lines)) * 64 +
            rng.nextBelow(64);
    };
    CacheModel used(8, 4, 64);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = addr();
        if (rng.nextBool(0.5))
            used.access(a);
        else
            used.accessHot(a);
    }
    used.flush();
    const std::uint64_t misses_before = used.misses();

    CacheModel fresh(8, 4, 64);
    for (int i = 0; i < 5000; ++i) {
        const Addr a = addr();
        ASSERT_EQ(used.contains(a), fresh.contains(a)) << "access " << i;
        if (rng.nextBool(0.5))
            ASSERT_EQ(used.access(a), fresh.access(a)) << "access " << i;
        else
            ASSERT_EQ(used.accessHot(a), fresh.accessHot(a))
                << "access " << i;
    }
    for (Addr line = 0; line < lines; ++line)
        EXPECT_EQ(used.contains(line * 64), fresh.contains(line * 64));
    EXPECT_EQ(used.misses() - misses_before, fresh.misses());
}

TEST(Cache, FlushCyclesMatchZeroInitializedLru)
{
    // Every cache, TLB and BTB geometry of the three processors,
    // random accesses across many flush cycles, against a plain LRU
    // whose ways are zeroed at construction and at every flush and
    // whose every lookup scans the whole set. The model clears a set
    // only on its first access since construction, a flush only
    // moves its LRU clock floor, and a lookup stops at the set's
    // first invalid way; it must be indistinguishable, contains()
    // included.
    struct Reference
    {
        std::size_t sets, ways;
        int shift = 0;
        std::vector<std::pair<Addr, std::uint64_t>> way; // tag, lastUse
        std::uint64_t clock = 0;

        Reference(int s, int w, int line_bytes)
            : sets(static_cast<std::size_t>(s)),
              ways(static_cast<std::size_t>(w)), way(sets * ways)
        {
            while ((1 << shift) < line_bytes)
                ++shift;
        }
        std::size_t base(Addr a) const
        {
            return static_cast<std::size_t>((a >> shift) % sets) * ways;
        }
        bool access(Addr a)
        {
            const Addr tag = a >> shift;
            const std::size_t b = base(a);
            ++clock;
            std::size_t victim = b;
            for (std::size_t w = b; w < b + ways; ++w) {
                if (way[w].second != 0 && way[w].first == tag) {
                    way[w].second = clock;
                    return true;
                }
                if (way[w].second < way[victim].second)
                    victim = w;
            }
            way[victim] = {tag, clock};
            return false;
        }
        bool contains(Addr a) const
        {
            const Addr tag = a >> shift;
            const std::size_t b = base(a);
            for (std::size_t w = b; w < b + ways; ++w)
                if (way[w].second != 0 && way[w].first == tag)
                    return true;
            return false;
        }
        void flush() { way.assign(way.size(), {0, 0}); }
    };

    // The way storage is not zeroed, so a model built where a dead
    // one lay (the allocator reuses the block) starts on its lines:
    // contains() must still see none of them.
    for (int round = 0; round < 2; ++round) {
        CacheModel dead(64, 8, 64);
        for (Addr line = 0; line < 64 * 8; ++line)
            dead.access(line * 64);
    }
    {
        CacheModel reborn(64, 8, 64);
        for (Addr line = 0; line < 64 * 8; ++line)
            ASSERT_FALSE(reborn.contains(line * 64)) << line;
    }

    // The geometries Core and BranchPredictor build.
    struct Geometry
    {
        std::string name;
        int sets, ways, lineBytes;
    };
    std::vector<Geometry> geometries;
    for (const Processor proc : allProcessors()) {
        const MicroArch &m = microArch(proc);
        const std::string p = processorCode(proc);
        geometries.push_back(
            {p + " icache", m.icacheSets, m.icacheWays, m.icacheLineBytes});
        geometries.push_back({p + " itlb",
                              std::max(1, m.itlbEntries / m.itlbWays),
                              m.itlbWays, 4096});
        geometries.push_back(
            {p + " dcache", m.dcacheSets, m.dcacheWays, m.dcacheLineBytes});
        geometries.push_back({p + " l2", m.l2Sets, m.l2Ways, m.l2LineBytes});
        geometries.push_back({p + " dtlb",
                              std::max(1, m.dtlbEntries / m.dtlbWays),
                              m.dtlbWays, 4096});
        geometries.push_back({p + " btb", m.btbSets, m.btbWays, 4});
    }

    Rng rng(7);
    for (const Geometry &g : geometries) {
        SCOPED_TRACE(g.name);
        const auto sets = static_cast<Addr>(g.sets);
        // Most accesses go to a few hot sets holding 1.5x their ways
        // in lines, so those fill up and evict; the rest spread over
        // every set, most of which stay partly filled.
        auto addr = [&] {
            const Addr set = rng.nextBool(0.75)
                ? rng.nextBelow(std::min<Addr>(sets, 8))
                : rng.nextBelow(sets);
            const Addr tag = set +
                sets * rng.nextBelow(static_cast<Addr>(
                           g.ways + g.ways / 2 + 1));
            return tag * static_cast<Addr>(g.lineBytes) +
                rng.nextBelow(static_cast<Addr>(g.lineBytes));
        };
        CacheModel model(g.sets, g.ways, g.lineBytes);
        Reference ref(g.sets, g.ways, g.lineBytes);
        Addr last = 0;
        for (int cycle = 0; cycle < 8; ++cycle) {
            // Sets not touched since the flush hold no line, whatever
            // their ways held before.
            for (int i = 0; i < 100; ++i) {
                const Addr a = addr();
                ASSERT_FALSE(model.contains(a)) << "cycle " << cycle;
                ASSERT_FALSE(ref.contains(a));
            }
            for (int i = 0; i < 6000; ++i) {
                // Repeats exercise accessHot's memo.
                const Addr a = rng.nextBool(0.2) ? last : addr();
                last = a;
                const bool want = ref.access(a);
                const bool got = rng.nextBool(0.5) ? model.access(a)
                                                   : model.accessHot(a);
                ASSERT_EQ(got, want)
                    << "cycle " << cycle << " access " << i;
                const Addr probe = addr();
                ASSERT_EQ(model.contains(probe), ref.contains(probe))
                    << "cycle " << cycle << " probe " << i;
            }
            model.flush();
            ref.flush();
        }
    }
}

TEST(Cache, TlbGeometryWorks)
{
    CacheModel tlb(1, 32, 4096); // fully associative, 32 entries
    for (Addr p = 0; p < 32; ++p)
        EXPECT_FALSE(tlb.access(p * 4096));
    for (Addr p = 0; p < 32; ++p)
        EXPECT_TRUE(tlb.access(p * 4096));
    EXPECT_FALSE(tlb.access(32 * 4096)); // evicts page 0 (LRU)
    EXPECT_FALSE(tlb.contains(0));
}

TEST(GuestMemoryTest, MatchesUnorderedMap)
{
    // Random loads, stores, pushes and pops (a stack pointer walking
    // down and up, as the core's push and pop move esp), resets, and
    // footprints that grow the table far past its first size and
    // then reuse it, against std::unordered_map: a word nothing was
    // stored at reads 0, and a reset forgets every word.
    Rng rng(11);
    GuestMemory mem;
    std::unordered_map<Addr, std::uint64_t> ref;
    auto want = [&](Addr a) -> std::uint64_t {
        const auto it = ref.find(a);
        return it == ref.end() ? 0 : it->second;
    };
    const std::size_t first_capacity = mem.capacity();
    std::size_t peak = 0;
    for (int round = 0; round < 24; ++round) {
        SCOPED_TRACE(round);
        const bool big = round % 4 == 3;
        const Addr span = big ? 4096 : 48;
        Addr sp = 0xbfff0000;
        for (int i = 0; i < (big ? 20000 : 2000); ++i) {
            // Mostly aligned words, some unaligned addresses.
            const Addr a = 0x10000 + 8 * rng.nextBelow(span) +
                (rng.nextBool(0.1) ? rng.nextBelow(8) : 0);
            const std::uint64_t v = rng.next();
            switch (rng.nextBelow(4)) {
              case 0:
                ASSERT_EQ(mem.load(a), want(a)) << "load " << i;
                break;
              case 1:
                mem.store(a, v);
                ref[a] = v;
                break;
              case 2: // push
                sp -= 8;
                mem.store(sp, v);
                ref[sp] = v;
                break;
              default: // pop
                ASSERT_EQ(mem.load(sp), want(sp)) << "pop " << i;
                sp += 8;
                break;
            }
            ASSERT_EQ(mem.size(), ref.size());
        }
        for (const auto &[a, v] : ref)
            ASSERT_EQ(mem.load(a), v);
        peak = std::max(peak, ref.size());
        const std::size_t grown = mem.capacity();
        mem.clear();
        EXPECT_EQ(mem.capacity(), grown); // the storage stays
        for (const auto &entry : ref)
            ASSERT_EQ(mem.load(entry.first), 0u);
        ref.clear();
        EXPECT_EQ(mem.size(), 0u);
    }
    // At most half full: it grew with the largest footprint.
    EXPECT_GT(mem.capacity(), first_capacity);
    EXPECT_GE(mem.capacity(), 2 * peak);
}

TEST(Predictor, LoopBranchWarmsUp)
{
    BranchPredictor bp(512, 4);
    // First taken: predicted not-taken (weak init) -> mispredict.
    EXPECT_TRUE(bp.predictAndTrain(0x1000, true));
    // Second taken: counter now at 2 -> predicted taken, but only
    // warmed BTB: should be correct now.
    EXPECT_FALSE(bp.predictAndTrain(0x1000, true));
    for (int i = 0; i < 100; ++i)
        EXPECT_FALSE(bp.predictAndTrain(0x1000, true));
    // Loop exit mispredicts once.
    EXPECT_TRUE(bp.predictAndTrain(0x1000, false));
}

TEST(Predictor, NotTakenBranchPredictsWell)
{
    BranchPredictor bp(512, 4);
    for (int i = 0; i < 50; ++i)
        EXPECT_FALSE(bp.predictAndTrain(0x2000, false));
    EXPECT_EQ(bp.mispredicts(), 0u);
}

TEST(Predictor, ResetForgets)
{
    BranchPredictor bp(512, 4);
    bp.predictAndTrain(0x1000, true);
    bp.predictAndTrain(0x1000, true);
    bp.reset();
    EXPECT_TRUE(bp.predictAndTrain(0x1000, true));
    EXPECT_EQ(bp.mispredicts(), 1u);
    EXPECT_EQ(bp.lookups(), 1u);
}

/** Cycles for one steady-state loop iteration at a given placement. */
Cycles
loopIterCycles(const MicroArch &arch, Addr body_addr)
{
    FrontEnd fe(arch);
    // Loop body: add(3B) cmp(5B) jne(2B), branch back to body_addr.
    const Addr add = body_addr, cmp = body_addr + 3,
               jne = body_addr + 8;
    Cycles last = 0;
    // Warm up, then measure one iteration.
    for (int iter = 0; iter < 6; ++iter) {
        Cycles c = 0;
        c += fe.onInst(add, 3);
        c += fe.onInst(cmp, 5);
        c += fe.onInst(jne, 2);
        c += fe.onTakenBranch(jne, jne + 2, add);
        last = c;
    }
    return last;
}

TEST(FrontEndTest, K8LoopIsTwoOrThreeCyclesPerIteration)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    bool saw2 = false, saw3 = false;
    for (Addr off = 0; off < 16; ++off) {
        const Cycles c = loopIterCycles(k8, 0x08048100 + off);
        EXPECT_GE(c, 2u);
        EXPECT_LE(c, 3u);
        saw2 |= c == 2;
        saw3 |= c == 3;
    }
    // Both modes of Figure 11 must be reachable by placement alone.
    EXPECT_TRUE(saw2);
    EXPECT_TRUE(saw3);
}

TEST(FrontEndTest, K8AlignedLoopTakesTwoCycles)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    EXPECT_EQ(loopIterCycles(k8, 0x08048100), 2u);
}

TEST(FrontEndTest, K8SplitLoopTakesThreeCycles)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    // Body at offset 10 mod 16: cmp crosses the fetch window.
    EXPECT_EQ(loopIterCycles(k8, 0x0804810a), 3u);
}

TEST(FrontEndTest, Core2LsdGivesOneCyclePerIteration)
{
    const auto &cd = microArch(Processor::Core2Duo);
    // Body comfortably inside one 64-byte line.
    EXPECT_EQ(loopIterCycles(cd, 0x08048100), 1u);
}

TEST(FrontEndTest, Core2LineCrossingDisablesLsd)
{
    const auto &cd = microArch(Processor::Core2Duo);
    // Body at offset 58 mod 64 crosses the i-cache line: no LSD.
    const Cycles c = loopIterCycles(cd, 0x08048100 + 58);
    EXPECT_GT(c, 1u);
}

TEST(FrontEndTest, PentiumDRangeCoversPaperSpread)
{
    const auto &pd = microArch(Processor::PentiumD);
    // Measure average over many iterations (replay alternates).
    auto avg_cycles = [&](Addr body) {
        FrontEnd fe(pd);
        const Addr add = body, cmp = body + 3, jne = body + 8;
        Cycles total = 0;
        constexpr int iters = 200;
        for (int i = 0; i < iters; ++i) {
            total += fe.onInst(add, 3);
            total += fe.onInst(cmp, 5);
            total += fe.onInst(jne, 2);
            total += fe.onTakenBranch(jne, jne + 2, add);
        }
        return static_cast<double>(total) / iters;
    };
    double lo = 1e9, hi = 0;
    for (Addr off = 0; off < 128; off += 2) {
        const double c = avg_cycles(0x08048000 + off);
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    // Paper: PD cycles/iteration spread roughly 1.5..4.
    EXPECT_NEAR(lo, 1.5, 0.3);
    EXPECT_GE(hi, 3.0);
    EXPECT_LE(hi, 4.5);
}

TEST(FrontEndTest, SequentialCodeBoundedByDecodeWidth)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    FrontEnd fe(k8);
    // 300 one-byte instructions: at least ceil(300/3) issue cycles.
    Cycles total = 0;
    for (int i = 0; i < 300; ++i)
        total += fe.onInst(0x1000 + static_cast<Addr>(i), 1);
    EXPECT_GE(total, 100u);
    EXPECT_LE(total, 140u); // plus ~1 fetch cycle per 16 bytes
}

TEST(FrontEndTest, OnNopsEqualsOneByteOnInstCalls)
{
    // onNops(addr, n) must charge what n calls of onInst(addr + i, 1)
    // charge and leave the same state, whatever decode-group fill and
    // window offset the run starts from, with the loop-stream
    // detector off and on. The state is compared by what the two
    // front ends charge for the same code afterwards.
    for (const Processor proc : {Processor::PentiumD,
                                 Processor::Core2Duo,
                                 Processor::AthlonX2}) {
        const MicroArch &arch = microArch(proc);
        for (const bool lsd : {false, true}) {
            if (lsd && !arch.loopStreamDetector)
                continue;
            for (int off = 0; off < arch.fetchBytes; ++off)
                for (int pre = 0; pre < arch.decodeWidth; ++pre)
                    for (Count n = 1; n <= 200; ++n) {
                        const Addr addr =
                            0x3000 + static_cast<Addr>(off);
                        FrontEnd bulk(arch), each(arch);
                        for (FrontEnd *fe : {&bulk, &each}) {
                            if (lsd) {
                                // Two trips round a one-line loop.
                                fe->onTakenBranch(0x2010, 0x2012,
                                                  0x2000);
                                fe->onTakenBranch(0x2010, 0x2012,
                                                  0x2000);
                            }
                            // Straight-line code leading up to the
                            // run leaves a partial decode group.
                            for (int i = pre; i > 0; --i)
                                fe->onInst(addr - static_cast<Addr>(i),
                                           1);
                        }
                        ASSERT_EQ(bulk.lsdActive(), lsd);
                        Cycles want = 0;
                        for (Count i = 0; i < n; ++i)
                            want += each.onInst(addr + i, 1);
                        const std::string what =
                            std::string(processorCode(proc)) +
                            " lsd=" + std::to_string(lsd) +
                            " off=" + std::to_string(off) +
                            " pre=" + std::to_string(pre) +
                            " n=" + std::to_string(n);
                        ASSERT_EQ(bulk.onNops(addr, n), want) << what;
                        ASSERT_EQ(bulk.lsdActive(), each.lsdActive())
                            << what;
                        std::vector<Cycles> after[2];
                        int k = 0;
                        for (FrontEnd *fe : {&bulk, &each}) {
                            const Addr end = addr + n;
                            for (int i = 0;
                                 i < 2 * arch.fetchBytes +
                                         arch.decodeWidth;
                                 ++i)
                                after[k].push_back(fe->onInst(
                                    end + static_cast<Addr>(i), 1));
                            after[k].push_back(fe->onTakenBranch(
                                end + 200, end + 202, addr));
                            ++k;
                        }
                        ASSERT_EQ(after[0], after[1]) << what;
                    }
        }
    }
}

TEST(FrontEndTest, RedirectResetsState)
{
    const auto &k8 = microArch(Processor::AthlonX2);
    FrontEnd fe(k8);
    fe.onInst(0x1000, 3);
    fe.redirect(0x2000);
    EXPECT_FALSE(fe.lsdActive());
    // Redirect already steered fetch to the target window: the first
    // instruction there costs no extra fetch cycle...
    EXPECT_EQ(fe.onInst(0x2000, 3), 0u);
    // ...but code in a different window does.
    EXPECT_GE(fe.onInst(0x2040, 3), 1u);
}

} // namespace
} // namespace pca::cpu
