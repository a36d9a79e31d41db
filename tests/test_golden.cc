/**
 * @file
 * Golden-value regression tests: the simulator is deterministic, so
 * the calibration anchors recorded in EXPERIMENTS.md are exact and
 * any drift (a changed cost constant, an extra instruction in a
 * library path) should fail loudly here, not silently skew every
 * figure.
 *
 * If a change is *intentional*, re-derive the constants below from
 * `bench/fig05_num_counters` and `bench/fig06_tab03_infrastructure`
 * and update EXPERIMENTS.md in the same commit.
 */

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"

namespace pca
{
namespace
{

using harness::AccessPattern;
using harness::CountingMode;
using harness::HarnessConfig;
using harness::HarnessSession;
using harness::Interface;
using harness::NullBench;

SCount
nullError(cpu::Processor proc, Interface iface, AccessPattern pat,
          CountingMode mode, int nctrs = 1, bool tsc = true)
{
    HarnessConfig cfg;
    cfg.processor = proc;
    cfg.iface = iface;
    cfg.pattern = pat;
    cfg.mode = mode;
    cfg.tsc = tsc;
    cfg.interruptsEnabled = false; // pure fixed overhead
    const auto &menu = core::defaultExtraEvents();
    for (int i = 0; i + 1 < nctrs; ++i)
        cfg.extraEvents.push_back(
            menu[static_cast<std::size_t>(i)]);
    return HarnessSession(cfg, NullBench{}).run().error();
}

using P = cpu::Processor;
using I = Interface;
using A = AccessPattern;
using M = CountingMode;

// --- The paper-anchored values (EXPERIMENTS.md, rows marked ✱) ---

TEST(Golden, PmReadReadUserKernelK8Is573)
{
    EXPECT_EQ(nullError(P::AthlonX2, I::Pm, A::ReadRead,
                        M::UserKernel),
              573);
}

TEST(Golden, PmReadReadUserIs37Everywhere)
{
    for (auto proc : cpu::allProcessors())
        EXPECT_EQ(nullError(proc, I::Pm, A::ReadRead, M::User), 37)
            << cpu::processorCode(proc);
}

TEST(Golden, PcStartReadUserIs67Everywhere)
{
    for (auto proc : cpu::allProcessors())
        EXPECT_EQ(nullError(proc, I::Pc, A::StartRead, M::User), 67)
            << cpu::processorCode(proc);
}

TEST(Golden, PcReadReadK8CounterScaling)
{
    // Paper: 84 -> 125 over 1 -> 4 counters; ours: 84 -> 123.
    EXPECT_EQ(nullError(P::AthlonX2, I::Pc, A::ReadRead,
                        M::UserKernel, 1),
              84);
    EXPECT_EQ(nullError(P::AthlonX2, I::Pc, A::ReadRead,
                        M::UserKernel, 4),
              123);
}

TEST(Golden, PmReadReadK8CounterScaling)
{
    // Paper: 573 -> 909; ours: 573 -> 906 (+111/counter).
    EXPECT_EQ(nullError(P::AthlonX2, I::Pm, A::ReadRead,
                        M::UserKernel, 4),
              906);
}

TEST(Golden, PerCounterIncrementIsStable)
{
    const auto e1 = nullError(P::AthlonX2, I::Pm, A::ReadRead,
                              M::UserKernel, 1);
    const auto e2 = nullError(P::AthlonX2, I::Pm, A::ReadRead,
                              M::UserKernel, 2);
    EXPECT_EQ(e2 - e1, 111);
}

// --- Cross-interface fixed overheads on the quiet K8 machine ---

TEST(Golden, UserModeTable)
{
    struct Row
    {
        I iface;
        A pat;
        SCount expect;
    };
    const Row rows[] = {
        {I::Pm, A::StartRead, 44},    {I::Pm, A::ReadRead, 37},
        {I::Pc, A::StartRead, 67},    {I::Pc, A::ReadRead, 84},
        {I::PLpm, A::StartRead, 149}, {I::PHpm, A::StartRead, 247},
        {I::PLpc, A::StartRead, 172}, {I::PHpc, A::StartRead, 270},
    };
    for (const Row &r : rows) {
        EXPECT_EQ(nullError(P::AthlonX2, r.iface, r.pat, M::User),
                  r.expect)
            << harness::interfaceCode(r.iface) << "/"
            << harness::patternCode(r.pat);
    }
}

TEST(Golden, TscOffFallbackCostOnCd)
{
    // Paper Figure 4: median 1698 with the TSC disabled.
    EXPECT_NEAR(static_cast<double>(
                    nullError(P::Core2Duo, I::Pc, A::ReadRead,
                              M::UserKernel, 1, false)),
                1702.0, 1.0);
}

TEST(Golden, LoopCyclesPerIterationK8)
{
    // Figure 11's two modes, reproduced at two fixed placements.
    HarnessConfig cfg;
    cfg.processor = P::AthlonX2;
    cfg.iface = I::Pm;
    cfg.pattern = A::StartRead;
    cfg.mode = M::UserKernel;
    cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
    cfg.interruptsEnabled = false;
    const harness::LoopBench loop(1000000);

    // Scan the pattern x opt grid: every placement must land on one
    // of the two K8 modes, and both modes must occur (Figure 11).
    bool saw2 = false, saw3 = false;
    for (auto pat : {A::StartRead, A::ReadRead}) {
        for (int opt = 0; opt < 4; ++opt) {
            cfg.pattern = pat;
            cfg.optLevel = opt;
            const double cpi =
                static_cast<double>(
                    HarnessSession(cfg, loop).run().delta()) /
                1e6;
            const bool is2 = std::abs(cpi - 2.0) < 0.05;
            const bool is3 = std::abs(cpi - 3.0) < 0.05;
            EXPECT_TRUE(is2 || is3) << "cpi=" << cpi;
            saw2 |= is2;
            saw3 |= is3;
        }
    }
    EXPECT_TRUE(saw2);
    EXPECT_TRUE(saw3);
}

} // namespace
} // namespace pca
