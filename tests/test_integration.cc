/**
 * @file
 * Integration tests: the paper's headline results reproduced
 * end-to-end on small versions of each experiment.
 */

#include <gtest/gtest.h>

#include "core/datatable.hh"
#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "stats/anova.hh"
#include "stats/descriptive.hh"
#include "stats/histogram.hh"
#include "stats/regression.hh"

namespace pca
{
namespace
{

using harness::AccessPattern;
using harness::CountingMode;
using harness::HarnessConfig;
using harness::HarnessSession;
using harness::Interface;
using harness::LoopBench;
using harness::NullBench;

double
medianError(cpu::Processor proc, Interface iface, AccessPattern pat,
            CountingMode mode, int runs = 5)
{
    std::vector<double> errs;
    for (int r = 0; r < runs; ++r) {
        HarnessConfig cfg;
        cfg.processor = proc;
        cfg.iface = iface;
        cfg.pattern = pat;
        cfg.mode = mode;
        cfg.seed = 31337 + static_cast<std::uint64_t>(r) * 7;
        errs.push_back(static_cast<double>(
            HarnessSession(cfg, NullBench{}).run(cfg.seed).error()));
    }
    return stats::median(errs);
}

// --- Table 3 anchors (paper values, K8-specific or cross-arch) ---

TEST(Table3, PmReadReadUserKernelOnK8)
{
    // Paper: 573 instructions (K8 = the Table 3 minimum, 572).
    const double med = medianError(cpu::Processor::AthlonX2,
                                   Interface::Pm,
                                   AccessPattern::ReadRead,
                                   CountingMode::UserKernel);
    EXPECT_NEAR(med, 573.0, 60.0);
}

TEST(Table3, PmReadReadUserIs37)
{
    const double med = medianError(cpu::Processor::AthlonX2,
                                   Interface::Pm,
                                   AccessPattern::ReadRead,
                                   CountingMode::User);
    EXPECT_NEAR(med, 37.0, 5.0);
}

TEST(Table3, PcStartReadUserIs67)
{
    const double med = medianError(cpu::Processor::AthlonX2,
                                   Interface::Pc,
                                   AccessPattern::StartRead,
                                   CountingMode::User);
    EXPECT_NEAR(med, 67.0, 10.0);
}

TEST(Table3, BestPatternPerTool)
{
    // pm (u+k): read-read beats start-read (Table 3 row 1).
    EXPECT_LT(medianError(cpu::Processor::AthlonX2, Interface::Pm,
                          AccessPattern::ReadRead,
                          CountingMode::UserKernel),
              medianError(cpu::Processor::AthlonX2, Interface::Pm,
                          AccessPattern::StartRead,
                          CountingMode::UserKernel));
    // PAPI-low on pm: start-read beats read-read (Table 3 row 2).
    EXPECT_LT(medianError(cpu::Processor::AthlonX2, Interface::PLpm,
                          AccessPattern::StartRead,
                          CountingMode::UserKernel),
              medianError(cpu::Processor::AthlonX2, Interface::PLpm,
                          AccessPattern::ReadRead,
                          CountingMode::UserKernel));
}

// --- §4.2: the perfctr-vs-perfmon decision rule ---

TEST(Section42, PerfmonWinsForUserModeCounting)
{
    for (auto proc : cpu::allProcessors()) {
        const double pm = medianError(proc, Interface::Pm,
                                      AccessPattern::ReadRead,
                                      CountingMode::User);
        const double pc = medianError(proc, Interface::Pc,
                                      AccessPattern::StartRead,
                                      CountingMode::User);
        EXPECT_LT(pm, pc) << cpu::processorCode(proc);
    }
}

TEST(Section42, PerfctrWinsForUserKernelCounting)
{
    for (auto proc : cpu::allProcessors()) {
        const double pm = medianError(proc, Interface::Pm,
                                      AccessPattern::ReadRead,
                                      CountingMode::UserKernel);
        const double pc = medianError(proc, Interface::Pc,
                                      AccessPattern::StartRead,
                                      CountingMode::UserKernel);
        EXPECT_LT(pc, pm) << cpu::processorCode(proc);
    }
}

TEST(Section42, LowerLevelApisAreMoreAccurate)
{
    for (auto mode : {CountingMode::User, CountingMode::UserKernel}) {
        const double direct = medianError(
            cpu::Processor::Core2Duo, Interface::Pm,
            AccessPattern::StartRead, mode);
        const double low = medianError(
            cpu::Processor::Core2Duo, Interface::PLpm,
            AccessPattern::StartRead, mode);
        const double high = medianError(
            cpu::Processor::Core2Duo, Interface::PHpm,
            AccessPattern::StartRead, mode);
        EXPECT_LT(direct, low);
        EXPECT_LT(low, high);
    }
}

// --- §4.3: ANOVA finds the paper's significance pattern ---

TEST(Section43, AnovaSignificanceMatchesPaper)
{
    auto points = core::FactorSpace()
                      .interfaces({Interface::Pm, Interface::Pc})
                      .counterCounts({1, 2, 3, 4})
                      .generate();
    const auto table = core::runNullErrorStudy(points, 5, 99);
    const std::vector<std::string> factors = {
        "processor", "interface", "pattern", "mode", "opt", "nctrs"};
    const auto res =
        stats::anova(factors, table.toObservations(factors));
    EXPECT_TRUE(res.significant("processor"));
    EXPECT_TRUE(res.significant("interface"));
    EXPECT_TRUE(res.significant("pattern"));
    EXPECT_TRUE(res.significant("mode"));
    EXPECT_TRUE(res.significant("nctrs"));
    EXPECT_FALSE(res.significant("opt", 0.01));
}

// --- §5: duration-dependent error ---

TEST(Section5, UserKernelSlopeInPaperRange)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.interfaces = {Interface::Pc};
    opt.loopSizes = {1, 250000, 500000, 1000000};
    opt.runsPerSize = 4;
    opt.seed = 7;
    const auto slopes = core::errorSlopes(core::runDurationStudy(opt));
    ASSERT_EQ(slopes.size(), 1u);
    // Paper Figure 7: ~0.002 for pc on CD (regression: 0.00204).
    EXPECT_GT(slopes[0].fit.slope, 0.0005);
    EXPECT_LT(slopes[0].fit.slope, 0.006);
}

TEST(Section5, KernelOnlyCountsExplainTheSlope)
{
    // Figure 9's crosscheck: kernel-mode instructions alone show the
    // same per-iteration slope as the u+k error.
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;
    cfg.pattern = AccessPattern::StartRead;
    cfg.mode = CountingMode::Kernel;
    cfg.ioInterrupts = false;
    cfg.preemptProb = 0.0;

    std::vector<double> xs, ys;
    for (Count size : {1u, 250000u, 500000u, 1000000u}) {
        for (int r = 0; r < 4; ++r) {
            cfg.seed = mixSeed(55, size + static_cast<Count>(r));
            const auto m =
                HarnessSession(cfg, LoopBench{size}).run(cfg.seed);
            xs.push_back(static_cast<double>(size));
            ys.push_back(static_cast<double>(m.delta()));
        }
    }
    const auto fit = stats::linearFit(xs, ys);
    EXPECT_GT(fit.slope, 0.0005);
    EXPECT_LT(fit.slope, 0.006);
}

TEST(Section5, InfrastructureLayerDoesNotChangeSlope)
{
    // Figure 7: PAPI vs direct does not change the duration slope
    // (the kernel does the same work during the bulk of the run).
    auto slope_for = [](Interface iface) {
        core::DurationStudyOptions opt;
        opt.processors = {cpu::Processor::AthlonX2};
        opt.interfaces = {iface};
        opt.loopSizes = {1, 500000, 1000000};
        opt.runsPerSize = 3;
        opt.seed = 21;
        const auto slopes =
            core::errorSlopes(core::runDurationStudy(opt));
        return slopes.at(0).fit.slope;
    };
    const double direct = slope_for(Interface::Pm);
    const double papi = slope_for(Interface::PHpm);
    EXPECT_NEAR(direct, papi, direct * 0.5 + 1e-4);
}

// --- §6: cycle counts are placement-bimodal ---

TEST(Section6, K8CyclesAreBimodalAcrossConfigs)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {Interface::Pm};
    opt.patterns = harness::allPatterns();
    opt.optLevels = {0, 1, 2, 3};
    opt.loopSizes = {200000};
    opt.runsPerConfig = 1;
    opt.seed = 5;
    const auto table = core::runCycleStudy(opt);

    stats::Histogram h(0, 1e6, 20);
    h.addAll(table.values());
    // Two clusters: ~2 and ~3 cycles/iteration (Figure 11).
    const auto modes = h.modes(0.05);
    EXPECT_GE(modes.size(), 2u);
}

TEST(Section6, SlopeDependsOnPatternAndOptCombination)
{
    // Figure 12: neither pattern nor opt level alone determines the
    // cycles/iteration; the combination does. Check that within one
    // pattern, opt levels produce different slopes somewhere.
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {Interface::Pm};
    opt.patterns = {AccessPattern::StartRead,
                    AccessPattern::ReadRead};
    opt.optLevels = {0, 1, 2, 3};
    opt.loopSizes = {400000};
    opt.runsPerConfig = 1;
    opt.seed = 6;
    const auto table = core::runCycleStudy(opt);

    bool differs_within_pattern = false;
    for (const auto &group : table.groupBy({"pattern"})) {
        const double lo =
            *std::min_element(group.values.begin(),
                              group.values.end());
        const double hi =
            *std::max_element(group.values.begin(),
                              group.values.end());
        differs_within_pattern |= hi - lo > 100000; // >0.25 cyc/iter
    }
    EXPECT_TRUE(differs_within_pattern);
}

TEST(Section6, PlacementPerturbationDwarfsInfrastructureOverhead)
{
    // The paper's conclusion: cycle-count variation from placement
    // is orders of magnitude larger than instruction-count error.
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::PentiumD};
    opt.interfaces = {Interface::Pm};
    opt.loopSizes = {1000000};
    opt.optLevels = {0, 1, 2, 3};
    opt.runsPerConfig = 1;
    opt.seed = 8;
    const auto cycles = core::runCycleStudy(opt).values();
    const double spread =
        *std::max_element(cycles.begin(), cycles.end()) -
        *std::min_element(cycles.begin(), cycles.end());
    const double instr_err = medianError(cpu::Processor::PentiumD,
                                         Interface::Pm,
                                         AccessPattern::ReadRead,
                                         CountingMode::UserKernel);
    EXPECT_GT(spread, instr_err * 100);
}

// --- Figure 1: the overall error distribution ---

TEST(Figure1, UserKernelErrorsDominateUserErrors)
{
    auto points = core::FactorSpace()
                      .optLevels({2})
                      .counterCounts({1, 2})
                      .generate();
    const auto table = core::runNullErrorStudy(points, 2, 1);
    const auto uk = table.filtered("mode", "user+kernel").values();
    const auto u = table.filtered("mode", "user").values();
    ASSERT_FALSE(uk.empty());
    ASSERT_FALSE(u.empty());
    EXPECT_GT(stats::median(uk), 3 * stats::median(u));
    // Paper: user errors reach ~2500; u+k errors reach beyond that.
    EXPECT_GT(stats::maxOf(uk), stats::maxOf(u));
}

} // namespace
} // namespace pca
