/**
 * @file
 * Tests for the measurement harness: pattern semantics, benchmarks'
 * analytical models, error computation, and configuration checks.
 */

#include <cstdlib>

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "obs/spc.hh"
#include "support/random.hh"

namespace pca::harness
{
namespace
{

HarnessConfig
quietConfig(Interface iface = Interface::Pm,
            AccessPattern pattern = AccessPattern::StartRead,
            CountingMode mode = CountingMode::UserKernel)
{
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = iface;
    cfg.pattern = pattern;
    cfg.mode = mode;
    cfg.interruptsEnabled = false;
    cfg.seed = 77;
    return cfg;
}

TEST(MicroBench, NullHasZeroExpected)
{
    NullBench b;
    EXPECT_EQ(b.expectedInstructions(), 0u);
    EXPECT_EQ(b.name(), "null");
}

TEST(MicroBench, LoopModelIsOnePlusThreeMax)
{
    EXPECT_EQ(LoopBench(1).expectedInstructions(), 4u);
    EXPECT_EQ(LoopBench(1000).expectedInstructions(), 3001u);
    EXPECT_EQ(LoopBench(1000000).expectedInstructions(), 3000001u);
}

TEST(MicroBench, LoopRejectsZeroIterations)
{
    EXPECT_THROW(LoopBench(0), std::logic_error);
}

TEST(MicroBench, ArrayWalkModel)
{
    EXPECT_EQ(ArrayWalkBench(10, 64).expectedInstructions(), 52u);
}

TEST(Patterns, SupportMatrix)
{
    for (Interface i : allInterfaces()) {
        EXPECT_TRUE(patternSupported(i, AccessPattern::StartRead));
        EXPECT_TRUE(patternSupported(i, AccessPattern::StartStop));
        const bool reads_ok = !isPapiHigh(i);
        EXPECT_EQ(patternSupported(i, AccessPattern::ReadRead),
                  reads_ok);
        EXPECT_EQ(patternSupported(i, AccessPattern::ReadStop),
                  reads_ok);
    }
}

TEST(Patterns, UnsupportedPatternIsFatal)
{
    HarnessConfig cfg = quietConfig(Interface::PHpm,
                                    AccessPattern::ReadRead);
    EXPECT_THROW(HarnessSession(cfg, NullBench{}), std::runtime_error);
}

TEST(Patterns, InvalidConfigFailsBeforeBoot)
{
    obs::spcReset();
    obs::spcAttach("machine_boots");
    HarnessConfig perf_event = quietConfig();
    perf_event.usePerfEvent = true;
    for (const HarnessConfig &cfg :
         {quietConfig(Interface::PHpm, AccessPattern::ReadRead),
          perf_event})
        EXPECT_THROW(HarnessSession(cfg, NullBench{}),
                     std::runtime_error);
    EXPECT_EQ(obs::spcValue(obs::Spc::MachineBoots), 0u);
    obs::spcReset();
}

TEST(Patterns, TooManyCountersIsFatal)
{
    HarnessConfig cfg = quietConfig(Interface::Pm);
    cfg.processor = cpu::Processor::Core2Duo; // 2 counters
    cfg.extraEvents = {cpu::EventType::BrInstRetired,
                       cpu::EventType::IcacheMiss};
    EXPECT_THROW(HarnessSession(cfg, NullBench{}), std::runtime_error);
}

/**
 * The counter API drives the six interfaces' extensions only, so a
 * perf_event machine is as fatal as an unsupported pattern (and
 * boots nothing first: InvalidConfigFailsBeforeBoot).
 */
TEST(PatternsDeathTest, PerfEventMachineIsFatal)
{
    HarnessConfig cfg = quietConfig();
    cfg.usePerfEvent = true;
    // Escaping a noexcept function ends the process, as the error
    // escaping main ends a bench binary.
    EXPECT_DEATH([&]() noexcept { HarnessSession s(cfg, NullBench{}); }(),
                 "cannot drive a perf_event machine");
}

/**
 * PCA_DECODE and PCA_PROFILE are MachineConfig defaults, so a raw
 * machine sees them as a session's does.
 */
TEST(MachineConfigTest, EnvironmentDefaultsReachEveryMachine)
{
    setenv("PCA_DECODE", "0", 1);
    EXPECT_FALSE(MachineConfig{}.decodeCache);
    EXPECT_FALSE(HarnessConfig{}.decodeCache);
    setenv("PCA_PROFILE", "on", 1);
    EXPECT_TRUE(MachineConfig{}.profile.enabled);
    EXPECT_TRUE(HarnessConfig{}.profile.enabled);
    EXPECT_NE(Machine(MachineConfig{}).profiler(), nullptr);
    unsetenv("PCA_DECODE");
    unsetenv("PCA_PROFILE");
    EXPECT_TRUE(MachineConfig{}.decodeCache);
    EXPECT_FALSE(MachineConfig{}.profile.enabled);
    EXPECT_EQ(Machine(MachineConfig{}).profiler(), nullptr);
}

TEST(Patterns, StartPatternsLeaveC0Zero)
{
    for (auto pat :
         {AccessPattern::StartRead, AccessPattern::StartStop}) {
        const HarnessConfig cfg = quietConfig(Interface::Pm, pat);
        const auto m = HarnessSession(cfg, NullBench{}).run();
        EXPECT_EQ(m.c0, 0u);
        EXPECT_GT(m.c1, 0u);
    }
}

TEST(Patterns, ReadPatternsCaptureBoth)
{
    for (auto pat :
         {AccessPattern::ReadRead, AccessPattern::ReadStop}) {
        const HarnessConfig cfg = quietConfig(Interface::Pm, pat);
        const auto m = HarnessSession(cfg, NullBench{}).run();
        EXPECT_GT(m.c0, 0u);
        EXPECT_GT(m.c1, m.c0);
    }
}

TEST(ErrorModel, NullErrorIsNonNegative)
{
    for (Interface i : allInterfaces()) {
        for (AccessPattern p : allPatterns()) {
            if (!patternSupported(i, p))
                continue;
            const HarnessConfig cfg = quietConfig(i, p);
            const auto m =
                HarnessSession(cfg, NullBench{}).run();
            EXPECT_GE(m.error(), 0)
                << interfaceCode(i) << "/" << patternName(p);
        }
    }
}

TEST(ErrorModel, LoopMeasurementMatchesModelPlusOverhead)
{
    const LoopBench loop(10000);
    const HarnessConfig cfg = quietConfig(Interface::Pc);
    const auto m = HarnessSession(cfg, loop).run();
    EXPECT_EQ(m.expected, 30001u);
    // Measured = model + fixed overhead; overhead is the same as
    // for the null benchmark on a quiet machine.
    const auto null_err =
        HarnessSession(cfg, NullBench{}).run().error();
    EXPECT_EQ(m.error(), null_err);
}

TEST(ErrorModel, UserErrorNoLargerThanUserKernel)
{
    for (Interface i : allInterfaces()) {
        const HarnessConfig uk_cfg = quietConfig(
            i, AccessPattern::StartRead, CountingMode::UserKernel);
        const HarnessConfig u_cfg =
            quietConfig(i, AccessPattern::StartRead, CountingMode::User);
        const auto uk =
            HarnessSession(uk_cfg, NullBench{}).run();
        const auto u = HarnessSession(u_cfg, NullBench{}).run();
        EXPECT_LE(u.error(), uk.error()) << interfaceCode(i);
    }
}

TEST(ErrorModel, KernelModeCountsOnlyKernel)
{
    HarnessConfig cfg = quietConfig(Interface::Pc,
                                    AccessPattern::StartRead,
                                    CountingMode::Kernel);
    const auto m = HarnessSession(cfg, NullBench{}).run();
    // Expected is 0 for kernel-only counting; the measured delta is
    // pure kernel-side overhead.
    EXPECT_EQ(m.expected, 0u);
    EXPECT_GT(m.delta(), 0);
}

TEST(Determinism, SameSeedSameResult)
{
    const auto cfg = quietConfig(Interface::PLpc,
                                 AccessPattern::ReadRead);
    const auto a = HarnessSession(cfg, NullBench{}).run();
    const auto b = HarnessSession(cfg, NullBench{}).run();
    EXPECT_EQ(a.c0, b.c0);
    EXPECT_EQ(a.c1, b.c1);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

TEST(Determinism, MeasureManyUsesDistinctSeeds)
{
    HarnessConfig cfg = quietConfig(Interface::Pc);
    cfg.interruptsEnabled = true; // seeds shift interrupt phases
    std::vector<Measurement> ms;
    for (StatusOr<Measurement> &m :
         measurePoint(cfg, LoopBench{2000000}, 4, [&](int r) {
             return mixSeed(cfg.seed, static_cast<std::uint64_t>(r));
         }))
        ms.push_back(std::move(m.value()));
    ASSERT_EQ(ms.size(), 4u);
    // Interrupt phases differ -> at least the cycle counts differ.
    bool any_diff = false;
    for (std::size_t i = 1; i < ms.size(); ++i)
        any_diff |= ms[i].run.cycles != ms[0].run.cycles;
    EXPECT_TRUE(any_diff);
}

TEST(Measurement, TscCapturedForPerfctr)
{
    HarnessConfig cfg = quietConfig(Interface::Pc,
                                    AccessPattern::ReadRead);
    const auto m = HarnessSession(cfg, NullBench{}).run();
    EXPECT_GT(m.tsc1, m.tsc0);
}

TEST(Measurement, AllCounterValuesExposed)
{
    HarnessConfig cfg = quietConfig(Interface::Pm,
                                    AccessPattern::ReadRead);
    cfg.extraEvents = {cpu::EventType::BrInstRetired,
                       cpu::EventType::IcacheMiss};
    const auto m = HarnessSession(cfg, NullBench{}).run();
    EXPECT_EQ(m.c0All.size(), 3u);
    EXPECT_EQ(m.c1All.size(), 3u);
}

TEST(Measurement, CycleMeasurementHasNoExpectedModel)
{
    HarnessConfig cfg = quietConfig(Interface::Pm);
    cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
    const auto m = HarnessSession(cfg, LoopBench{1000}).run();
    EXPECT_EQ(m.expected, 0u);
    // ~2-3 cycles/iteration on K8.
    EXPECT_GT(m.delta(), 2000);
    EXPECT_LT(m.delta(), 10000);
}

TEST(Measurement, GroundTruthMatchesMeasurementForUserMode)
{
    // With perfctr fast reads the measured user-mode c-delta can be
    // cross-checked against the simulator's raw event counts.
    HarnessConfig cfg = quietConfig(Interface::Pc,
                                    AccessPattern::StartRead,
                                    CountingMode::User);
    const auto m = HarnessSession(cfg, LoopBench{5000}).run();
    // raw user instructions = harness + library + benchmark; the
    // measured delta must be smaller but within the overhead bound.
    EXPECT_LE(m.delta(),
              static_cast<SCount>(m.run.userInstr));
    EXPECT_GE(m.delta(), static_cast<SCount>(15001));
}

TEST(CountingModeTest, Names)
{
    EXPECT_STREQ(countingModeName(CountingMode::User), "user");
    EXPECT_STREQ(countingModeName(CountingMode::UserKernel),
                 "user+kernel");
    EXPECT_STREQ(countingModeName(CountingMode::Kernel), "kernel");
    EXPECT_EQ(toPlMask(CountingMode::Kernel), PlMask::Kernel);
}

TEST(InterfaceTest, CodesAndClassification)
{
    EXPECT_STREQ(interfaceCode(Interface::PLpc), "PLpc");
    EXPECT_TRUE(usesPerfmon(Interface::PHpm));
    EXPECT_FALSE(usesPerfmon(Interface::Pc));
    EXPECT_TRUE(isPapiHigh(Interface::PHpc));
    EXPECT_TRUE(isPapiLow(Interface::PLpm));
    EXPECT_FALSE(isPapiLow(Interface::Pm));
    EXPECT_EQ(allInterfaces().size(), 6u);
}

TEST(PatternTest, CodesAndNames)
{
    EXPECT_STREQ(patternCode(AccessPattern::StartRead), "ar");
    EXPECT_STREQ(patternCode(AccessPattern::StartStop), "ao");
    EXPECT_STREQ(patternCode(AccessPattern::ReadRead), "rr");
    EXPECT_STREQ(patternCode(AccessPattern::ReadStop), "ro");
    EXPECT_STREQ(patternName(AccessPattern::ReadStop), "read-stop");
    EXPECT_EQ(allPatterns().size(), 4u);
}

} // namespace
} // namespace pca::harness
