/**
 * @file
 * Property-based tests: invariants swept over the factor space with
 * parameterized gtest suites.
 */

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"

namespace pca::harness
{
namespace
{

using ConfigTuple = std::tuple<cpu::Processor, Interface,
                               AccessPattern, CountingMode>;

std::string
tupleName(const testing::TestParamInfo<ConfigTuple> &info)
{
    const auto &[proc, iface, pat, mode] = info.param;
    std::string s = std::string(cpu::processorCode(proc)) + "_" +
        interfaceCode(iface) + "_" + patternCode(pat) + "_" +
        (mode == CountingMode::User ? "usr" : "uk");
    return s;
}

HarnessConfig
configOf(const ConfigTuple &t, std::uint64_t seed = 1234)
{
    const auto &[proc, iface, pat, mode] = t;
    HarnessConfig cfg;
    cfg.processor = proc;
    cfg.iface = iface;
    cfg.pattern = pat;
    cfg.mode = mode;
    cfg.interruptsEnabled = false;
    cfg.seed = seed;
    return cfg;
}

class EverySupportedConfig
    : public testing::TestWithParam<ConfigTuple>
{
  protected:
    void
    SetUp() override
    {
        const auto &[proc, iface, pat, mode] = GetParam();
        (void)proc;
        (void)mode;
        if (!patternSupported(iface, pat))
            GTEST_SKIP() << "pattern unsupported on this interface";
    }
};

/** Error is never negative: infrastructures only add instructions. */
TEST_P(EverySupportedConfig, NullErrorNonNegative)
{
    const HarnessConfig cfg = configOf(GetParam());
    const auto m = HarnessSession(cfg, NullBench{}).run(cfg.seed);
    EXPECT_GE(m.error(), 0);
}

/** Null error is bounded (no configuration exceeds ~20k). */
TEST_P(EverySupportedConfig, NullErrorBounded)
{
    const HarnessConfig cfg = configOf(GetParam());
    const auto m = HarnessSession(cfg, NullBench{}).run(cfg.seed);
    EXPECT_LT(m.error(), 20000);
}

/** c-delta is exactly model + fixed overhead on a quiet machine. */
TEST_P(EverySupportedConfig, LoopErrorEqualsNullError)
{
    const auto cfg = configOf(GetParam());
    const auto null_err =
        HarnessSession(cfg, NullBench{}).run(cfg.seed).error();
    const auto loop_err =
        HarnessSession(cfg, LoopBench{20000}).run(cfg.seed).error();
    EXPECT_EQ(loop_err, null_err);
}

/** Same seed implies bit-identical measurements. */
TEST_P(EverySupportedConfig, Deterministic)
{
    const auto cfg = configOf(GetParam());
    const auto a = HarnessSession(cfg, LoopBench{5000}).run(cfg.seed);
    const auto b = HarnessSession(cfg, LoopBench{5000}).run(cfg.seed);
    EXPECT_EQ(a.delta(), b.delta());
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

/** Expected model is the paper's 1 + 3*MAX. */
TEST_P(EverySupportedConfig, ExpectedFollowsPaperModel)
{
    const auto cfg = configOf(GetParam());
    const auto m = HarnessSession(cfg, LoopBench{777}).run(cfg.seed);
    EXPECT_EQ(m.expected, 1u + 3u * 777u);
}

INSTANTIATE_TEST_SUITE_P(
    FactorSweep, EverySupportedConfig,
    testing::Combine(
        testing::Values(cpu::Processor::PentiumD,
                        cpu::Processor::Core2Duo,
                        cpu::Processor::AthlonX2),
        testing::Values(Interface::Pm, Interface::Pc,
                        Interface::PLpm, Interface::PLpc,
                        Interface::PHpm, Interface::PHpc),
        testing::Values(AccessPattern::StartRead,
                        AccessPattern::StartStop,
                        AccessPattern::ReadRead,
                        AccessPattern::ReadStop),
        testing::Values(CountingMode::User,
                        CountingMode::UserKernel)),
    tupleName);

class EveryInterface : public testing::TestWithParam<Interface>
{
};

/** User-mode error never exceeds user+kernel error. */
TEST_P(EveryInterface, UserErrorAtMostUserKernel)
{
    for (auto pat : allPatterns()) {
        if (!patternSupported(GetParam(), pat))
            continue;
        auto cfg_uk = configOf({cpu::Processor::Core2Duo, GetParam(),
                                pat, CountingMode::UserKernel});
        auto cfg_u = configOf({cpu::Processor::Core2Duo, GetParam(),
                               pat, CountingMode::User});
        const auto uk =
            HarnessSession(cfg_uk, NullBench{}).run(cfg_uk.seed);
        const auto u = HarnessSession(cfg_u, NullBench{}).run(cfg_u.seed);
        EXPECT_LE(u.error(), uk.error()) << patternName(pat);
    }
}

/** Adding counters never reduces the read-read error. */
TEST_P(EveryInterface, ErrorMonotoneInCounterCountForReadRead)
{
    if (isPapiHigh(GetParam()))
        GTEST_SKIP() << "high-level API lacks read-read";
    SCount prev = -1;
    for (int nc = 1; nc <= 4; ++nc) {
        auto cfg = configOf({cpu::Processor::AthlonX2, GetParam(),
                             AccessPattern::ReadRead,
                             CountingMode::UserKernel});
        const auto &menu = core::defaultExtraEvents();
        for (int i = 0; i + 1 < nc; ++i)
            cfg.extraEvents.push_back(menu[i]);
        const auto err =
            HarnessSession(cfg, NullBench{}).run(cfg.seed).error();
        EXPECT_GE(err, prev) << "nctrs=" << nc;
        prev = err;
    }
}

/** Optimization level does not change instruction-count error. */
TEST_P(EveryInterface, OptLevelDoesNotChangeInstructionError)
{
    SCount baseline = -1;
    for (int opt = 0; opt <= 3; ++opt) {
        auto cfg = configOf({cpu::Processor::Core2Duo, GetParam(),
                             AccessPattern::StartRead,
                             CountingMode::UserKernel});
        cfg.optLevel = opt;
        const auto err =
            HarnessSession(cfg, NullBench{}).run(cfg.seed).error();
        if (baseline < 0)
            baseline = err;
        EXPECT_EQ(err, baseline) << "O" << opt;
    }
}

/**
 * Fast-forward changes nothing observable, and it fires on every
 * processor: the interface moves the loop in memory, and on Pentium D
 * some placements give it a period-2 cost per iteration.
 */
TEST_P(EveryInterface, FastForwardInvariance)
{
    for (const auto proc : {cpu::Processor::PentiumD,
                            cpu::Processor::Core2Duo,
                            cpu::Processor::AthlonX2}) {
        auto cfg = configOf({proc, GetParam(), AccessPattern::StartRead,
                             CountingMode::UserKernel});
        const LoopBench loop(40000);
        cfg.fastForward = true;
        const auto with_ff = HarnessSession(cfg, loop).run(cfg.seed);
        cfg.fastForward = false;
        const auto without_ff = HarnessSession(cfg, loop).run(cfg.seed);
        const char *name = cpu::processorCode(proc);
        EXPECT_EQ(with_ff.delta(), without_ff.delta()) << name;
        EXPECT_EQ(with_ff.run.cycles, without_ff.run.cycles) << name;
        EXPECT_GT(with_ff.run.fastForwardedIters, 0u) << name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllInterfaces, EveryInterface,
    testing::Values(Interface::Pm, Interface::Pc, Interface::PLpm,
                    Interface::PLpc, Interface::PHpm,
                    Interface::PHpc),
    [](const testing::TestParamInfo<Interface> &info) {
        return std::string(interfaceCode(info.param));
    });

/**
 * Timer ticks landing inside a period-2 loop (Pentium D's trace-cache
 * replay) must find the same state with fast-forward on as off: the
 * fold stops short of the tick in whole periods.
 */
TEST(FastForwardPeriod, TimerTicksMidPeriodChangeNothing)
{
    const LoopBench loop(4000000);
    for (const std::uint64_t seed : {1u, 2u}) {
        std::string digest[2];
        for (const bool ff : {false, true}) {
            MachineConfig cfg;
            cfg.processor = cpu::Processor::PentiumD;
            cfg.iface = Interface::Pm;
            cfg.seed = seed;
            cfg.fastForward = ff;
            Machine m(cfg);
            isa::Assembler a("main");
            loop.emit(a);
            a.halt();
            m.addUserBlock(a.take());
            m.finalize();
            const cpu::RunResult r = m.run();
            EXPECT_GT(r.interrupts, 0u) << "seed=" << seed;
            if (ff) {
                EXPECT_GT(r.fastForwardedIters, 0u) << "seed=" << seed;
            }
            std::ostringstream os;
            os << r.userInstr << '/' << r.kernelInstr << '/' << r.cycles
               << '/' << r.interrupts;
            for (std::size_t e = 0; e < cpu::numEvents; ++e)
                for (auto mode : {Mode::User, Mode::Kernel})
                    os << '/'
                       << m.core().rawEvents(
                              static_cast<cpu::EventType>(e), mode);
            digest[ff] = os.str();
        }
        EXPECT_EQ(digest[1], digest[0]) << "seed=" << seed;
    }
}

class EveryProcessor : public testing::TestWithParam<cpu::Processor>
{
};

/** Loop instruction counts are µarch-independent (ISA property). */
TEST_P(EveryProcessor, LoopDeltaIndependentOfMicroArch)
{
    auto cfg = configOf({GetParam(), Interface::Pm,
                         AccessPattern::ReadRead, CountingMode::User});
    const auto m = HarnessSession(cfg, LoopBench{12345}).run(cfg.seed);
    // delta = model + user-mode overhead (identical across arches:
    // library user code is arch-independent).
    EXPECT_EQ(m.delta() - m.expected, 37);
}

/** Cycles per loop iteration stay within the µarch's band. */
TEST_P(EveryProcessor, CyclesPerIterationWithinBand)
{
    auto cfg = configOf({GetParam(), Interface::Pm,
                         AccessPattern::StartRead,
                         CountingMode::UserKernel});
    cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
    const Count iters = 100000;
    const auto m = HarnessSession(cfg, LoopBench{iters}).run(cfg.seed);
    const double cpi =
        static_cast<double>(m.delta()) / static_cast<double>(iters);
    EXPECT_GT(cpi, 0.9);
    EXPECT_LT(cpi, 4.6);
}

/** The TSC effect (Fig 4) holds on every processor. */
TEST_P(EveryProcessor, DisablingTscIncreasesPerfctrReadError)
{
    auto cfg = configOf({GetParam(), Interface::Pc,
                         AccessPattern::ReadRead,
                         CountingMode::UserKernel});
    cfg.tsc = true;
    const auto on = HarnessSession(cfg, NullBench{}).run(cfg.seed);
    cfg.tsc = false;
    const auto off = HarnessSession(cfg, NullBench{}).run(cfg.seed);
    EXPECT_GT(off.error(), on.error() * 5);
}

/** Duration error appears only in user+kernel mode (Figs 7/8). */
TEST_P(EveryProcessor, DurationErrorOnlyWithKernelCounting)
{
    auto base = configOf({GetParam(), Interface::Pm,
                          AccessPattern::StartRead,
                          CountingMode::UserKernel});
    base.interruptsEnabled = true;
    base.ioInterrupts = false;
    base.preemptProb = 0.0;
    base.seed = 4242;
    const LoopBench big(4000000);

    const auto uk = HarnessSession(base, big).run(base.seed);
    auto user_cfg = base;
    user_cfg.mode = CountingMode::User;
    const auto u = HarnessSession(user_cfg, big).run(user_cfg.seed);

    // Interrupts happened in both runs, but only the user+kernel
    // error includes their handlers.
    EXPECT_GT(uk.run.interrupts, 0u);
    EXPECT_GT(uk.error(), 900);
    EXPECT_LT(u.error(), 200);
}

INSTANTIATE_TEST_SUITE_P(
    AllProcessors, EveryProcessor,
    testing::Values(cpu::Processor::PentiumD,
                    cpu::Processor::Core2Duo,
                    cpu::Processor::AthlonX2),
    [](const testing::TestParamInfo<cpu::Processor> &info) {
        return std::string(cpu::processorCode(info.param));
    });

class LoopSizes : public testing::TestWithParam<Count>
{
};

/** The 1 + 3*MAX model holds measured end-to-end at many sizes. */
TEST_P(LoopSizes, MeasuredDeltaIsModelPlusFixedOverhead)
{
    auto cfg = configOf({cpu::Processor::AthlonX2, Interface::Pc,
                         AccessPattern::ReadRead,
                         CountingMode::User});
    const auto m = HarnessSession(cfg, LoopBench{GetParam()}).run(cfg.seed);
    EXPECT_EQ(m.delta(),
              static_cast<SCount>(1 + 3 * GetParam()) + 84);
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTen, LoopSizes,
    testing::Values(1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u),
    [](const testing::TestParamInfo<Count> &info) {
        return "n" + std::to_string(info.param);
    });

} // namespace
} // namespace pca::harness
