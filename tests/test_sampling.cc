/**
 * @file
 * Tests for overflow-driven sampling: PMI delivery, sample counts,
 * PC attribution, and the counting-vs-sampling tradeoffs of Moore's
 * study (paper §9).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "obs/spc.hh"
#include "perfmon/libpfm.hh"

namespace pca::perfmon
{
namespace
{

using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

MachineConfig
quiet()
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = true; // PMIs need the kernel attached
    cfg.ioInterrupts = false;
    cfg.preemptProb = 0.0;
    cfg.seed = 3;
    // Armed sampling forces a run off the block engine, so start on
    // it whatever PCA_DECODE and PCA_PROFILE say.
    cfg.decodeCache = true;
    cfg.profile = obs::ProfileConfig{};
    return cfg;
}

kernel::PerfmonSamplingSpec
instrSampling(Count period)
{
    kernel::PerfmonSamplingSpec s;
    s.event = cpu::EventType::InstrRetired;
    s.pl = PlMask::User;
    s.period = period;
    return s;
}

struct SampleResult
{
    std::vector<Addr> samples;
    cpu::RunResult run;
};

/** Run a loop of @p iters with sampling every @p period instrs. */
SampleResult
runSampledLoop(Count iters, Count period)
{
    Machine m(quiet());
    LibPfm lib(*m.perfmonModule());
    SampleResult r;
    Assembler a("main");
    lib.emitInitialize(a);
    lib.emitCreateContext(a);
    lib.emitSetSampling(a, instrSampling(period));
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, static_cast<std::int64_t>(iters))
        .jne(loop);
    lib.emitStop(a);
    lib.emitReadSamples(a, [&r](const std::vector<Addr> &s) {
        r.samples = s;
    });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    r.run = m.run();
    return r;
}

TEST(Sampling, SampleCountMatchesPeriod)
{
    const Count iters = 100000, period = 10000;
    const auto r = runSampledLoop(iters, period);
    // ~3 instructions per iteration + library code.
    const double expected = 3.0 * static_cast<double>(iters) /
        static_cast<double>(period);
    EXPECT_NEAR(static_cast<double>(r.samples.size()), expected,
                expected * 0.1 + 2);
}

TEST(Sampling, SamplesLandInTheLoop)
{
    const auto r = runSampledLoop(200000, 5000);
    ASSERT_GT(r.samples.size(), 10u);
    // All samples must be user-text addresses (the loop dominates).
    std::size_t in_user_text = 0;
    for (Addr a : r.samples)
        in_user_text += a >= 0x08048000 && a < 0x09000000;
    EXPECT_GT(static_cast<double>(in_user_text),
              0.95 * static_cast<double>(r.samples.size()));
    // The loop body spans ~10 bytes: the hot addresses repeat.
    std::vector<Addr> uniq = r.samples;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    EXPECT_LT(uniq.size(), 12u);
}

TEST(Sampling, PmiHandlersPerturbTheRun)
{
    // Sampling's cost: each PMI runs a kernel handler. A finer
    // period costs more kernel instructions (Moore's tradeoff).
    const auto coarse = runSampledLoop(300000, 100000);
    const auto fine = runSampledLoop(300000, 1000);
    EXPECT_GT(fine.run.kernelInstr,
              coarse.run.kernelInstr + 100000);
    EXPECT_GT(fine.run.interrupts, coarse.run.interrupts + 500);
}

TEST(Sampling, UserInstructionCountUnperturbed)
{
    // The PMI handlers run in kernel mode: the benchmark's user
    // instruction count stays exact (sampling perturbs time, not
    // user-mode counts).
    const auto a = runSampledLoop(100000, 2000);
    const auto b = runSampledLoop(100000, 50000);
    EXPECT_EQ(a.run.userInstr, b.run.userInstr);
}

TEST(Sampling, KernelModePlExcludesHandlerFromSampledEvent)
{
    // The sampled event counts user instructions only; PMI handler
    // instructions must not advance the sampling counter.
    const auto r = runSampledLoop(50000, 1000);
    // 150k loop instructions + ~300 library -> ~150 samples.
    EXPECT_NEAR(static_cast<double>(r.samples.size()), 150.0, 15.0);
}

TEST(Sampling, DisarmedByPeriodZeroGuard)
{
    Machine m(quiet());
    LibPfm lib(*m.perfmonModule());
    Assembler a("main");
    lib.emitInitialize(a);
    lib.emitCreateContext(a);
    lib.emitSetSampling(a, instrSampling(10)); // below minimum
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.tryRun();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), pca::StatusCode::InvalidArgument);
}

TEST(Sampling, FastForwardDisabledWhileSampling)
{
    // Arming sampling mid-run pushes the rest of the run onto the
    // per-step path; the SPCs count that run once and still account
    // for every user instruction.
    obs::spcReset();
    obs::spcAttach("all");
    const auto r = runSampledLoop(500000, 10000);
    EXPECT_EQ(r.run.fastForwardedIters, 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RunsForcedStepSampling), 1u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RunsForcedStepProfiler), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsFolded), 0u);
    EXPECT_GE(obs::spcValue(obs::Spc::UserInstrsStep), 1500000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsBlock) +
                  obs::spcValue(obs::Spc::UserInstrsStep),
              r.run.userInstr);
    obs::spcReset();
}

TEST(Sampling, PmuOverflowMechanism)
{
    // Unit-level: the PMU latches and re-arms.
    cpu::Pmu pmu(cpu::microArch(cpu::Processor::AthlonX2));
    pmu.wrmsr(cpu::Pmu::msrEvtSelBase,
              cpu::Pmu::encodeEvtSel(cpu::EventType::InstrRetired,
                                     PlMask::User, true));
    pmu.setSamplePeriod(0, 100);
    EXPECT_TRUE(pmu.samplingActive());
    pmu.count(cpu::EventType::InstrRetired, Mode::User, 99);
    EXPECT_FALSE(pmu.overflowPending());
    pmu.count(cpu::EventType::InstrRetired, Mode::User, 1);
    EXPECT_TRUE(pmu.overflowPending());
    EXPECT_EQ(pmu.takeOverflow(), 0);
    EXPECT_FALSE(pmu.overflowPending());
    // Counter re-armed: value wrapped to 0.
    EXPECT_EQ(pmu.rdpmc(0), 0u);
    pmu.setSamplePeriod(0, 0);
    EXPECT_FALSE(pmu.samplingActive());
}

} // namespace
} // namespace pca::perfmon
