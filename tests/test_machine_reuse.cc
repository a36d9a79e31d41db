/**
 * @file
 * Machine reuse across sessions: a session takes its thread's idle
 * machine when that machine was booted for the same MachineConfig
 * but seed, and then every run must equal the run of a machine
 * booted for it — on every processor, supported (interface, pattern)
 * and user / user+kernel mode, with and without interrupts, under a
 * fault plan and with a profiler attached.
 */

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "kernel/faults.hh"
#include "obs/spc.hh"
#include "support/random.hh"

using namespace pca;
using namespace pca::harness;

namespace
{

class MachineReuse : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        obs::spcReset();
        obs::spcAttach("machine_boots,machine_reuses");
    }

    void TearDown() override { obs::spcReset(); }
};

Count
boots()
{
    return obs::spcValue(obs::Spc::MachineBoots);
}

Count
reuses()
{
    return obs::spcValue(obs::Spc::MachineReuses);
}

using Runs = std::vector<StatusOr<Measurement>>;

/** The seeds of every compared point. */
std::vector<std::uint64_t>
seeds()
{
    std::vector<std::uint64_t> out;
    for (std::uint64_t k = 0; k < 8; ++k)
        out.push_back(mixSeed(0x7e5eULL, k));
    return out;
}

/**
 * Each seed's run of @p bench at @p cfg on a machine booted for it:
 * on a new thread, which has no idle machine, with every session
 * alive until the last one has run, so none takes another's machine.
 */
Runs
freshRuns(const HarnessConfig &cfg, const MicroBenchmark &bench)
{
    Runs out;
    std::thread([&] {
        const Count before = reuses();
        std::vector<std::unique_ptr<HarnessSession>> live;
        for (std::uint64_t s : seeds()) {
            live.push_back(std::make_unique<HarnessSession>(cfg, bench));
            out.push_back(live.back()->tryRun(s));
        }
        EXPECT_EQ(reuses(), before);
    }).join();
    return out;
}

/**
 * The same runs on one session over a used machine: this thread
 * first runs @p before, another program on the same kind of machine,
 * and drops it; the session then takes its machine.
 */
Runs
reusedRuns(const HarnessConfig &cfg, const MicroBenchmark &bench,
           const HarnessConfig &before,
           const MicroBenchmark &before_bench)
{
    {
        HarnessSession prev(before, before_bench);
        for (std::uint64_t s = 1; s <= 3; ++s)
            (void)prev.tryRun(s);
    }
    const Count taken = reuses();
    HarnessSession sess(cfg, bench);
    EXPECT_EQ(reuses(), taken + 1);
    Runs out;
    for (std::uint64_t s : seeds())
        out.push_back(sess.tryRun(s));
    return out;
}

/** Compared runs that took an interrupt, and runs that took none. */
struct Seen
{
    Count irq = 0, quiet = 0;
};

void
expectSameRuns(const Runs &reused, const Runs &fresh, Seen &seen)
{
    ASSERT_EQ(reused.size(), fresh.size());
    for (std::size_t k = 0; k < fresh.size(); ++k) {
        SCOPED_TRACE("seed #" + std::to_string(k));
        ASSERT_EQ(reused[k].ok(), fresh[k].ok());
        if (!fresh[k].ok()) {
            EXPECT_EQ(reused[k].status().toString(),
                      fresh[k].status().toString());
            continue;
        }
        const Measurement &a = *reused[k];
        const Measurement &b = *fresh[k];
        EXPECT_EQ(a.c0, b.c0);
        EXPECT_EQ(a.c1, b.c1);
        EXPECT_EQ(a.tsc0, b.tsc0);
        EXPECT_EQ(a.tsc1, b.tsc1);
        EXPECT_EQ(a.c0All, b.c0All);
        EXPECT_EQ(a.c1All, b.c1All);
        EXPECT_EQ(a.expected, b.expected);
        EXPECT_EQ(a.run.userInstr, b.run.userInstr);
        EXPECT_EQ(a.run.kernelInstr, b.run.kernelInstr);
        EXPECT_EQ(a.run.cycles, b.run.cycles);
        EXPECT_EQ(a.run.interrupts, b.run.interrupts);
        EXPECT_EQ(a.run.fastForwardedIters, b.run.fastForwardedIters);
        EXPECT_EQ(a.attribution.patternOverhead,
                  b.attribution.patternOverhead);
        EXPECT_EQ(a.attribution.timerInterrupts,
                  b.attribution.timerInterrupts);
        EXPECT_EQ(a.attribution.ioInterrupts,
                  b.attribution.ioInterrupts);
        EXPECT_EQ(a.attribution.preemption, b.attribution.preemption);
        EXPECT_EQ(a.attribution.other, b.attribution.other);
        ++(b.run.interrupts > 0 ? seen.irq : seen.quiet);
    }
}

/**
 * A loop that covers about half a timer period on @p proc, so that
 * some seeds take a tick and others do not.
 */
LoopBench
halfTick(cpu::Processor proc)
{
    HarnessConfig quiet;
    quiet.processor = proc;
    quiet.interruptsEnabled = false;
    constexpr Count probe = 100000;
    const Cycles cycles =
        HarnessSession(quiet, LoopBench(probe)).run().run.cycles;
    return LoopBench(cpu::microArch(proc).timerPeriodCycles() / 2 *
                     probe / cycles);
}

/** A pattern @p iface supports other than @p pat. */
AccessPattern
otherPattern(Interface iface, AccessPattern pat)
{
    for (AccessPattern p : allPatterns())
        if (p != pat && patternSupported(iface, p))
            return p;
    ADD_FAILURE() << interfaceCode(iface) << " has one pattern";
    return pat;
}

/** A config one step away from another, and what the step changed. */
using Edit = std::pair<const char *, std::function<void(MachineConfig &)>>;

/**
 * One edit of every MachineConfig field but seed, and of every
 * field of its fault plan and profiler. The decode and profiler
 * switches toggle, since PCA_DECODE and PCA_PROFILE set their
 * defaults.
 */
std::vector<Edit>
machineEdits()
{
    using C = MachineConfig;
    return {
        {"processor", [](C &c) { c.processor = cpu::Processor::PentiumD; }},
        {"iface", [](C &c) { c.iface = Interface::Pc; }},
        {"interruptsEnabled", [](C &c) { c.interruptsEnabled = false; }},
        {"ioInterrupts", [](C &c) { c.ioInterrupts = false; }},
        {"preemptProb", [](C &c) { c.preemptProb = 0.5; }},
        {"fastForward", [](C &c) { c.fastForward = false; }},
        {"decodeCache", [](C &c) { c.decodeCache = !c.decodeCache; }},
        {"traceTier", [](C &c) { c.traceTier = false; }},
        {"usePerfEvent", [](C &c) { c.usePerfEvent = true; }},
        {"faults.busyRate", [](C &c) { c.faults.busyRate = 0.1; }},
        {"faults.dropRate", [](C &c) { c.faults.dropRate = 0.1; }},
        {"faults.spuriousRate", [](C &c) { c.faults.spuriousRate = 0.1; }},
        {"faults.attachRate", [](C &c) { c.faults.attachRate = 0.1; }},
        {"faults.readFailRate", [](C &c) { c.faults.readFailRate = 0.1; }},
        {"faults.tornRate", [](C &c) { c.faults.tornRate = 0.1; }},
        {"faults.hangRate", [](C &c) { c.faults.hangRate = 0.1; }},
        {"faults.counterWidthBits",
         [](C &c) { c.faults.counterWidthBits = 48; }},
        {"faults.watchdogInstrs", [](C &c) { c.faults.watchdogInstrs = 9; }},
        {"faults.watchdogCycles", [](C &c) { c.faults.watchdogCycles = 9; }},
        {"faults.retry", [](C &c) { c.faults.retry.retries = 9; }},
        {"faults.seed", [](C &c) { c.faults.seed = 9; }},
        {"profile.enabled",
         [](C &c) { c.profile.enabled = !c.profile.enabled; }},
        {"profile.periodTicks", [](C &c) { c.profile.periodTicks = 9; }},
        {"profile.skidInstrs", [](C &c) { c.profile.skidInstrs = 9; }},
        {"timerPeriodOverride", [](C &c) { c.timerPeriodOverride = 9; }},
        {"runInstrBudget", [](C &c) { c.runInstrBudget = 9; }},
        {"runCycleBudget", [](C &c) { c.runCycleBudget = 9; }},
    };
}

} // namespace

/**
 * The contract machine reuse rests on: a machine that ran one point
 * and then links another returns, for every seed, exactly what
 * machines booted for that point return. The earlier point differs
 * in everything that is not the machine's: pattern, mode, opt level
 * and a benchmark several timer ticks long.
 */
TEST_F(MachineReuse, ReusedMachineRunsEqualFreshBoots)
{
    Seen seen;
    const NullBench null;
    for (cpu::Processor proc : cpu::allProcessors()) {
        const LoopBench tick = halfTick(proc);
        const LoopBench ticks(8 * tick.iterations());
        const MicroBenchmark *benches[] = {&null, &tick};
        for (Interface iface : allInterfaces()) {
            for (AccessPattern pat : allPatterns()) {
                if (!patternSupported(iface, pat))
                    continue;
                for (CountingMode mode :
                     {CountingMode::User, CountingMode::UserKernel}) {
                    SCOPED_TRACE(std::string(cpu::processorCode(proc)) +
                                 "/" + interfaceCode(iface) + "/" +
                                 patternName(pat) + "/" +
                                 countingModeName(mode));
                    HarnessConfig cfg;
                    cfg.processor = proc;
                    cfg.iface = iface;
                    cfg.pattern = pat;
                    cfg.mode = mode;
                    // The next test covers a profiled machine; this
                    // sweep would take minutes on the per-step path.
                    cfg.profile = obs::ProfileConfig{};
                    HarnessConfig before = cfg;
                    before.pattern = otherPattern(iface, pat);
                    before.mode = mode == CountingMode::User
                        ? CountingMode::UserKernel
                        : CountingMode::User;
                    before.optLevel = 0;
                    for (const MicroBenchmark *bench : benches)
                        expectSameRuns(
                            reusedRuns(cfg, *bench, before, ticks),
                            freshRuns(cfg, *bench), seen);
                }
            }
        }
    }
    // Not vacuous: seeds on both sides of the interrupt horizon.
    EXPECT_GT(seen.irq, 0u);
    EXPECT_GT(seen.quiet, 0u);
}

/**
 * Machines that carry more than a core and a kernel: a fault plan
 * with torn reads on 48-bit counters (injector, read tamper, counter
 * width), and a profiler (symbols and histograms).
 */
TEST_F(MachineReuse, FaultPlanAndProfilerMachinesEqualFreshBoots)
{
    Seen seen;
    const LoopBench tick = halfTick(cpu::Processor::Core2Duo);
    HarnessConfig torn;
    torn.iface = Interface::PLpm;
    torn.pattern = AccessPattern::ReadRead;
    torn.faults = kernel::FaultPlan::parse("seed=9,torn=0.3,width=48");
    HarnessConfig profiled;
    profiled.iface = Interface::Pc;
    profiled.pattern = AccessPattern::StartStop;
    profiled.profile.enabled = true;
    profiled.profile.skidInstrs = 3;
    for (const HarnessConfig &cfg : {torn, profiled}) {
        HarnessConfig before = cfg;
        before.pattern = AccessPattern::StartRead;
        before.mode = CountingMode::User;
        expectSameRuns(reusedRuns(cfg, tick, before, tick),
                       freshRuns(cfg, tick), seen);
    }
    EXPECT_GT(seen.irq, 0u);
    EXPECT_GT(seen.quiet, 0u);
}

/**
 * The slot's key: machines for two configs are interchangeable
 * exactly when the configs differ at most in their seeds.
 */
TEST_F(MachineReuse, SameMachineIgnoresOnlyTheSeed)
{
    const MachineConfig base;
    MachineConfig reseeded = base;
    reseeded.seed = 77;
    EXPECT_TRUE(sameMachine(base, reseeded));
    EXPECT_TRUE(sameMachine(reseeded, base));
    for (const auto &[field, edit] : machineEdits()) {
        MachineConfig other = reseeded;
        edit(other);
        EXPECT_FALSE(sameMachine(base, other)) << field;
        EXPECT_FALSE(sameMachine(other, base)) << field;
    }
}

/**
 * Sessions see the key through their HarnessConfig, which is a
 * MachineConfig: the program's own factors keep the idle machine,
 * and every machine field makes the session boot another. The edits
 * are SameMachineIgnoresOnlyTheSeed's but usePerfEvent, which
 * sessions reject (PatternsDeathTest.PerfEventMachineIsFatal).
 */
TEST_F(MachineReuse, SessionsBootForEveryMachineFactor)
{
    std::thread([] {
        const NullBench null;
        const HarnessConfig base;
        { HarnessSession first(base, null); }
        HarnessConfig program = base;
        program.seed = 99;
        program.pattern = AccessPattern::ReadStop;
        program.mode = CountingMode::User;
        program.optLevel = 0;
        program.primaryEvent = cpu::EventType::CpuClkUnhalted;
        program.extraEvents = {cpu::EventType::InstrRetired};
        program.tsc = false;
        const Count booted = boots();
        { HarnessSession same(program, null); }
        EXPECT_EQ(boots(), booted);
        EXPECT_EQ(reuses(), 1u);

        for (const auto &[field, edit] : machineEdits()) {
            if (std::string(field) == "usePerfEvent")
                continue;
            HarnessConfig other = base;
            edit(other);
            { HarnessSession idle(base, null); }
            const Count before = boots();
            { HarnessSession s(other, null); }
            EXPECT_EQ(boots(), before + 1) << field;
        }
    }).join();
}

/**
 * At most one machine waits per thread: two sessions alive together
 * hold two machines, and once both end only one of them is kept. A
 * session that boots drops the idle machine first, so a thread holds
 * at most one machine beyond its live sessions.
 */
TEST_F(MachineReuse, AThreadKeepsOneIdleMachine)
{
    std::thread([] {
        const NullBench null;
        const HarnessConfig cfg;
        {
            HarnessSession a(cfg, null);
            HarnessSession b(cfg, null);
        }
        EXPECT_EQ(boots(), 2u);
        EXPECT_EQ(reuses(), 0u);
        {
            HarnessSession c(cfg, null);
            HarnessSession d(cfg, null);
        }
        EXPECT_EQ(boots(), 3u);
        EXPECT_EQ(reuses(), 1u);
        HarnessConfig other = cfg;
        other.processor = cpu::Processor::AthlonX2;
        {
            HarnessSession e(other, null);
            HarnessSession f(cfg, null);
        }
        EXPECT_EQ(boots(), 5u);
        EXPECT_EQ(reuses(), 1u);
    }).join();
}
