/**
 * @file
 * The parallel study engine's two contracts: parallelFor runs every
 * index exactly once and propagates failures, and parallelism plus
 * per-point session reuse are *invisible* — a rebooted session
 * produces Measurements identical to a fresh session, and every
 * canned study emits byte-identical CSV under PCA_THREADS=1 and
 * PCA_THREADS=4.
 */

#include <atomic>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/machine.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "kernel/faults.hh"
#include "kernel/kernel.hh"
#include "obs/spc.hh"
#include "support/parallel.hh"
#include "support/random.hh"

using namespace pca;
using namespace pca::harness;

// ---------------------------------------------------------------- //
// parallelFor unit tests
// ---------------------------------------------------------------- //

TEST(ParallelFor, EmptyRangeCallsNothing)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t) { ++calls; }, 4);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleItemRunsInline)
{
    std::atomic<int> calls{0};
    parallelFor(
        1,
        [&](std::size_t i) {
            EXPECT_EQ(i, 0u);
            ++calls;
        },
        8);
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, MoreWorkersThanItems)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(
        3, [&](std::size_t i) { ++hits[i]; }, 16);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EveryIndexExactlyOnce)
{
    constexpr std::size_t n = 997;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(
        n, [&](std::size_t i) { ++hits[i]; }, 4);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SerialFallbackPreservesIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(
        10, [&](std::size_t i) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ExceptionPropagatesFromWorker)
{
    EXPECT_THROW(
        parallelFor(
            100,
            [](std::size_t i) {
                if (i == 57)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesInline)
{
    EXPECT_THROW(
        parallelFor(
            3,
            [](std::size_t i) {
                if (i == 2)
                    throw std::runtime_error("boom");
            },
            1),
        std::runtime_error);
}

TEST(ParallelFor, WorkerThrowKeepsLowestIndexError)
{
    // Two items fail; the rethrown exception must always be the
    // lower index's, regardless of which worker threw first.
    for (int round = 0; round < 8; ++round) {
        try {
            parallelFor(
                100,
                [](std::size_t i) {
                    if (i == 13)
                        throw std::runtime_error("boom13");
                    if (i == 77)
                        throw std::runtime_error("boom77");
                },
                4);
            FAIL() << "parallelFor swallowed the worker exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom13");
        }
    }
}

TEST(ParallelFor, EnvThreadsWorkerThrowDoesNotTerminate)
{
    // Regression: with PCA_THREADS=4 a throwing body used to be an
    // unhandled exception on a worker thread (std::terminate). It
    // must surface on the calling thread instead.
    setenv("PCA_THREADS", "4", 1);
    EXPECT_THROW(parallelFor(
                     64,
                     [](std::size_t i) {
                         if (i == 20)
                             throw std::runtime_error("boom");
                     },
                     0),
                 std::runtime_error);
    unsetenv("PCA_THREADS");
}

TEST(ParallelThreads, EnvControlsDefaultCount)
{
    setenv("PCA_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3);
    // 0 is rejected with a warning, like any unparsable value.
    setenv("PCA_THREADS", "0", 1);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
    unsetenv("PCA_THREADS");
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
}

TEST(ParallelThreads, AutoSpecMeansHardwareConcurrency)
{
    setenv("PCA_THREADS", "auto", 1);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
    unsetenv("PCA_THREADS");
}

// ---------------------------------------------------------------- //
// Session equivalence
// ---------------------------------------------------------------- //

namespace
{

void
expectSameMeasurement(const Measurement &a, const Measurement &b)
{
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
    EXPECT_EQ(a.attribution.ioInterrupts, b.attribution.ioInterrupts);
    EXPECT_EQ(a.attribution.preemption, b.attribution.preemption);
    EXPECT_EQ(a.attribution.other, b.attribution.other);
}

} // namespace

/**
 * The contract session reuse rests on: run(s) on a reused, rebooted
 * session equals the first run(s) of a fresh session —
 * for every interface, pattern, and mode, with interrupts and
 * preemption on.
 */
TEST(SessionEquivalence, RebootedRunEqualsFreshHarness)
{
    const LoopBench bench(5000);
    for (Interface iface : allInterfaces()) {
        for (AccessPattern pat : allPatterns()) {
            if (!patternSupported(iface, pat))
                continue;
            HarnessConfig cfg;
            cfg.iface = iface;
            cfg.pattern = pat;
            cfg.seed = 99;
            HarnessSession sess(cfg, bench);
            // Run the session repeatedly, interleaving seeds, so
            // later runs must not inherit state from earlier ones.
            const Measurement warm = sess.run(7);
            const Measurement viaSession = sess.run(99);
            const Measurement warmAgain = sess.run(7);
            const Measurement fresh =
                HarnessSession(cfg, bench).run();
            expectSameMeasurement(viaSession, fresh);
            expectSameMeasurement(warm, warmAgain);
        }
    }
}

TEST(SessionEquivalence, CoversModesAndCounterSets)
{
    const NullBench bench;
    for (CountingMode mode :
         {CountingMode::User, CountingMode::UserKernel,
          CountingMode::Kernel}) {
        HarnessConfig cfg;
        cfg.iface = Interface::Pc;
        cfg.pattern = AccessPattern::ReadRead;
        cfg.mode = mode;
        cfg.extraEvents = {cpu::EventType::CpuClkUnhalted};
        cfg.seed = 1234;
        HarnessSession sess(cfg, bench);
        sess.run(5);
        expectSameMeasurement(
            sess.run(1234), HarnessSession(cfg, bench).run());
    }
}

/**
 * Machine::reboot's identity contract under adverse state: after
 * fault-heavy runs that leave pending interrupts and a consumed
 * fault-decision stream behind, reboot(s) + run must still equal a
 * freshly constructed machine booted at seed s.
 */
TEST(SessionEquivalence, RebootUnderAdverseFaultStateMatchesFreshBoot)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.faults = kernel::FaultPlan::parse(
        "seed=3,drop=0.3,spurious=0.3,width=48");

    const auto buildLoop = [](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Eax, 0);
        const int loop = a.label();
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax, 50000)
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
        m.finalize();
    };

    Machine adverse(cfg);
    buildLoop(adverse);
    // Dirty the machine: several runs at other seeds, each drawing
    // from the fault streams and leaving interrupt state behind.
    (void)adverse.tryRun(); // boot seed
    for (std::uint64_t s : {11u, 12u, 13u}) {
        adverse.reboot(s);
        (void)adverse.tryRun();
    }

    adverse.reboot(42);
    const auto r1 = adverse.tryRun();

    MachineConfig freshCfg = cfg;
    freshCfg.seed = 42;
    Machine fresh(freshCfg);
    buildLoop(fresh);
    const auto r2 = fresh.tryRun();

    ASSERT_EQ(r1.ok(), r2.ok());
    if (r1.ok()) {
        EXPECT_EQ(r1->userInstr, r2->userInstr);
        EXPECT_EQ(r1->kernelInstr, r2->kernelInstr);
        EXPECT_EQ(r1->cycles, r2->cycles);
        EXPECT_EQ(r1->interrupts, r2->interrupts);
    } else {
        EXPECT_EQ(r1.status().toString(), r2.status().toString());
    }
}

/**
 * The same contract one level up: a session that has burned retries
 * on earlier faulty runs must produce the same result for seed s as
 * a fresh session that never faulted.
 */
TEST(SessionEquivalence, RetryHistoryInvisibleAcrossSessionRuns)
{
    const NullBench bench;
    HarnessConfig cfg;
    cfg.faults =
        kernel::FaultPlan::parse("seed=5,attach=0.4,retries=6");

    HarnessSession dirty(cfg, bench);
    for (std::uint64_t s = 1; s <= 4; ++s)
        (void)dirty.tryRun(s);
    const auto viaDirty = dirty.tryRun(42);

    HarnessSession freshSess(cfg, bench);
    const auto viaFresh = freshSess.tryRun(42);

    ASSERT_EQ(viaDirty.ok(), viaFresh.ok());
    if (viaDirty.ok())
        expectSameMeasurement(*viaDirty, *viaFresh);
    else
        EXPECT_EQ(viaDirty.status().toString(),
                  viaFresh.status().toString());
}

/**
 * Result reuse on both sides of its decision: every session runs 8
 * seeds, and each run must equal a fresh session's first run (which
 * never reuses) at the same seed — on every processor, supported
 * (interface, pattern) and user / user+kernel mode, for the null
 * benchmark and for a loop that covers about half a timer period,
 * so that some of its seeds take a tick and others do not.
 */
TEST(SessionEquivalence, ReusedAndSimulatedRunsEqualFreshHarness)
{
    constexpr int seeds = 8;
    obs::spcReset();
    obs::spcAttach("runs_reused,runs_reuse_blocked_irq");
    Count sessions = 0, mixed = 0;
    // One session of @p bench at @p cfg, each run against a fresh
    // harness; counts the sessions that reused some runs, not all.
    const auto check = [&](HarnessConfig cfg, const MicroBenchmark &bench) {
        const Count before = obs::spcValue(obs::Spc::RunsReused);
        HarnessSession sess(cfg, bench);
        for (int k = 0; k < seeds; ++k) {
            cfg.seed = mixSeed(sessions, 0x5e55ULL + k);
            expectSameMeasurement(sess.run(cfg.seed),
                                  HarnessSession(cfg, bench).run());
        }
        const Count reused = obs::spcValue(obs::Spc::RunsReused) - before;
        mixed += reused > 0 && reused < seeds - 1;
        ++sessions;
    };
    const NullBench null;
    for (cpu::Processor proc : cpu::allProcessors()) {
        // Size the loop from its interrupt-free cycles per iteration.
        HarnessConfig quiet;
        quiet.processor = proc;
        quiet.interruptsEnabled = false;
        constexpr Count probe = 100000;
        const Cycles probeCycles =
            HarnessSession(quiet, LoopBench(probe)).run().run.cycles;
        const LoopBench halfTick(cpu::microArch(proc).timerPeriodCycles() /
                                 2 * probe / probeCycles);
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
                    cfg.profile = obs::ProfileConfig{}; // blocks reuse
                    check(cfg, null);
                    check(cfg, halfTick);
                }
            }
        }
    }
    // Not vacuous: runs were reused, runs were blocked by a tick,
    // and some sessions interleaved the two. Every later run of an
    // inert plan is one or the other.
    const Count reused = obs::spcValue(obs::Spc::RunsReused);
    const Count blocked = obs::spcValue(obs::Spc::RunsReuseBlockedIrq);
    obs::spcReset();
    EXPECT_GT(reused, 0u);
    EXPECT_GT(blocked, 0u);
    EXPECT_GT(mixed, 0u);
    EXPECT_EQ(reused + blocked, sessions * (seeds - 1));
}

/**
 * A fault plan reaches interrupt-free runs (here: torn counter
 * reads), so its sessions must simulate every seed.
 */
TEST(SessionEquivalence, FaultPlanRunsEqualFreshHarness)
{
    const NullBench bench;
    HarnessConfig cfg;
    cfg.interruptsEnabled = false;
    cfg.faults = kernel::FaultPlan::parse("seed=9,torn=0.3");
    HarnessSession sess(cfg, bench);
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        cfg.seed = seed;
        const auto viaSession = sess.tryRun(seed);
        const auto fresh = HarnessSession(cfg, bench).tryRun(cfg.seed);
        ASSERT_EQ(viaSession.ok(), fresh.ok());
        if (viaSession.ok())
            expectSameMeasurement(*viaSession, *fresh);
    }
}

// ---------------------------------------------------------------- //
// Sibling-mode readings
// ---------------------------------------------------------------- //

/**
 * The oracle for readings a User+Kernel session derives for another
 * counting mode: at every seed, the User and the Kernel reading it
 * reports equal, field by field, the reading of a session of that
 * mode executing the run itself. Two sweeps: every mode pair of
 * Figure 1's null study (all three processors; 1, 2, 4 and, on
 * Pentium D, 18 counters; both TSC settings), and a loop a quarter
 * of a timer period long with every tick preempting the thread, so
 * that some readings cross an interrupt and perfctr's switch-out/in
 * path.
 */
TEST(ModeDerivation, DerivedReadingsEqualSeparateSessions)
{
    obs::spcReset();
    obs::spcAttach("readings_derived");
    Count derived = 0, interrupted = 0, preempted = 0;
    const auto check = [&](HarnessConfig cfg, const MicroBenchmark &bench,
                           std::uint64_t key) {
        cfg.mode = CountingMode::UserKernel;
        HarnessSession uk(cfg, bench);
        for (CountingMode mode :
             {CountingMode::User, CountingMode::Kernel}) {
            cfg.mode = mode;
            HarnessSession own(cfg, bench);
            for (std::uint64_t k = 0; k < 3; ++k) {
                const std::uint64_t seed = mixSeed(key, k);
                SCOPED_TRACE(std::string(countingModeName(mode)) +
                             " seed=" + std::to_string(seed));
                const auto got = uk.tryRun(seed, nullptr, mode);
                ASSERT_TRUE(got.ok());
                expectSameMeasurement(*got, own.run(seed));
                ++derived;
                interrupted += got->run.interrupts > 0;
                preempted += got->attribution.preemption > 0;
            }
        }
    };

    const NullBench null;
    const auto points = core::FactorSpace()
                            .counterCounts({1, 2, 4, 18})
                            .tscSettings({true, false})
                            .modes({CountingMode::UserKernel})
                            .generate();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const core::FactorPoint &p = points[i];
        SCOPED_TRACE(std::string(cpu::processorCode(p.processor)) + "/" +
                     interfaceCode(p.iface) + "/" +
                     patternName(p.pattern) + "/O" +
                     std::to_string(p.optLevel) + "/n" +
                     std::to_string(p.numCounters) +
                     (p.tsc ? "/tsc" : "/notsc"));
        check(p.toHarnessConfig(0), null, i);
    }

    std::uint64_t loopKey = 0;
    for (cpu::Processor proc : cpu::allProcessors()) {
        HarnessConfig quiet;
        quiet.processor = proc;
        quiet.interruptsEnabled = false;
        constexpr Count probe = 100000;
        const Cycles probeCycles =
            HarnessSession(quiet, LoopBench(probe)).run().run.cycles;
        const LoopBench quarterTick(
            cpu::microArch(proc).timerPeriodCycles() / 4 * probe /
            probeCycles);
        for (Interface iface : allInterfaces())
            for (AccessPattern pat : allPatterns()) {
                if (!patternSupported(iface, pat))
                    continue;
                SCOPED_TRACE(std::string(cpu::processorCode(proc)) +
                             "/" + interfaceCode(iface) + "/" +
                             patternName(pat) + " preempted loop");
                HarnessConfig cfg;
                cfg.processor = proc;
                cfg.iface = iface;
                cfg.pattern = pat;
                cfg.preemptProb = 1.0;
                cfg.extraEvents = {cpu::EventType::BrInstRetired};
                check(cfg, quarterTick, mixSeed(points.size(), loopKey++));
            }
    }

    // Every derived reading counts once, and the loop sweep reaches
    // interrupted and preempted runs.
    EXPECT_EQ(obs::spcValue(obs::Spc::ReadingsDerived), derived);
    obs::spcReset();
    EXPECT_GT(interrupted, 0u);
    EXPECT_GT(preempted, 0u);
}

namespace
{

/**
 * Every row of a null-study table equals its point measured alone:
 * one session of the point's own config (counting mode included)
 * under @p plan, at the study's seeds.
 */
void
expectRowsEqualPointsAlone(const core::DataTable &table,
                           const std::vector<core::FactorPoint> &points,
                           int runs, std::uint64_t seed,
                           const kernel::FaultPlan &plan)
{
    ASSERT_EQ(table.size(), points.size() * static_cast<std::size_t>(runs));
    const NullBench null;
    for (std::size_t i = 0; i < points.size(); ++i) {
        HarnessConfig cfg = points[i].toHarnessConfig(seed);
        cfg.faults = plan;
        const auto alone = measurePoint(cfg, null, runs, [&](int r) {
            return mixSeed(seed, (i + 1) * 1000 +
                                     static_cast<std::uint64_t>(r));
        });
        for (std::size_t r = 0; r < alone.size(); ++r) {
            ASSERT_TRUE(alone[r].ok());
            EXPECT_EQ(table.value(i * alone.size() + r),
                      static_cast<double>(alone[r]->error()))
                << "point " << i << " run " << r;
        }
    }
}

} // namespace

/**
 * The null study end to end: over both counting modes, both TSC
 * settings, two counter counts and two opt levels, it builds one
 * session per user / user+kernel pair, derives every user reading,
 * and each row equals its point measured alone in its own mode.
 */
TEST(ModeDerivation, NullStudyRowsEqualEachPointMeasuredAlone)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::PentiumD,
                                         cpu::Processor::AthlonX2})
                            .optLevels({0, 3})
                            .counterCounts({1, 2})
                            .tscSettings({true, false})
                            .generate();
    constexpr int runs = 2;
    constexpr std::uint64_t seed = 7;
    obs::spcReset();
    obs::spcAttach("program_cache_misses,readings_derived");
    const core::DataTable table =
        core::runNullErrorStudy(points, runs, seed);
    const Count sessions = obs::spcValue(obs::Spc::ProgramCacheMisses);
    const Count derived = obs::spcValue(obs::Spc::ReadingsDerived);
    obs::spcReset();
    EXPECT_EQ(sessions, points.size() / 2);
    EXPECT_EQ(derived, points.size() / 2 * runs);
    expectRowsEqualPointsAlone(table, points, runs, seed, {});
}

/**
 * Sibling grouping is off under a fault plan that can fire. At an
 * 8-bit counter width every read wraps, so a User+Kernel value minus
 * its kernel rows is not what a user-mode counter reads: the null
 * study builds a session per point and derives nothing, and each of
 * its rows equals the point measured alone.
 */
TEST(ModeDerivation, FaultPlanKeepsASessionPerPoint)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .generate();
    constexpr int runs = 2;
    constexpr std::uint64_t seed = 42;
    setenv("PCA_FAULTS", "width=8", 1);
    obs::spcReset();
    obs::spcAttach("program_cache_misses,readings_derived");
    const core::DataTable table =
        core::runNullErrorStudy(points, runs, seed);
    const Count sessions = obs::spcValue(obs::Spc::ProgramCacheMisses);
    const Count derived = obs::spcValue(obs::Spc::ReadingsDerived);
    obs::spcReset();
    unsetenv("PCA_FAULTS");
    EXPECT_EQ(sessions, points.size());
    EXPECT_EQ(derived, 0u);
    expectRowsEqualPointsAlone(table, points, runs, seed,
                               kernel::FaultPlan::parse("width=8"));
}

// ---------------------------------------------------------------- //
// Result reuse counters
// ---------------------------------------------------------------- //

namespace
{

struct ReuseCounts
{
    Count reused, blocked, executed;
};

/** The reuse SPCs of one 12-run point of @p bench at @p cfg. */
ReuseCounts
countReuse(const HarnessConfig &cfg, const MicroBenchmark &bench)
{
    obs::spcReset();
    obs::spcAttach("runs_reused,runs_reuse_blocked_irq,runs_executed");
    const auto runs = measurePoint(cfg, bench, 12, [](int r) {
        return mixSeed(7, static_cast<std::uint64_t>(r));
    });
    for (const auto &m : runs)
        EXPECT_TRUE(m.ok());
    const ReuseCounts c{obs::spcValue(obs::Spc::RunsReused),
                        obs::spcValue(obs::Spc::RunsReuseBlockedIrq),
                        obs::spcValue(obs::Spc::RunsExecuted)};
    obs::spcReset();
    return c;
}

} // namespace

TEST(ResultReuse, KnownAnswersForATwelveRunPoint)
{
    const NullBench null;
    HarnessConfig plain;
    plain.profile = obs::ProfileConfig{}; // a profiler blocks reuse
    HarnessConfig quiet = plain;
    quiet.interruptsEnabled = false;
    ReuseCounts c = countReuse(quiet, null);
    EXPECT_EQ(c.reused, 11u);
    EXPECT_EQ(c.blocked, 0u);
    EXPECT_EQ(c.executed, 1u);

    // A fault plan or a profiler draws on the seed: nothing is reused,
    // and nothing counts as blocked by an interrupt.
    HarnessConfig faulty = quiet;
    faulty.faults = kernel::FaultPlan::parse("seed=1,width=48");
    c = countReuse(faulty, null);
    EXPECT_EQ(c.reused, 0u);
    EXPECT_EQ(c.blocked, 0u);
    EXPECT_EQ(c.executed, 12u);
    HarnessConfig profiled = quiet;
    profiled.profile.enabled = true;
    c = countReuse(profiled, null);
    EXPECT_EQ(c.reused, 0u);
    EXPECT_EQ(c.blocked, 0u);
    EXPECT_EQ(c.executed, 12u);

    // A loop longer than one timer period takes a tick on every seed.
    c = countReuse(plain, LoopBench(5000000));
    EXPECT_EQ(c.reused, 0u);
    EXPECT_EQ(c.blocked, 11u);
    EXPECT_EQ(c.executed, 12u);

    // On an inert plan every later run is one or the other.
    c = countReuse(plain, null);
    EXPECT_EQ(c.reused + c.blocked, 11u);
    EXPECT_EQ(c.executed, 12u - c.reused);
}

TEST(ResultReuse, SeedHorizonNeedsNoReboot)
{
    // seedHorizon(seed) reads, from the seed alone, what a reboot
    // with that seed leaves due, whatever the machine ran or was
    // booted with before.
    for (const cpu::Processor proc : cpu::allProcessors())
        for (const bool io : {true, false})
            for (const Cycles period : {Cycles{0}, Cycles{100000}}) {
                MachineConfig mc;
                mc.processor = proc;
                mc.ioInterrupts = io;
                mc.timerPeriodOverride = period;
                // A profiler's horizon is 0; checked below.
                mc.profile = obs::ProfileConfig{};
                Machine m(mc);
                m.finalize();
                for (std::uint64_t s = 0; s < 200; ++s) {
                    const std::uint64_t seed = mixSeed(99, s);
                    const Cycles horizon = m.seedHorizon(seed);
                    m.reboot(seed);
                    ASSERT_EQ(horizon,
                              m.kernel().interrupts().nextInterruptCycle())
                        << cpu::processorCode(proc) << " io=" << io
                        << " period=" << period << " seed " << s;
                }
            }

    // No interrupts: never. A fault injector or a profiler draws on
    // the seed from cycle 0.
    MachineConfig quiet;
    quiet.interruptsEnabled = false;
    quiet.profile = obs::ProfileConfig{};
    MachineConfig faulty;
    faulty.faults = kernel::FaultPlan::parse("seed=1,width=48");
    MachineConfig profiled;
    profiled.profile.enabled = true;
    Machine q(quiet), f(faulty), p(profiled);
    for (std::uint64_t s = 0; s < 50; ++s) {
        EXPECT_EQ(q.seedHorizon(s), ~Cycles{0});
        EXPECT_EQ(f.seedHorizon(s), 0u);
        EXPECT_EQ(p.seedHorizon(s), 0u);
    }
}

TEST(ResultReuse, OnlyExecutedRunsReboot)
{
    // Interrupts off: one run executes, eleven reuse it unbooted.
    HarnessConfig quiet;
    quiet.interruptsEnabled = false;
    quiet.profile = obs::ProfileConfig{}; // a profiler blocks reuse
    obs::spcReset();
    obs::spcAttach("machine_reboots,runs_executed,runs_reused");
    const auto runs = measurePoint(quiet, NullBench(), 12, [](int r) {
        return mixSeed(7, static_cast<std::uint64_t>(r));
    });
    EXPECT_EQ(runs.size(), 12u);
    EXPECT_EQ(obs::spcValue(obs::Spc::MachineReboots), 1u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RunsExecuted), 1u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RunsReused), 11u);
    obs::spcReset();
}

// ---------------------------------------------------------------- //
// Shared kernel image
// ---------------------------------------------------------------- //

TEST(SharedKernelImage, OneKeyOneText)
{
    const auto machine = [](Interface iface) {
        MachineConfig cfg;
        cfg.processor = cpu::Processor::PentiumD;
        cfg.iface = iface;
        return std::make_unique<Machine>(cfg);
    };
    const auto pm1 = machine(Interface::Pm);
    const auto pm2 = machine(Interface::Pm);
    const auto plpm = machine(Interface::PLpm); // perfmon2 as well
    const auto pc = machine(Interface::Pc);
    const isa::CodeBlock *text = &pm1->program().block(0);
    EXPECT_EQ(&pm2->program().block(0), text);
    EXPECT_EQ(&plpm->program().block(0), text);
    EXPECT_NE(&pc->program().block(0), text);
}

/**
 * Host ops in the shared text act on the machine that runs them:
 * two live sessions of one config, run alternately, each match a
 * fresh machine, on every processor and interface.
 */
TEST(SharedKernelImage, InterleavedSessionsEqualFreshMachines)
{
    const LoopBench bench(5000000); // long enough for timer ticks
    Count interrupts = 0;
    for (cpu::Processor proc : cpu::allProcessors()) {
        for (Interface iface : allInterfaces()) {
            SCOPED_TRACE(std::string(cpu::processorCode(proc)) + "/" +
                         interfaceCode(iface));
            HarnessConfig cfg;
            cfg.processor = proc;
            cfg.iface = iface;
            cfg.pattern = AccessPattern::StartRead;
            HarnessSession a(cfg, bench);
            HarnessSession b(cfg, bench);
            int turn = 0;
            for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
                HarnessSession &sess = turn++ % 2 == 0 ? a : b;
                HarnessConfig fresh = cfg;
                fresh.seed = seed;
                const Measurement m = sess.run(seed);
                expectSameMeasurement(
                    m, HarnessSession(fresh, bench).run());
                interrupts += m.run.interrupts;
            }
        }
    }
    EXPECT_GT(interrupts, 0u); // the shared k_timer ran too
}

/**
 * The image key holds everything kernel emission reads: each
 * processor x extension x hang plan boots the text a private
 * buildInto emits, linked as kernel-segment blocks at 0xc0000000.
 */
TEST(SharedKernelImage, KeyCoversEverythingEmissionReads)
{
    enum class Ext { Perfctr, Perfmon, PerfEvent };
    for (cpu::Processor proc : cpu::allProcessors()) {
        for (Ext ext : {Ext::Perfctr, Ext::Perfmon, Ext::PerfEvent}) {
            for (const char *plan : {"", "hang=0.5,budget=100000"}) {
                SCOPED_TRACE(std::string(cpu::processorCode(proc)) +
                             " ext " +
                             std::to_string(static_cast<int>(ext)) +
                             " plan '" + plan + "'");
                MachineConfig cfg;
                cfg.processor = proc;
                cfg.iface =
                    ext == Ext::Perfmon ? Interface::Pm : Interface::Pc;
                cfg.usePerfEvent = ext == Ext::PerfEvent;
                cfg.faults = kernel::FaultPlan::parse(plan);
                const std::string shared =
                    Machine(cfg).program().disassemble();

                const cpu::MicroArch &arch = cpu::microArch(proc);
                std::unique_ptr<kernel::KernelModule> mod;
                if (ext == Ext::Perfctr)
                    mod = std::make_unique<kernel::PerfctrModule>(arch);
                else if (ext == Ext::Perfmon)
                    mod = std::make_unique<kernel::PerfmonModule>(arch);
                else
                    mod = std::make_unique<kernel::PerfEventModule>(arch);
                kernel::Kernel k(arch, *mod, cfg.seed);
                kernel::FaultInjector injector(cfg.faults, cfg.seed);
                if (cfg.faults.enabled())
                    k.setFaultInjector(&injector);
                isa::Program priv;
                k.buildInto(priv);
                priv.link(0xc0000000ULL, /*align=*/1);
                EXPECT_EQ(shared, priv.disassemble());
            }
        }
    }
}

TEST(SharedKernelImage, SecondBootBuildsNoImage)
{
    obs::spcReset();
    obs::spcAttach("machine_boots,kernel_images_built");
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::PHpm;
    // The first boot builds the image unless an earlier test did.
    { Machine first(cfg); }
    const Count boots = obs::spcValue(obs::Spc::MachineBoots);
    const Count built = obs::spcValue(obs::Spc::KernelImagesBuilt);
    EXPECT_EQ(boots, 1u);
    EXPECT_LE(built, 1u);
    { Machine second(cfg); }
    EXPECT_EQ(obs::spcValue(obs::Spc::MachineBoots), boots + 1);
    EXPECT_EQ(obs::spcValue(obs::Spc::KernelImagesBuilt), built);
    obs::spcReset();
}

// ---------------------------------------------------------------- //
// Studies: PCA_THREADS must be invisible in the output
// ---------------------------------------------------------------- //

namespace
{

/** Run @p study with PCA_THREADS=@p threads; return its CSV. */
template <typename StudyFn>
std::string
csvWithThreads(int threads, StudyFn &&study)
{
    setenv("PCA_THREADS", std::to_string(threads).c_str(), 1);
    const core::DataTable table = study();
    unsetenv("PCA_THREADS");
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

} // namespace

TEST(ParallelStudies, NullErrorStudyByteIdentical)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .counterCounts({1})
                            .generate();
    ASSERT_EQ(points.size(), 40u);
    core::StudyObsOptions obs;
    obs.attributionColumns = true;
    auto study = [&] {
        return core::runNullErrorStudy(points, 3, 42, obs);
    };
    // The user and user+kernel point of each configuration share one
    // User+Kernel session: 20 sessions for 40 points, and every run
    // but a session's first is a later run on it (3 * 40 - 20). These
    // are the counts the study benchmark reads, at any thread count.
    // Each session boots a machine or takes its thread's idle one of
    // the same kind.
    const auto countedCsv = [&](int threads) {
        obs::spcReset();
        obs::spcAttach("program_cache_hits,program_cache_misses,"
                       "machine_boots,machine_reuses");
        const std::string csv = csvWithThreads(threads, study);
        EXPECT_EQ(obs::spcValue(obs::Spc::ProgramCacheMisses), 20u)
            << "threads=" << threads;
        EXPECT_EQ(obs::spcValue(obs::Spc::MachineBoots) +
                      obs::spcValue(obs::Spc::MachineReuses),
                  20u)
            << "threads=" << threads;
        EXPECT_EQ(obs::spcValue(obs::Spc::ProgramCacheHits), 100u)
            << "threads=" << threads;
        const Count boots = obs::spcValue(obs::Spc::MachineBoots);
        obs::spcReset();
        return std::pair{csv, boots};
    };
    // Serially, on a thread with no idle machine yet, the points of
    // each interface run back to back: one boot per interface.
    std::pair<std::string, Count> serial;
    std::thread([&] { serial = countedCsv(1); }).join();
    EXPECT_EQ(serial.second, 6u);
    const std::string parallel = countedCsv(4).first;
    EXPECT_EQ(serial.first, parallel);
}

TEST(ParallelStudies, DurationStudyByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo,
                      cpu::Processor::PentiumD};
    opt.loopSizes = {1, 1000, 5000};
    opt.runsPerSize = 2;
    auto study = [&] { return core::runDurationStudy(opt); };
    EXPECT_EQ(csvWithThreads(1, study), csvWithThreads(4, study));
}

TEST(ParallelStudies, CycleStudyByteIdentical)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.loopSizes = {1, 1000};
    opt.optLevels = {0, 3};
    opt.runsPerConfig = 2;
    auto study = [&] { return core::runCycleStudy(opt); };
    EXPECT_EQ(csvWithThreads(1, study), csvWithThreads(4, study));
}
