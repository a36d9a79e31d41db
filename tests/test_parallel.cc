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
                HarnessSession(cfg, bench).run(cfg.seed);
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
            sess.run(1234), HarnessSession(cfg, bench).run(cfg.seed));
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
                                  HarnessSession(cfg, bench).run(cfg.seed));
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
            HarnessSession(quiet, LoopBench(probe)).run(quiet.seed).run.cycles;
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
    HarnessConfig quiet;
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
    c = countReuse(HarnessConfig{}, LoopBench(5000000));
    EXPECT_EQ(c.reused, 0u);
    EXPECT_EQ(c.blocked, 11u);
    EXPECT_EQ(c.executed, 12u);

    // On an inert plan every later run is one or the other.
    c = countReuse(HarnessConfig{}, null);
    EXPECT_EQ(c.reused + c.blocked, 11u);
    EXPECT_EQ(c.executed, 12u - c.reused);
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
                    m, HarnessSession(fresh, bench).run(fresh.seed));
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
                kernel::Kernel k(arch, cfg.seed);
                ASSERT_TRUE(k.addModule(mod.get()).ok());
                kernel::FaultInjector injector(cfg.faults, cfg.seed);
                if (cfg.faults.enabled())
                    k.setFaultInjector(&injector);
                isa::Program priv;
                k.buildInto(priv);
                for (std::size_t b = 0; b < priv.blockCount(); ++b)
                    priv.setSegment(static_cast<int>(b), 1);
                priv.link2(0x08048000ULL, 0xc0000000ULL, /*align=*/1);
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
    ASSERT_FALSE(points.empty());
    core::StudyObsOptions obs;
    obs.attributionColumns = true;
    auto study = [&] {
        return core::runNullErrorStudy(points, 3, 42, obs);
    };
    // Every point builds one session and boots one machine for its
    // first run; its other two runs reuse that session. These are
    // the counts the study benchmark reads, at any thread count.
    const auto countedCsv = [&](int threads) {
        obs::spcReset();
        obs::spcAttach(
            "program_cache_hits,program_cache_misses,machine_boots");
        const std::string csv = csvWithThreads(threads, study);
        EXPECT_EQ(obs::spcValue(obs::Spc::ProgramCacheMisses),
                  points.size())
            << "threads=" << threads;
        EXPECT_EQ(obs::spcValue(obs::Spc::MachineBoots), points.size())
            << "threads=" << threads;
        EXPECT_EQ(obs::spcValue(obs::Spc::ProgramCacheHits),
                  2 * points.size())
            << "threads=" << threads;
        obs::spcReset();
        return csv;
    };
    const std::string serial = countedCsv(1);
    const std::string parallel = countedCsv(4);
    EXPECT_EQ(serial, parallel);
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
