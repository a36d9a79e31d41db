/**
 * @file
 * The parallel study engine's two contracts: parallelFor runs every
 * index exactly once and propagates failures, and parallelism plus
 * per-point session reuse are *invisible* — a rebooted session
 * produces Measurements identical to a fresh harness, and every
 * canned study emits byte-identical CSV under PCA_THREADS=1 and
 * PCA_THREADS=4.
 */

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "kernel/faults.hh"
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
 * session equals measure() on a fresh machine with seed s —
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
                MeasurementHarness(cfg).measure(bench);
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
            sess.run(1234), MeasurementHarness(cfg).measure(bench));
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
