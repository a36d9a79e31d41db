/**
 * @file
 * The resilience layer end to end: deadline watchdog + hang faults,
 * retry policies and budgets, cooperative cancellation, full
 * worker-error collection, and checkpoint/resume — including the
 * absolute contract that resumed, re-threaded, and re-tiered studies
 * emit byte-identical tables.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hh"
#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/harness.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "kernel/faults.hh"
#include "obs/spc.hh"
#include "support/parallel.hh"
#include "support/retry.hh"
#include "support/status.hh"

using namespace pca;
using namespace pca::harness;
using core::CheckpointRun;
using core::PointRecord;
using core::StudyCheckpoint;
using isa::Assembler;
using isa::Reg;
using kernel::FaultKind;
using kernel::FaultPlan;

namespace
{

std::string
csvOf(const core::DataTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

std::vector<core::FactorPoint>
smallPointSet()
{
    return core::FactorSpace()
        .processors({cpu::Processor::Core2Duo})
        .optLevels({2})
        .counterCounts({1})
        .generate();
}

/** A user program long enough that a small budget fires mid-run. */
void
addLongLoop(Machine &m)
{
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    const int loop = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, 1000000)
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize();
}

/**
 * Keep the checkpoint's header plus the first half of its records
 * and leave a torn half-line behind — what a SIGKILL mid-append
 * leaves on disk. Returns the records kept.
 */
std::size_t
crashCheckpoint(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    in.close();
    if (lines.size() < 3)
        return lines.empty() ? 0 : lines.size() - 1;
    const std::size_t keep = 1 + (lines.size() - 1) / 2;
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < keep; ++i)
        out << lines[i] << "\n";
    out << lines[keep].substr(0, lines[keep].size() / 2);
    return keep - 1;
}

/** A study's CSV and the header line of its checkpoint. */
struct ResumeOutcome
{
    std::string csv;
    std::string header;
};

/**
 * Run @p study checkpointed to @p path at 4 threads, crash the
 * checkpoint, and resume at 1 thread: both runs must emit the
 * uncheckpointed table byte for byte, the resume must load exactly
 * the records kept and execute fewer runs than the full run.
 */
ResumeOutcome
crashAndResume(const std::function<core::DataTable()> &study,
               const std::string &path)
{
    unsetenv("PCA_FAULTS");
    unsetenv("PCA_CHECKPOINT");
    setenv("PCA_THREADS", "4", 1);
    ResumeOutcome out{csvOf(study()), ""};

    std::remove(path.c_str());
    setenv("PCA_CHECKPOINT", path.c_str(), 1);
    obs::spcReset();
    obs::spcAttach("runs_executed");
    EXPECT_EQ(csvOf(study()), out.csv);
    const Count fullRuns = obs::spcValue(obs::Spc::RunsExecuted);
    std::getline(std::ifstream(path), out.header);

    const std::size_t kept = crashCheckpoint(path);
    EXPECT_GT(kept, 0u);
    setenv("PCA_THREADS", "1", 1);
    obs::spcReset();
    obs::spcAttach("runs_executed,checkpoint_points_resumed");
    EXPECT_EQ(csvOf(study()), out.csv);
    EXPECT_EQ(obs::spcValue(obs::Spc::CheckpointPointsResumed), kept);
    EXPECT_LT(obs::spcValue(obs::Spc::RunsExecuted), fullRuns);
    obs::spcReset();
    std::remove(path.c_str());
    unsetenv("PCA_CHECKPOINT");
    unsetenv("PCA_THREADS");
    return out;
}

} // namespace

// ---------------------------------------------------------------- //
// Status codes
// ---------------------------------------------------------------- //

TEST(ResilienceStatus, DeadlineIsTransientCancelledIsNot)
{
    EXPECT_STREQ(statusCodeName(StatusCode::DeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(statusCodeName(StatusCode::Cancelled), "cancelled");
    EXPECT_TRUE(
        Status(StatusCode::DeadlineExceeded, "hang").transient());
    EXPECT_FALSE(Status(StatusCode::Cancelled, "^C").transient());
}

// ---------------------------------------------------------------- //
// RetryPolicy / RetryBudget
// ---------------------------------------------------------------- //

TEST(RetryPolicy_, BackoffDoublesFromBaseAndCaps)
{
    RetryPolicy p;
    p.backoffBase = 100;
    p.backoffCap = 1000;
    EXPECT_EQ(p.backoffFor(1), 100u);
    EXPECT_EQ(p.backoffFor(2), 200u);
    EXPECT_EQ(p.backoffFor(3), 400u);
    EXPECT_EQ(p.backoffFor(4), 800u);
    EXPECT_EQ(p.backoffFor(5), 1000u);
    EXPECT_EQ(p.backoffFor(20), 1000u);
}

TEST(RetryPolicy_, PointShareDistributesTheStudyBudgetExactly)
{
    // 10 tokens over 4 points: 3,3,2,2 — a pure function of the
    // index, never of which worker got there first.
    long sum = 0;
    for (std::size_t i = 0; i < 4; ++i)
        sum += RetryPolicy::pointShare(10, 4, i);
    EXPECT_EQ(sum, 10);
    EXPECT_EQ(RetryPolicy::pointShare(10, 4, 0), 3);
    EXPECT_EQ(RetryPolicy::pointShare(10, 4, 3), 2);
    EXPECT_EQ(RetryPolicy::pointShare(-1, 4, 0), -1); // unlimited
}

TEST(RetryPolicy_, EffectivePointBudgetTakesTheTighterLimit)
{
    RetryPolicy p;
    EXPECT_EQ(p.effectivePointBudget(4, 0), -1); // both unlimited
    p.perPointBudget = 5;
    EXPECT_EQ(p.effectivePointBudget(4, 0), 5);
    p.perStudyBudget = 8; // share for point 0 of 4 is 2
    EXPECT_EQ(p.effectivePointBudget(4, 0), 2);
    p.perPointBudget = 1;
    EXPECT_EQ(p.effectivePointBudget(4, 0), 1);
}

TEST(RetryBudget_, TakesUntilExhaustedAndCountsDenials)
{
    RetryBudget b(2);
    EXPECT_TRUE(b.limited());
    EXPECT_TRUE(b.tryTake());
    EXPECT_TRUE(b.tryTake());
    EXPECT_FALSE(b.tryTake());
    EXPECT_FALSE(b.tryTake());
    EXPECT_EQ(b.remaining(), 0);
    EXPECT_EQ(b.denied(), 2u);

    RetryBudget unlimited(-1);
    EXPECT_FALSE(unlimited.limited());
    for (int i = 0; i < 100; ++i)
        EXPECT_TRUE(unlimited.tryTake());
    EXPECT_EQ(unlimited.denied(), 0u);
}

TEST(RetryPolicy_, FaultPlanParsesRetryAndWatchdogKeys)
{
    const FaultPlan p = FaultPlan::parse(
        "retries=5,backoff=123,bcap=999,pbudget=4,sbudget=9,"
        "budget=1000,cbudget=2000");
    EXPECT_EQ(p.retry.retries, 5);
    EXPECT_EQ(p.retry.backoffBase, 123u);
    EXPECT_EQ(p.retry.backoffCap, 999u);
    EXPECT_EQ(p.retry.perPointBudget, 4);
    EXPECT_EQ(p.retry.perStudyBudget, 9);
    EXPECT_EQ(p.watchdogInstrs, 1000u);
    EXPECT_EQ(p.watchdogCycles, 2000u);
    // Retry and watchdog settings change run outcomes, so they must
    // show in the fingerprint (no aliasing with the inert plan).
    EXPECT_NE(p.fingerprint(), FaultPlan{}.fingerprint());
    EXPECT_NE(FaultPlan::parse("pbudget=4").fingerprint(),
              FaultPlan::parse("pbudget=5").fingerprint());
}

TEST(FaultKinds, HangIsNamed)
{
    EXPECT_STREQ(kernel::faultKindName(FaultKind::Hang), "hang");
    // The compile-time exhaustiveness guard in faults.hh already
    // rejects unnamed kinds; spot-check the runtime view agrees.
    for (std::size_t k = 0; k < kernel::numFaultKinds; ++k)
        EXPECT_NE(kernel::faultKindName(static_cast<FaultKind>(k)),
                  nullptr);
}

// ---------------------------------------------------------------- //
// Run deadlines (watchdog)
// ---------------------------------------------------------------- //

TEST(Watchdog, InstructionBudgetKillsARunawayRun)
{
    MachineConfig cfg;
    cfg.fastForward = false; // step it, so the budget fires mid-loop
    cfg.runInstrBudget = 20000;
    Machine m(cfg);
    addLongLoop(m);
    const auto r = m.tryRun("main");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_NE(r.status().message().find("watchdog"),
              std::string::npos);
}

TEST(Watchdog, CycleBudgetKillsARunawayRun)
{
    MachineConfig cfg;
    cfg.fastForward = false;
    cfg.runCycleBudget = 50000;
    Machine m(cfg);
    addLongLoop(m);
    const auto r = m.tryRun("main");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DeadlineExceeded);
}

TEST(Watchdog, FaultPlanBudgetIsTheFallbackAndFeedsTheSpc)
{
    obs::spcReset();
    obs::spcAttach("deadline_exceeded_runs");
    MachineConfig cfg;
    cfg.fastForward = false;
    cfg.faults = FaultPlan::parse("budget=20000");
    Machine m(cfg);
    addLongLoop(m);
    EXPECT_FALSE(m.tryRun("main").ok());
    EXPECT_EQ(obs::spcValue(obs::Spc::DeadlineExceededRuns), 1u);
    obs::spcReset();
}

TEST(Watchdog, UnbudgetedRunsAreUntouched)
{
    MachineConfig cfg;
    cfg.fastForward = false;
    Machine m(cfg);
    addLongLoop(m);
    EXPECT_TRUE(m.tryRun("main").ok());
}

TEST(TryRun, UnknownEntryIsNotFound)
{
    Machine m(MachineConfig{});
    addLongLoop(m);
    const auto r = m.tryRun("no_such_block");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::NotFound);
    EXPECT_EQ(r.status().message(), "no block named 'no_such_block'");
    // Nothing ran, so the machine needs no reboot.
    EXPECT_TRUE(m.tryRun("main").ok());
}

TEST(TryRun, GuestFaultIsAStatus)
{
    // A program that faults fails its run with a typed status instead
    // of aborting the process, so a study degrades the point. Both
    // engines report each fault with the same code and message.
    struct Fault
    {
        const char *what;
        std::function<void(isa::Assembler &)> body;
        StatusCode code;
        std::string message;
    };
    const std::vector<Fault> faults = {
        {"privileged instruction in user mode",
         [](isa::Assembler &a) { a.nop(4).rdmsr().halt(); },
         StatusCode::FailedPrecondition, "#GP: rdmsr in user mode"},
        {"call to a block that does not exist",
         [](isa::Assembler &a) { a.nop(4).call("nowhere").halt(); },
         StatusCode::NotFound, "call to unknown block 'nowhere'"},
        {"block with no terminating instruction",
         [](isa::Assembler &a) { a.nop(4).addImm(Reg::Eax, 1); },
         StatusCode::FailedPrecondition,
         "ran off the end of block 'main'"},
    };
    for (const Fault &f : faults)
        for (const bool block : {true, false}) {
            MachineConfig cfg;
            cfg.decodeCache = block;
            Machine m(cfg);
            isa::Assembler a("main");
            f.body(a);
            m.addUserBlock(a.take());
            m.finalize();
            const auto r = m.tryRun("main");
            ASSERT_FALSE(r.ok()) << f.what << " block=" << block;
            EXPECT_EQ(r.status().code(), f.code)
                << f.what << " block=" << block;
            EXPECT_EQ(r.status().message(), f.message)
                << f.what << " block=" << block;
        }
}

// ---------------------------------------------------------------- //
// Hang faults
// ---------------------------------------------------------------- //

TEST(HangFault, WatchdogReapsACertainHangAfterRetries)
{
    // Perfmon reads go through a read syscall; hang=1 wedges every
    // one of them in the stuck kernel poll loop. Only the run budget
    // gets control back — surfaced as a (transient, retried)
    // DeadlineExceeded.
    HarnessConfig cfg;
    cfg.iface = Interface::Pm;
    cfg.faults = FaultPlan::parse("seed=1,hang=1,budget=300000,"
                                  "retries=2");
    const auto r = HarnessSession(cfg, NullBench{}).tryRun(cfg.seed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::DeadlineExceeded);
    EXPECT_NE(r.status().message().find("after 2 retries"),
              std::string::npos);
}

TEST(HangFault, InertHangPlanChangesNothing)
{
    // hang=0 emits no hang kernel block, so the program layout (and
    // every measured value) is bit-identical to the no-plan machine.
    HarnessConfig clean;
    clean.iface = Interface::Pm;
    HarnessConfig gated = clean;
    gated.faults = FaultPlan::parse("seed=1,hang=0");
    const auto a = HarnessSession(clean, NullBench{}).run(clean.seed);
    const auto b = HarnessSession(gated, NullBench{}).run(gated.seed);
    EXPECT_EQ(a.c0, b.c0);
    EXPECT_EQ(a.c1, b.c1);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

TEST(HangFault, StudyNeverWedgesUnderCertainHangs)
{
    setenv("PCA_FAULTS", "seed=2,hang=1,budget=400000,retries=1", 1);
    const auto points = smallPointSet();
    const auto table = core::runNullErrorStudy(points, 2, 42);
    unsetenv("PCA_FAULTS");
    // The study terminates with every planned row present; the
    // syscall-read interfaces degrade with the typed deadline cause.
    EXPECT_EQ(table.size(), points.size() * 2);
    EXPECT_GT(table.degradedCount(), 0u);
    EXPECT_NE(csvOf(table).find("degraded:deadline_exceeded"),
              std::string::npos);
}

// ---------------------------------------------------------------- //
// Retry budgets: quarantine
// ---------------------------------------------------------------- //

TEST(RetryBudgets, ExhaustedPointBudgetQuarantinesThePoint)
{
    obs::spcReset();
    obs::spcAttach("points_quarantined,retry_budget_exhausted");
    HarnessConfig cfg;
    cfg.faults = FaultPlan::parse("seed=1,attach=1,retries=8");
    const auto ms = harness::measurePoint(
        cfg, NullBench{}, 3,
        [](int r) { return static_cast<std::uint64_t>(r) + 1; },
        2L); // 2 retry tokens for the whole point
    ASSERT_EQ(ms.size(), 3u);
    // Run 0 burns both tokens, later runs get none: every run fails,
    // and the note names the budget, not the per-run retry count.
    for (const auto &m : ms) {
        ASSERT_FALSE(m.ok());
        EXPECT_NE(
            m.status().message().find("retry budget exhausted"),
            std::string::npos);
    }
    EXPECT_EQ(obs::spcValue(obs::Spc::PointsQuarantined), 1u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RetryBudgetExhausted), 3u);
    obs::spcReset();
}

TEST(RetryBudgets, BackoffIsChargedInVirtualTimeOnly)
{
    obs::spcReset();
    obs::spcAttach("retry_backoff_cycles,session_retries");
    HarnessConfig cfg;
    cfg.faults =
        FaultPlan::parse("seed=1,attach=1,retries=3,backoff=1000");
    HarnessSession session(cfg, NullBench{});
    EXPECT_FALSE(session.tryRun(7).ok());
    // 3 retries at backoff 1000, 2000, 4000 = 7000 virtual cycles,
    // accounted on the session and the SPC — never slept.
    EXPECT_EQ(session.backoffCycles(), 7000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RetryBackoffCycles), 7000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::SessionRetries), 3u);
    obs::spcReset();
}

// ---------------------------------------------------------------- //
// parallelFor: full error collection and cancellation
// ---------------------------------------------------------------- //

TEST(ParallelErrors, EveryWorkerErrorIsCollectedLowestRethrown)
{
    obs::spcReset();
    obs::spcAttach("parallel_worker_errors");
    // A two-sided barrier forces both workers into their failing
    // item before either throws, so both errors must be captured.
    std::atomic<int> entered{0};
    try {
        parallelFor(
            2,
            [&](std::size_t i) {
                entered.fetch_add(1);
                while (entered.load() < 2)
                    std::this_thread::yield();
                throw std::runtime_error("boom " +
                                         std::to_string(i));
            },
            2);
        FAIL() << "parallelFor must rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 0"); // lowest index wins
    }
    EXPECT_EQ(obs::spcValue(obs::Spc::ParallelWorkerErrors), 2u);
    obs::spcReset();
}

TEST(Cancellation, SerialLoopStopsBeforeTheNextItem)
{
    clearCancel();
    requestCancel();
    int calls = 0;
    try {
        parallelFor(3, [&](std::size_t) { ++calls; }, 1);
        FAIL() << "cancelled loop must throw";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::Cancelled);
    }
    clearCancel();
    EXPECT_EQ(calls, 0);
}

TEST(Cancellation, ParallelWorkersDrainAndThrowTyped)
{
    clearCancel();
    std::atomic<int> done{0};
    try {
        parallelFor(
            10000,
            [&](std::size_t) {
                if (done.fetch_add(1) == 5)
                    requestCancel();
            },
            2);
        FAIL() << "cancelled loop must throw";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::Cancelled);
    }
    clearCancel();
    EXPECT_LT(done.load(), 10000);
}

TEST(Cancellation, StudyPropagatesCancelledWithoutPartialTables)
{
    clearCancel();
    requestCancel();
    EXPECT_THROW(core::runNullErrorStudy(smallPointSet(), 1, 42),
                 StatusError);
    clearCancel();
}

// ---------------------------------------------------------------- //
// StudyCheckpoint
// ---------------------------------------------------------------- //

TEST(Checkpoint, RecordsRoundTripBitExactly)
{
    const std::string path =
        testing::TempDir() + "pca_ck_roundtrip.jsonl";
    std::remove(path.c_str());
    PointRecord rec;
    rec.push_back(CheckpointRun{true, 123.25, {"1", "2", "3", "4"},
                                ""});
    rec.push_back(CheckpointRun{
        false, std::nan(""), {"0", "0", "0", "0"},
        "degraded:unavailable:comma, pipe| and\nnewline"});
    {
        auto cp = StudyCheckpoint::open(path, "s", "id1", 3);
        ASSERT_NE(cp, nullptr);
        EXPECT_EQ(cp->completedCount(), 0u);
        cp->record(1, rec);
        EXPECT_TRUE(cp->completed(1));
    }
    auto cp = StudyCheckpoint::open(path, "s", "id1", 3);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->completedCount(), 1u);
    EXPECT_FALSE(cp->completed(0));
    const PointRecord *got = cp->get(1);
    ASSERT_NE(got, nullptr);
    ASSERT_EQ(got->size(), 2u);
    EXPECT_TRUE((*got)[0].ok);
    EXPECT_EQ((*got)[0].value, 123.25);
    EXPECT_EQ((*got)[0].attr, rec[0].attr);
    EXPECT_FALSE((*got)[1].ok);
    EXPECT_TRUE(std::isnan((*got)[1].value));
    EXPECT_EQ((*got)[1].note, rec[1].note);
    std::remove(path.c_str());
}

TEST(Checkpoint, TornAndCorruptTailIsDroppedNotFatal)
{
    const std::string path = testing::TempDir() + "pca_ck_torn.jsonl";
    std::remove(path.c_str());
    {
        auto cp = StudyCheckpoint::open(path, "s", "id", 4);
        ASSERT_NE(cp, nullptr);
        cp->record(0, {CheckpointRun{true, 1.0, {}, ""}});
        cp->record(1, {CheckpointRun{true, 2.0, {}, ""}});
    }
    { // a complete line with a bad CRC, then a torn half-line
        std::ofstream out(path, std::ios::app);
        out << "{\"point\":2,\"runs\":[[1,\"0x1p+0\",\"\",\"\"]],"
               "\"crc\":\"00000000\"}\n"
            << "{\"point\":3,\"ru";
    }
    auto cp = StudyCheckpoint::open(path, "s", "id", 4);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->completedCount(), 2u);
    EXPECT_FALSE(cp->completed(2));
    // The tail was truncated away, so appending continues cleanly.
    cp->record(2, {CheckpointRun{true, 3.0, {}, ""}});
    cp.reset();
    auto again = StudyCheckpoint::open(path, "s", "id", 4);
    ASSERT_NE(again, nullptr);
    EXPECT_EQ(again->completedCount(), 3u);
    std::remove(path.c_str());
}

TEST(Checkpoint, IdentityMismatchRestartsTheFile)
{
    const std::string path = testing::TempDir() + "pca_ck_id.jsonl";
    std::remove(path.c_str());
    {
        auto cp = StudyCheckpoint::open(path, "s", "id1", 2);
        ASSERT_NE(cp, nullptr);
        cp->record(0, {CheckpointRun{true, 1.0, {}, ""}});
    }
    // Same file, different identity (say, a new fault plan): the
    // old records must not leak into the new sweep.
    auto cp = StudyCheckpoint::open(path, "s", "id2", 2);
    ASSERT_NE(cp, nullptr);
    EXPECT_EQ(cp->completedCount(), 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Crash/resume byte-identity — the tentpole contract
// ---------------------------------------------------------------- //

TEST(CheckpointStudy, CrashedResumeIsByteIdenticalAcrossThreads)
{
    const auto points = smallPointSet();
    const std::string path =
        testing::TempDir() + "pca_ck_resume.jsonl";
    for (const char *plan :
         {"", "seed=7,rate=0.05,width=48",
          "seed=7,hang=0.5,budget=600000,retries=2"}) {
        if (*plan)
            setenv("PCA_FAULTS", plan, 1);
        else
            unsetenv("PCA_FAULTS");

        unsetenv("PCA_CHECKPOINT");
        setenv("PCA_THREADS", "4", 1);
        const std::string baseline =
            csvOf(core::runNullErrorStudy(points, 3, 42));

        // A full checkpointed run must be invisible in the output.
        std::remove(path.c_str());
        setenv("PCA_CHECKPOINT", path.c_str(), 1);
        obs::spcReset();
        obs::spcAttach("runs_executed");
        EXPECT_EQ(csvOf(core::runNullErrorStudy(points, 3, 42)),
                  baseline)
            << "plan: " << plan;
        const Count fullRuns = obs::spcValue(obs::Spc::RunsExecuted);

        // Crash it, then resume on one thread: same bytes, and the
        // checkpointed half is not re-measured.
        const std::size_t kept = crashCheckpoint(path);
        ASSERT_GT(kept, 0u);
        setenv("PCA_THREADS", "1", 1);
        obs::spcReset();
        obs::spcAttach("runs_executed,checkpoint_points_resumed");
        EXPECT_EQ(csvOf(core::runNullErrorStudy(points, 3, 42)),
                  baseline)
            << "plan: " << plan;
        EXPECT_EQ(obs::spcValue(obs::Spc::CheckpointPointsResumed),
                  kept);
        EXPECT_LT(obs::spcValue(obs::Spc::RunsExecuted), fullRuns);
        obs::spcReset();
        std::remove(path.c_str());
    }
    unsetenv("PCA_CHECKPOINT");
    unsetenv("PCA_FAULTS");
    unsetenv("PCA_THREADS");
}

// The header literals below are what earlier builds wrote for these
// option sets: a checkpoint they left behind must still resume.

TEST(CheckpointStudy, NullStudyHeaderIsStable)
{
    const std::string path =
        testing::TempDir() + "pca_ck_null_header.jsonl";
    std::remove(path.c_str());
    unsetenv("PCA_FAULTS");
    setenv("PCA_CHECKPOINT", path.c_str(), 1);
    core::runNullErrorStudy(smallPointSet(), 2, 42);
    unsetenv("PCA_CHECKPOINT");
    std::string header;
    std::getline(std::ifstream(path), header);
    EXPECT_EQ(header,
              R"({"v":1,"study":"null_error","id":"seed=42|runs=2|)"
              R"(attr=0|pts=5e894ab6df70e51f|faults=f-none",)"
              R"("points":40,"crc":"c4932b15"})");
    std::remove(path.c_str());
}

TEST(CheckpointStudy, DurationStudyWithAttributionResumesByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::PentiumD};
    opt.interfaces = {Interface::Pm, Interface::Pc};
    opt.loopSizes = {1, 250000, 500000, 1000000};
    opt.runsPerSize = 3;
    opt.obs.attributionColumns = true;
    const ResumeOutcome out = crashAndResume(
        [&] { return core::runDurationStudy(opt); },
        testing::TempDir() + "pca_ck_duration.jsonl");
    EXPECT_NE(out.csv.find("attr_timer"), std::string::npos);
    EXPECT_EQ(out.header,
              R"({"v":1,"study":"duration","id":"seed=42|runs=3|)"
              R"(pat=start-read|mode=user+kernel|attr=1|)"
              R"(pts=64e2b1d2faeff36b|faults=f-none","points":8,)"
              R"("crc":"756ab50d"})");
}

TEST(CheckpointStudy, CycleStudyResumesByteIdentical)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {Interface::Pm};
    opt.patterns = {AccessPattern::StartRead, AccessPattern::ReadRead};
    opt.optLevels = {0, 2};
    opt.loopSizes = {1, 200000};
    const ResumeOutcome out = crashAndResume(
        [&] { return core::runCycleStudy(opt); },
        testing::TempDir() + "pca_ck_cycle.jsonl");
    EXPECT_EQ(out.header,
              R"({"v":1,"study":"cycle","id":"seed=42|runs=2|)"
              R"(pts=65276c93a233acd3|faults=f-none","points":8,)"
              R"("crc":"ee6b7c5c"})");
}

// ---------------------------------------------------------------- //
// Fault x execution-engine byte-identity
// ---------------------------------------------------------------- //

TEST(FaultTierIdentity, FaultedTablesMatchAcrossExecutionTiers)
{
    // Torn reads, counter wrap, and watchdog-reaped hangs must each
    // produce the same table with the block engine on and off: the
    // engines are architecturally invisible, and the deadline note
    // names only configured budgets (detection position differs per
    // engine).
    const auto points = smallPointSet();
    for (const char *plan :
         {"seed=5,torn=0.5,width=48", "seed=5,rate=0.02,width=40",
          "seed=5,hang=0.4,budget=500000,retries=1"}) {
        setenv("PCA_FAULTS", plan, 1);
        std::string csv[2];
        for (const bool decode : {false, true}) {
            setenv("PCA_DECODE", decode ? "1" : "0", 1);
            csv[decode] = csvOf(core::runNullErrorStudy(points, 2, 42));
        }
        unsetenv("PCA_DECODE");
        EXPECT_EQ(csv[1], csv[0]) << "plan: " << plan;
    }
    unsetenv("PCA_FAULTS");
}
