/**
 * @file
 * The fault-injection layer and the typed error channel: FaultPlan
 * parsing and fingerprints, FaultInjector determinism (per-kind
 * streams, reset identity), Status/StatusOr semantics, fault
 * surfacing through Machine/Harness as typed errors, the session's
 * retry-and-discard policy, counter-width wraparound, interrupt
 * faults, and the study engine's graceful degradation (explicit
 * degraded rows, CSV status column, no-fault byte identity).
 */

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "cpu/microarch.hh"
#include "cpu/pmu.hh"
#include "harness/harness.hh"
#include "harness/session.hh"
#include "kernel/faults.hh"
#include "obs/spc.hh"
#include "support/random.hh"
#include "support/status.hh"

using namespace pca;
using namespace pca::harness;
using kernel::FaultInjector;
using kernel::FaultKind;
using kernel::FaultPlan;

// ---------------------------------------------------------------- //
// FaultPlan: parsing and identity
// ---------------------------------------------------------------- //

TEST(FaultPlan_, DefaultsAreInert)
{
    const FaultPlan plan;
    EXPECT_FALSE(plan.enabled());
    EXPECT_EQ(plan.counterWidthBits, 64);
    EXPECT_EQ(plan.retry.retries, 3);
    EXPECT_TRUE(plan.retry.isDefault());
    EXPECT_EQ(plan.fingerprint(), "f-none");
}

TEST(FaultPlan_, ParseSetsEveryField)
{
    const FaultPlan p =
        FaultPlan::parse("seed=9,rate=0.25,width=40,retries=2");
    EXPECT_TRUE(p.enabled());
    EXPECT_EQ(p.seed, 9u);
    EXPECT_EQ(p.counterWidthBits, 40);
    EXPECT_EQ(p.retry.retries, 2);
    // The blanket rate stays off Hang: hangs are opt-in (hang=)
    // so pre-existing chaos plans keep their behavior.
    for (std::size_t k = 0; k < kernel::numFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        EXPECT_DOUBLE_EQ(p.rate(kind),
                         kind == FaultKind::Hang ? 0.0 : 0.25);
    }
    EXPECT_DOUBLE_EQ(
        FaultPlan::parse("hang=0.5,budget=100").hangRate, 0.5);
}

TEST(FaultPlan_, IndividualRatesOverrideBlanketRate)
{
    const FaultPlan p = FaultPlan::parse("rate=0.1,busy=0.5,torn=0");
    EXPECT_DOUBLE_EQ(p.busyRate, 0.5);
    EXPECT_DOUBLE_EQ(p.tornRate, 0.0);
    EXPECT_DOUBLE_EQ(p.dropRate, 0.1);
    EXPECT_DOUBLE_EQ(p.spuriousRate, 0.1);
    EXPECT_DOUBLE_EQ(p.attachRate, 0.1);
    EXPECT_DOUBLE_EQ(p.readFailRate, 0.1);
}

TEST(FaultPlan_, FingerprintSeparatesBehaviorChangingPlans)
{
    const FaultPlan inert;
    const FaultPlan narrow = FaultPlan::parse("width=48");
    const FaultPlan faulty = FaultPlan::parse("rate=0.1");
    const FaultPlan reseeded = FaultPlan::parse("rate=0.1,seed=1");
    EXPECT_NE(inert.fingerprint(), narrow.fingerprint());
    EXPECT_NE(narrow.fingerprint(), faulty.fingerprint());
    EXPECT_NE(faulty.fingerprint(), reseeded.fingerprint());
    EXPECT_EQ(faulty.fingerprint(),
              FaultPlan::parse("rate=0.1").fingerprint());
}

TEST(FaultPlan_, FromEnvReadsPcaFaults)
{
    setenv("PCA_FAULTS", "seed=3,read=0.5", 1);
    const FaultPlan p = FaultPlan::fromEnv();
    EXPECT_EQ(p.seed, 3u);
    EXPECT_DOUBLE_EQ(p.readFailRate, 0.5);
    EXPECT_DOUBLE_EQ(p.busyRate, 0.0);
    unsetenv("PCA_FAULTS");
    EXPECT_FALSE(FaultPlan::fromEnv().enabled());
}

// ---------------------------------------------------------------- //
// FaultInjector: deterministic, per-kind, reset-identical streams
// ---------------------------------------------------------------- //

namespace
{

std::vector<bool>
drawSequence(FaultInjector &inj, FaultKind k, int n)
{
    std::vector<bool> seq;
    seq.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        seq.push_back(inj.fire(k));
    return seq;
}

} // namespace

TEST(FaultInjector_, SameSeedsSameDecisions)
{
    const FaultPlan plan = FaultPlan::parse("seed=11,rate=0.3");
    FaultInjector a(plan, 77);
    FaultInjector b(plan, 77);
    const auto sa = drawSequence(a, FaultKind::ReadFail, 256);
    EXPECT_EQ(sa, drawSequence(b, FaultKind::ReadFail, 256));
    // A 0.3 rate over 256 draws fires sometimes, not always.
    EXPECT_GT(a.injected(FaultKind::ReadFail), 0u);
    EXPECT_LT(a.injected(FaultKind::ReadFail), 256u);
}

TEST(FaultInjector_, MachineSeedChangesDecisions)
{
    const FaultPlan plan = FaultPlan::parse("seed=11,rate=0.3");
    FaultInjector a(plan, 77);
    FaultInjector b(plan, 78);
    EXPECT_NE(drawSequence(a, FaultKind::ReadFail, 256),
              drawSequence(b, FaultKind::ReadFail, 256));
}

TEST(FaultInjector_, ZeroRateNeverFiresOrDraws)
{
    FaultInjector inj(FaultPlan{}, 5);
    for (std::size_t k = 0; k < kernel::numFaultKinds; ++k)
        for (int i = 0; i < 64; ++i)
            EXPECT_FALSE(inj.fire(static_cast<FaultKind>(k)));
    EXPECT_EQ(inj.totalInjected(), 0u);
}

TEST(FaultInjector_, KindStreamsAreIndependent)
{
    // Drawing CounterBusy decisions must not shift the ReadFail
    // stream: each kind owns its own RNG.
    const FaultPlan plan = FaultPlan::parse("seed=2,rate=0.4");
    FaultInjector pure(plan, 9);
    const auto expected = drawSequence(pure, FaultKind::ReadFail, 64);

    FaultInjector interleaved(plan, 9);
    std::vector<bool> got;
    for (int i = 0; i < 64; ++i) {
        interleaved.fire(FaultKind::CounterBusy);
        got.push_back(interleaved.fire(FaultKind::ReadFail));
        interleaved.fire(FaultKind::TornRead);
    }
    EXPECT_EQ(got, expected);
}

TEST(FaultInjector_, ResetRestoresPowerOnStream)
{
    const FaultPlan plan = FaultPlan::parse("seed=4,rate=0.5");
    FaultInjector inj(plan, 123);
    const auto first = drawSequence(inj, FaultKind::AttachFail, 128);
    inj.reset(123);
    EXPECT_EQ(inj.totalInjected(), 0u);
    EXPECT_EQ(drawSequence(inj, FaultKind::AttachFail, 128), first);
}

TEST(FaultInjector_, CountsEveryInjection)
{
    FaultInjector inj(FaultPlan::parse("rate=1"), 1);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(inj.fire(FaultKind::CounterBusy));
    EXPECT_TRUE(inj.fire(FaultKind::TornRead));
    EXPECT_EQ(inj.injected(FaultKind::CounterBusy), 10u);
    EXPECT_EQ(inj.injected(FaultKind::TornRead), 1u);
    EXPECT_EQ(inj.totalInjected(), 11u);
}

// ---------------------------------------------------------------- //
// Status / StatusOr
// ---------------------------------------------------------------- //

TEST(Status_, CodesTransienceAndFormatting)
{
    EXPECT_TRUE(Status().ok());
    EXPECT_FALSE(Status().transient());
    EXPECT_EQ(Status().toString(), "ok");

    const Status busy(StatusCode::Busy, "counter taken");
    EXPECT_FALSE(busy.ok());
    EXPECT_TRUE(busy.transient());
    EXPECT_TRUE(
        Status(StatusCode::Unavailable, "flaky").transient());
    EXPECT_FALSE(
        Status(StatusCode::InvalidArgument, "bad").transient());
    EXPECT_EQ(busy.toString(), "busy: counter taken");
    EXPECT_STREQ(statusCodeName(StatusCode::FailedPrecondition),
                 "failed_precondition");
}

TEST(Status_, StatusOrCarriesValueOrThrows)
{
    const StatusOr<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(*good, 42);
    EXPECT_TRUE(good.status().ok());

    const StatusOr<int> bad(
        Status(StatusCode::ResourceExhausted, "out of counters"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::ResourceExhausted);
    try {
        (void)bad.value();
        FAIL() << "value() on an error must throw";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::ResourceExhausted);
    }
}

// ---------------------------------------------------------------- //
// Faults surfacing through the machine and harness
// ---------------------------------------------------------------- //

TEST(FaultHarness, CounterWidthWrapsPmuReads)
{
    cpu::Pmu pmu(cpu::microArch(cpu::Processor::Core2Duo));
    pmu.setCounterWidth(8);
    pmu.wrmsr(cpu::Pmu::msrEvtSelBase,
              cpu::Pmu::encodeEvtSel(cpu::EventType::InstrRetired,
                                     PlMask::UserKernel, true));
    pmu.count(cpu::EventType::InstrRetired, Mode::User, 300);
    // 300 mod 2^8 = 44: the read wraps, the stored value does not.
    EXPECT_EQ(pmu.rdpmc(0), 44u);
    EXPECT_EQ(pmu.progCounter(0).value, 300u);
    pmu.reset();
    EXPECT_EQ(pmu.counterWidth(), 8); // hardware property survives
}

TEST(FaultHarness, CertainAttachFaultExhaustsRetries)
{
    HarnessConfig cfg;
    cfg.faults = FaultPlan::parse("seed=1,attach=1,retries=2");
    const auto r = HarnessSession(cfg, NullBench{}).tryRun(cfg.seed);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::Unavailable);
    EXPECT_NE(r.status().message().find("after 2 retries"),
              std::string::npos);
}

TEST(FaultHarness, RetriesRecoverFromTransientFaults)
{
    // Half the attach syscalls fail; with a generous retry budget
    // every measurement still lands (deterministically, same seed).
    HarnessConfig cfg;
    cfg.faults = FaultPlan::parse("seed=6,attach=0.5,retries=8");
    for (const auto &m : measurePoint(cfg, NullBench{}, 12, [&](int r) {
             return mixSeed(cfg.seed, static_cast<std::uint64_t>(r));
         }))
        EXPECT_TRUE(m.ok()) << m.status().toString();
}

TEST(FaultHarness, SessionRetriesFeedTheSpc)
{
    obs::spcReset();
    obs::spcAttach("session_retries,faults_injected");
    HarnessConfig cfg;
    cfg.faults = FaultPlan::parse("seed=1,attach=1,retries=3");
    const auto r = HarnessSession(cfg, NullBench{}).tryRun(cfg.seed);
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(obs::spcValue(obs::Spc::SessionRetries), 3u);
    EXPECT_GE(obs::spcValue(obs::Spc::FaultsInjected), 4u);
    obs::spcReset();
}

TEST(FaultHarness, FaultedMeasurementsAreDeterministic)
{
    HarnessConfig cfg;
    cfg.faults = FaultPlan::parse("seed=5,rate=0.1,width=48");
    const auto seeds = [&](int r) {
        return mixSeed(cfg.seed, static_cast<std::uint64_t>(r));
    };
    const auto a = measurePoint(cfg, NullBench{}, 6, seeds);
    const auto b = measurePoint(cfg, NullBench{}, 6, seeds);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].ok(), b[i].ok());
        if (a[i].ok()) {
            EXPECT_EQ(a[i]->c0, b[i]->c0);
            EXPECT_EQ(a[i]->c1, b[i]->c1);
            EXPECT_EQ(a[i]->run.cycles, b[i]->run.cycles);
            EXPECT_EQ(a[i]->run.interrupts, b[i]->run.interrupts);
        } else {
            EXPECT_EQ(a[i].status().toString(),
                      b[i].status().toString());
        }
    }
}

TEST(FaultHarness, DroppedAndSpuriousTicksMoveInterruptCounts)
{
    // ~15M simulated cycles: several timer periods on every arch.
    const LoopBench bench(5000000);
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::PentiumD;
    cfg.iface = Interface::Pc;
    cfg.pattern = AccessPattern::ReadRead;
    const Count baseline =
        HarnessSession(cfg, bench).run(cfg.seed).run.interrupts;
    ASSERT_GT(baseline, 0u);

    HarnessConfig dropped = cfg;
    dropped.faults = FaultPlan::parse("seed=2,drop=1");
    EXPECT_EQ(
        HarnessSession(dropped, bench).run(dropped.seed).run.interrupts,
        0u);

    HarnessConfig spurious = cfg;
    spurious.faults = FaultPlan::parse("seed=2,spurious=0.9");
    EXPECT_GT(
        HarnessSession(spurious, bench).run(spurious.seed).run.interrupts,
        baseline);
}

// ---------------------------------------------------------------- //
// Study engine: graceful degradation
// ---------------------------------------------------------------- //

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

} // namespace

TEST(FaultStudy, DegradedRowsStayInTheTableWithCauses)
{
    setenv("PCA_FAULTS", "seed=3,attach=0.6,retries=0", 1);
    obs::spcReset();
    obs::spcAttach("degraded_points");
    const auto points = smallPointSet();
    const auto table = core::runNullErrorStudy(points, 4, 42);
    obs::spcReset();
    unsetenv("PCA_FAULTS");

    // Every planned row is present — failures degrade, not vanish.
    EXPECT_EQ(table.size(), points.size() * 4);
    ASSERT_GT(table.degradedCount(), 0u);
    const std::string csv = csvOf(table);
    EXPECT_NE(csv.find(",status"), std::string::npos);
    EXPECT_NE(csv.find("degraded:unavailable"), std::string::npos);
}

TEST(FaultStudy, DegradedPointsSpcCountsRows)
{
    setenv("PCA_FAULTS", "seed=3,attach=0.6,retries=0", 1);
    obs::spcReset();
    obs::spcAttach("degraded_points");
    const auto table =
        core::runNullErrorStudy(smallPointSet(), 4, 42);
    EXPECT_EQ(obs::spcValue(obs::Spc::DegradedPoints),
              table.degradedCount());
    obs::spcReset();
    unsetenv("PCA_FAULTS");
}

TEST(FaultStudy, CleanRunsEmitNoStatusColumn)
{
    unsetenv("PCA_FAULTS");
    const auto table =
        core::runNullErrorStudy(smallPointSet(), 2, 42);
    EXPECT_EQ(table.degradedCount(), 0u);
    EXPECT_EQ(csvOf(table).find("status"), std::string::npos);
}

TEST(FaultStudy, InertPlanIsByteIdenticalToNoPlan)
{
    const auto points = smallPointSet();
    unsetenv("PCA_FAULTS");
    const std::string bare =
        csvOf(core::runNullErrorStudy(points, 2, 42));
    setenv("PCA_FAULTS", "seed=99,rate=0", 1);
    const std::string inert =
        csvOf(core::runNullErrorStudy(points, 2, 42));
    unsetenv("PCA_FAULTS");
    EXPECT_EQ(bare, inert);
}

TEST(FaultStudy, DegradationIsThreadCountInvariant)
{
    const auto points = smallPointSet();
    setenv("PCA_FAULTS", "seed=7,rate=0.2,width=48", 1);
    setenv("PCA_THREADS", "1", 1);
    const std::string serial =
        csvOf(core::runNullErrorStudy(points, 3, 42));
    setenv("PCA_THREADS", "4", 1);
    const std::string parallel =
        csvOf(core::runNullErrorStudy(points, 3, 42));
    unsetenv("PCA_THREADS");
    unsetenv("PCA_FAULTS");
    EXPECT_EQ(serial, parallel);
}
