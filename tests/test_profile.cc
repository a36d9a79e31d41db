/**
 * @file
 * The observability subsystems added with the sampling profiler:
 * LogHistogram bucketing/quantiles/merge, Profiler skid and period
 * semantics against hand-fed event streams, machine-level ground
 * truth (skid=0 sampling equals the interrupted-PC histogram
 * exactly; the retired-PC histogram equals the run's user
 * instruction count), the snapshot seqlock under a concurrent
 * writer, and the invisibility contract: every canned study's CSV
 * must be byte-identical with profiling or distribution collection
 * enabled-but-unused vs. disabled, at 1 and 4 threads.
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "obs/hist.hh"
#include "obs/profile.hh"
#include "obs/snapshot.hh"

using namespace pca;
using namespace pca::harness;

// ---------------------------------------------------------------- //
// LogHistogram
// ---------------------------------------------------------------- //

TEST(LogHistogram, ExactSmallValues)
{
    obs::LogHistogram h;
    for (const SCount v : {3, 3, 7, -5, 0, 12})
        h.add(v);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.min(), -5);
    EXPECT_EQ(h.max(), 12);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0 / 6.0);
    // Values below 2^subBits sit in unit-wide buckets: quantiles are
    // exact. Sorted: -5 0 3 3 7 12.
    EXPECT_DOUBLE_EQ(h.quantile(0.0), -5.0);
    EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(h.quantile(1.0), 12.0);
}

TEST(LogHistogram, LargeValuesWithinBucketError)
{
    obs::LogHistogram h;
    h.add(1000000);
    // One observation: every quantile is that bucket's
    // representative, within the ~2^-subBits relative bucket width.
    EXPECT_NEAR(h.quantile(0.5), 1000000.0, 1000000.0 / 16.0);
    EXPECT_EQ(h.min(), 1000000);
    EXPECT_EQ(h.max(), 1000000);
}

TEST(LogHistogram, MergeMatchesCombinedAndCommutes)
{
    obs::LogHistogram a, b, combined;
    for (SCount v = -40; v < 300; v += 7) {
        (v % 2 ? a : b).add(v);
        combined.add(v);
    }
    obs::LogHistogram ab = a;
    ab.merge(b);
    obs::LogHistogram ba = b;
    ba.merge(a);

    for (const obs::LogHistogram *m : {&ab, &ba}) {
        EXPECT_EQ(m->total(), combined.total());
        EXPECT_EQ(m->min(), combined.min());
        EXPECT_EQ(m->max(), combined.max());
        for (const double q : {0.05, 0.25, 0.5, 0.75, 0.95})
            EXPECT_DOUBLE_EQ(m->quantile(q), combined.quantile(q))
                << q;
    }
}

TEST(LogHistogram, BucketsCoverAllObservations)
{
    obs::LogHistogram h;
    for (const SCount v : {-100000, -17, 0, 0, 5, 40, 123456789})
        h.add(v);
    Count n = 0;
    double prev_hi = -1e300;
    for (const obs::LogHistogram::Bucket &b : h.buckets()) {
        EXPECT_LT(b.lo, b.hi);
        EXPECT_LE(prev_hi, b.lo); // ascending, disjoint
        prev_hi = b.hi;
        n += b.count;
    }
    EXPECT_EQ(n, h.total());
}

TEST(LogHistogram, JsonShape)
{
    obs::LogHistogram h;
    h.add(42);
    std::ostringstream os;
    h.writeJson(os);
    const std::string js = os.str();
    EXPECT_NE(js.find("\"count\":1"), std::string::npos) << js;
    EXPECT_NE(js.find("\"buckets\":[["), std::string::npos) << js;
}

TEST(StudyDistributions, CsvAndJsonlSchema)
{
    obs::StudyDistributions d;
    obs::LogHistogram h;
    h.add(10);
    h.add(20);
    d.addPoint("p1", h);
    d.addPoint("p2", h);

    std::ostringstream csv;
    d.writeCsv(csv);
    EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
              "point,count,min,mean,p05,p25,p50,p75,p95,p99,max");
    // Two points + the pooled "all" row.
    EXPECT_EQ(d.pooled().total(), 4u);

    std::ostringstream jsonl;
    d.writeJsonl(jsonl);
    std::istringstream lines(jsonl.str());
    std::string line;
    int n = 0;
    bool saw_all = false;
    while (std::getline(lines, line)) {
        ++n;
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"point\":"), std::string::npos);
        if (line.find("\"point\":\"all\"") != std::string::npos)
            saw_all = true;
    }
    EXPECT_EQ(n, 3);
    EXPECT_TRUE(saw_all);
}

// ---------------------------------------------------------------- //
// Profiler semantics on hand-fed event streams
// ---------------------------------------------------------------- //

namespace
{

std::vector<obs::ProfileSymbol>
twoSymbols()
{
    // [100, 150) = f, [150, 200) = g; everything else unknown.
    return {{"f", 100, 50}, {"g", 150, 50}};
}

obs::ProfileConfig
profCfg(Count period, Count skid)
{
    obs::ProfileConfig cfg;
    cfg.enabled = true;
    cfg.periodTicks = period;
    cfg.skidInstrs = skid;
    return cfg;
}

} // namespace

TEST(Profiler, SymbolLookupBoundaries)
{
    obs::Profiler p(profCfg(1, 0));
    p.setSymbols(twoSymbols());
    EXPECT_EQ(p.symbolFor(100), "f");
    EXPECT_EQ(p.symbolFor(149), "f");
    EXPECT_EQ(p.symbolFor(150), "g");
    EXPECT_EQ(p.symbolFor(199), "g");
    EXPECT_EQ(p.symbolFor(200), "?");
    EXPECT_EQ(p.symbolFor(99), "?");
}

TEST(Profiler, SkidZeroLatchesInterruptedPc)
{
    obs::Profiler p(profCfg(1, 0));
    p.setSymbols(twoSymbols());
    p.onTimerTick(110, {});
    p.onUserRetire(110, 1);
    EXPECT_EQ(p.samples(), 1u);
    EXPECT_EQ(p.sampleHist().at(110), 1u);
    EXPECT_EQ(p.tickHist(), p.sampleHist());
    EXPECT_EQ(p.skidMisattributed(), 0u);
}

TEST(Profiler, SkidCountsRetiredInstructions)
{
    obs::Profiler p(profCfg(1, 2));
    p.setSymbols(twoSymbols());
    p.onTimerTick(148, {});
    // Retire stream after the tick: 148 (the interrupted
    // instruction), 149, then 150 — skid=2 skips two retires and
    // latches the third, which crossed into symbol g.
    p.onUserRetire(148, 1);
    p.onUserRetire(149, 1);
    p.onUserRetire(150, 1);
    EXPECT_EQ(p.samples(), 1u);
    EXPECT_EQ(p.sampleHist().at(150), 1u);
    EXPECT_EQ(p.tickHist().at(148), 1u);
    EXPECT_EQ(p.skidMisattributed(), 1u);
}

TEST(Profiler, PeriodDividesTicks)
{
    obs::Profiler p(profCfg(3, 0));
    p.setSymbols(twoSymbols());
    for (int t = 0; t < 9; ++t)
        p.onTimerTick(110, {});
    EXPECT_EQ(p.ticks(), 9u);
    EXPECT_EQ(p.samples(), 3u);
    // tickHist records only the *sampled* ticks.
    EXPECT_EQ(p.tickHist().at(110), 3u);
}

TEST(Profiler, PendingSkidDropsOverlappingRequest)
{
    obs::Profiler p(profCfg(1, 5));
    p.setSymbols(twoSymbols());
    p.onTimerTick(110, {});
    EXPECT_EQ(p.droppedSamples(), 0u);
    p.onTimerTick(111, {}); // previous latch still pending
    EXPECT_EQ(p.droppedSamples(), 1u);
    EXPECT_EQ(p.samples(), 0u);
}

TEST(Profiler, GroundTruthHistogramsAndBiasReport)
{
    obs::Profiler p(profCfg(1, 0));
    p.setSymbols(twoSymbols());
    // 3 retires in f (5 cycles), 1 in g (5 cycles); one sample in g.
    p.onUserRetire(100, 1);
    p.onUserRetire(101, 2);
    p.onUserRetire(102, 2);
    p.onTimerTick(160, {});
    p.onUserRetire(160, 5);

    EXPECT_EQ(p.retiredUserInstrs(), 4u);
    EXPECT_EQ(p.retiredUserCycles(), 10u);
    EXPECT_EQ(p.trueHist().at(100), 1u);
    EXPECT_EQ(p.trueCycleHist().at(101), 2u);

    const auto rows = p.biasReport();
    ASSERT_EQ(rows.size(), 2u);
    // Sorted by descending true (instruction) share: f first.
    EXPECT_EQ(rows[0].symbol, "f");
    EXPECT_DOUBLE_EQ(rows[0].trueShare, 0.75);
    EXPECT_DOUBLE_EQ(rows[0].trueCycleShare, 0.5);
    EXPECT_DOUBLE_EQ(rows[0].estShare, 0.0);
    EXPECT_EQ(rows[1].symbol, "g");
    EXPECT_DOUBLE_EQ(rows[1].estShare, 1.0);
}

TEST(Profiler, CollapsedStacksUseCallChain)
{
    obs::Profiler p(profCfg(1, 0));
    p.setSymbols(twoSymbols());
    p.onTimerTick(160, {110}); // caller in f, leaf in g
    p.onUserRetire(160, 1);
    std::ostringstream os;
    p.writeCollapsedStacks(os);
    EXPECT_EQ(os.str(), "f;g 1\n");
}

TEST(Profiler, ResetRestoresPowerOnState)
{
    obs::Profiler p(profCfg(2, 3));
    p.setSymbols(twoSymbols());
    p.onTimerTick(110, {});
    p.onTimerTick(110, {});
    p.onUserRetire(110, 1);
    p.reset();
    EXPECT_EQ(p.ticks(), 0u);
    EXPECT_EQ(p.samples(), 0u);
    EXPECT_EQ(p.retiredUserInstrs(), 0u);
    EXPECT_TRUE(p.sampleHist().empty());
    EXPECT_TRUE(p.trueHist().empty());
    // Symbols survive reset (they belong to the program, not the
    // run) and the period phase restarts.
    EXPECT_EQ(p.symbolFor(110), "f");
}

TEST(ProfileConfig, FromEnvAndFingerprint)
{
    unsetenv("PCA_PROFILE");
    EXPECT_FALSE(obs::ProfileConfig::fromEnv().enabled);
    EXPECT_EQ(obs::ProfileConfig::fromEnv().periodTicks, 1u);
    EXPECT_EQ(obs::ProfileConfig::fromEnv().skidInstrs, 0u);

    setenv("PCA_PROFILE", "on", 1);
    EXPECT_TRUE(obs::ProfileConfig::fromEnv().enabled);

    setenv("PCA_PROFILE", "period=4,skid=7", 1);
    const obs::ProfileConfig cfg = obs::ProfileConfig::fromEnv();
    EXPECT_TRUE(cfg.enabled);
    EXPECT_EQ(cfg.periodTicks, 4u);
    EXPECT_EQ(cfg.skidInstrs, 7u);

    setenv("PCA_PROFILE", "off", 1);
    EXPECT_FALSE(obs::ProfileConfig::fromEnv().enabled);
    unsetenv("PCA_PROFILE");
}

// ---------------------------------------------------------------- //
// Machine-level ground truth
// ---------------------------------------------------------------- //

namespace
{

/** Two-loop workload on a profiled machine with fast ticks. */
std::unique_ptr<Machine>
profiledMachine(Count period, Count skid)
{
    MachineConfig mc;
    mc.processor = cpu::Processor::AthlonX2;
    mc.iface = Interface::Pc;
    mc.ioInterrupts = false;
    mc.preemptProb = 0.0;
    mc.timerPeriodOverride = 9973;
    mc.profile.enabled = true;
    mc.profile.periodTicks = period;
    mc.profile.skidInstrs = skid;
    auto m = std::make_unique<Machine>(mc);
    {
        isa::Assembler a("main");
        a.call("hot").call("cold").halt();
        m->addUserBlock(a.take());
    }
    for (const char *name : {"hot", "cold"}) {
        isa::Assembler a(name);
        a.movImm(isa::Reg::Eax, 0);
        int loop = a.label();
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax,
                    std::string(name) == "hot" ? 60000 : 20000)
            .jne(loop)
            .ret();
        m->addUserBlock(a.take());
    }
    m->finalize();
    return m;
}

Count
histTotal(const std::map<Addr, Count> &h)
{
    Count n = 0;
    for (const auto &[pc, c] : h)
        n += c;
    return n;
}

} // namespace

TEST(ProfiledMachine, SkidZeroSamplesEqualTickHistExactly)
{
    auto m = profiledMachine(/*period=*/1, /*skid=*/0);
    const cpu::RunResult r = m->run();
    const obs::Profiler &p = *m->profiler();
    ASSERT_GT(p.ticks(), 10u);
    EXPECT_EQ(p.samples(), p.ticks());
    EXPECT_EQ(p.sampleHist(), p.tickHist());
    EXPECT_EQ(p.skidMisattributed(), 0u);
    // The exact retired-PC histogram covers every user instruction.
    EXPECT_EQ(p.retiredUserInstrs(), r.userInstr);
    EXPECT_EQ(histTotal(p.trueHist()), r.userInstr);
    EXPECT_EQ(histTotal(p.sampleHist()), p.samples());
}

TEST(ProfiledMachine, SkidDisplacesButConservesSamples)
{
    auto m = profiledMachine(/*period=*/1, /*skid=*/3);
    m->run();
    const obs::Profiler &p = *m->profiler();
    ASSERT_GT(p.ticks(), 10u);
    // Every tick still yields exactly one sample (the latch resolves
    // within the run) unless it was dropped while pending.
    EXPECT_EQ(p.samples() + p.droppedSamples(), p.ticks());
    EXPECT_EQ(histTotal(p.sampleHist()), p.samples());
    EXPECT_EQ(histTotal(p.tickHist()), p.samples());
}

TEST(ProfiledMachine, RebootIsDeterministicAndResetsProfile)
{
    auto m = profiledMachine(/*period=*/2, /*skid=*/1);
    m->run();
    const auto sample1 = m->profiler()->sampleHist();
    const auto true1 = m->profiler()->trueHist();
    const Count ticks1 = m->profiler()->ticks();
    ASSERT_GT(ticks1, 0u);

    m->reboot(1);
    EXPECT_EQ(m->profiler()->ticks(), 0u);
    m->run();
    EXPECT_EQ(m->profiler()->sampleHist(), sample1);
    EXPECT_EQ(m->profiler()->trueHist(), true1);
    EXPECT_EQ(m->profiler()->ticks(), ticks1);
}

TEST(ProfiledMachine, EveryNopOfARecordRetiresAtItsOwnAddress)
{
    // work(100) is one record; its Nops retire at addr .. addr + 99,
    // one each, not all at the record's address.
    MachineConfig mc;
    mc.profile.enabled = true;
    Machine m(mc);
    isa::Assembler a("main");
    a.work(100).halt();
    const int block = m.addUserBlock(a.take());
    m.finalize();
    const Addr addr = m.program().block(block).inst(0).addr;
    const cpu::RunResult r = m.run();
    EXPECT_EQ(r.userInstr, 101u);
    const auto hist = m.profiler()->trueHist();
    for (Addr i = 0; i < 100; ++i) {
        const auto it = hist.find(addr + i);
        ASSERT_NE(it, hist.end()) << i;
        EXPECT_EQ(it->second, 1u) << i;
    }
    EXPECT_EQ(hist.size(), 101u); // the Nops and the halt
}

TEST(ProfiledMachine, TicksLandInsideNopRecords)
{
    // A loop around one 4999-Nop record under a 10007-cycle timer:
    // ticks interrupt the record at many positions, and each sample
    // names the Nop it interrupted.
    MachineConfig mc;
    mc.processor = cpu::Processor::Core2Duo;
    mc.ioInterrupts = false;
    mc.preemptProb = 0.0;
    mc.timerPeriodOverride = 10007;
    mc.profile.enabled = true;
    Machine m(mc);
    isa::Assembler a("main");
    a.movImm(isa::Reg::Esi, 0);
    int loop = a.label();
    a.nop(4999).addImm(isa::Reg::Esi, 1).cmpImm(isa::Reg::Esi, 200)
        .jne(loop)
        .halt();
    const int block = m.addUserBlock(a.take());
    m.finalize();
    const Addr start = m.program().block(block).inst(1).addr;
    m.run();
    const obs::Profiler &p = *m.profiler();
    EXPECT_EQ(p.sampleHist(), p.tickHist());
    std::size_t inside = 0;
    for (const auto &[pc, n] : p.tickHist())
        if (pc > start && pc < start + 4999)
            ++inside;
    EXPECT_GE(inside, 20u);
}

// ---------------------------------------------------------------- //
// Snapshot seqlock
// ---------------------------------------------------------------- //

TEST(SpcSnapshot, RoundTripPreservesNamesAndValues)
{
    const std::string path =
        testing::TempDir() + "pca_snap_roundtrip.bin";
    {
        obs::SpcSnapshotWriter w(path, 3);
        w.publishValues({"alpha", "beta", "gamma"}, {1, 2, 3});
    }
    obs::SpcSnapshotReader r;
    ASSERT_TRUE(r.open(path).ok());
    const auto snap = r.read();
    ASSERT_TRUE(snap.ok()) << snap.status().message();
    ASSERT_EQ(snap->counters.size(), 3u);
    EXPECT_EQ(snap->counters[0].first, "alpha");
    EXPECT_EQ(snap->counters[2].second, 3u);
    EXPECT_EQ(snap->publishes, 1u);
    EXPECT_EQ(snap->seq % 2, 0u);
    std::remove(path.c_str());
}

TEST(SpcSnapshot, ReaderRejectsGarbage)
{
    obs::SpcSnapshotReader missing;
    EXPECT_EQ(missing.open(testing::TempDir() + "pca_no_such.bin")
                  .code(),
              StatusCode::NotFound);

    const std::string path = testing::TempDir() + "pca_garbage.bin";
    {
        std::FILE *f = std::fopen(path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        const std::string junk(4096, 'x');
        std::fwrite(junk.data(), 1, junk.size(), f);
        std::fclose(f);
    }
    obs::SpcSnapshotReader r;
    EXPECT_EQ(r.open(path).code(), StatusCode::InvalidArgument);
    std::remove(path.c_str());
}

TEST(SpcSnapshot, NoTornReadsUnderConcurrentWriter)
{
    const std::string path = testing::TempDir() + "pca_seqlock.bin";
    constexpr std::size_t n = 16;
    const std::vector<std::string> names(n, "ctr");

    obs::SpcSnapshotWriter writer(path, n);
    writer.publishValues(names, std::vector<Count>(n, 0));
    obs::SpcSnapshotReader reader;
    ASSERT_TRUE(reader.open(path).ok());

    // Writer thread publishes uniform arrays (all counters equal to
    // the iteration number); any torn read surfaces as a snapshot
    // whose counters disagree with each other.
    std::atomic<bool> stop{false};
    std::thread wt([&] {
        Count i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
            ++i;
            writer.publishValues(names,
                                 std::vector<Count>(n, i));
        }
    });

    // Read until 1,000 consistent snapshots or 10 s, whichever comes
    // first: on a saturated host a fixed number of attempts can all
    // collide with the writer. A failed assertion returns from the
    // lambda only, so the writer is always stopped and joined.
    int successes = 0;
    const auto readSnapshots = [&] {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(10);
        for (long it = 0;
             successes < 1000 &&
             std::chrono::steady_clock::now() < deadline;
             ++it) {
            const auto snap = reader.read();
            if (!snap.ok()) {
                // Retry budget exhausted against a hot writer:
                // legal, just not a torn read.
                ASSERT_EQ(snap.status().code(),
                          StatusCode::Unavailable);
                continue;
            }
            ++successes;
            ASSERT_EQ(snap->seq % 2, 0u);
            ASSERT_EQ(snap->counters.size(), n);
            for (std::size_t i = 1; i < n; ++i)
                ASSERT_EQ(snap->counters[i].second,
                          snap->counters[0].second)
                    << "torn read at iteration " << it;
        }
    };
    readSnapshots();
    stop.store(true);
    wt.join();
    EXPECT_GT(successes, 0);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------- //
// Invisibility: studies byte-identical with observability armed
// ---------------------------------------------------------------- //

namespace
{

/**
 * Run @p study with PCA_PROFILE set to @p profile ("" = unset) and
 * PCA_THREADS=@p threads; return its CSV.
 */
template <typename StudyFn>
std::string
csvWith(const char *profile, int threads, StudyFn &&study)
{
    if (profile && *profile)
        setenv("PCA_PROFILE", profile, 1);
    else
        unsetenv("PCA_PROFILE");
    setenv("PCA_THREADS", std::to_string(threads).c_str(), 1);
    const core::DataTable table = study();
    unsetenv("PCA_THREADS");
    unsetenv("PCA_PROFILE");
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

} // namespace

TEST(ProfileStudies, NullErrorStudyByteIdentical)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo,
                                         cpu::Processor::PentiumD})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    ASSERT_FALSE(points.empty());
    auto study = [&] {
        return core::runNullErrorStudy(points, 3, 42,
                                       core::StudyObsOptions{});
    };
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith("period=1,skid=2", threads, study),
                  csvWith("", threads, study))
            << "threads=" << threads;
}

TEST(ProfileStudies, DurationStudyByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.interfaces = {Interface::Pc};
    opt.loopSizes = {1, 1000, 5000};
    opt.runsPerSize = 2;
    auto study = [&] { return core::runDurationStudy(opt); };
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith("on", threads, study),
                  csvWith("", threads, study))
            << "threads=" << threads;
}

TEST(ProfileStudies, CycleStudyByteIdentical)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.loopSizes = {1, 1000};
    opt.optLevels = {0, 3};
    opt.runsPerConfig = 2;
    auto study = [&] { return core::runCycleStudy(opt); };
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith("period=2,skid=8", threads, study),
                  csvWith("", threads, study))
            << "threads=" << threads;
}

TEST(DistributionStudies, CollectionLeavesCsvByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.interfaces = {Interface::Pc};
    opt.loopSizes = {1, 1000};
    opt.runsPerSize = 3;

    auto plain = [&] { return core::runDurationStudy(opt); };
    const std::string baseline = csvWith("", 1, plain);

    for (const int threads : {1, 4}) {
        obs::StudyDistributions dist;
        core::DurationStudyOptions with = opt;
        with.obs.distributions = &dist;
        auto study = [&] { return core::runDurationStudy(with); };
        EXPECT_EQ(csvWith("", threads, study), baseline)
            << "threads=" << threads;
        // One histogram per factor point, in point order, holding
        // every ok run — independent of the thread count.
        EXPECT_EQ(dist.points().size(),
                  opt.loopSizes.size() * 1u); // 1 proc x 1 iface
        EXPECT_EQ(dist.pooled().total(),
                  opt.loopSizes.size() *
                      static_cast<Count>(opt.runsPerSize));
    }
}

TEST(DistributionStudies, OutputIndependentOfThreadCount)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    std::string csv1, csv4;
    for (const int threads : {1, 4}) {
        obs::StudyDistributions dist;
        core::StudyObsOptions obs;
        obs.distributions = &dist;
        auto study = [&] {
            return core::runNullErrorStudy(points, 3, 42, obs);
        };
        (void)csvWith("", threads, study);
        std::ostringstream os;
        dist.writeCsv(os);
        dist.writeJsonl(os);
        (threads == 1 ? csv1 : csv4) = os.str();
    }
    EXPECT_EQ(csv1, csv4);
    EXPECT_FALSE(csv1.empty());
}
