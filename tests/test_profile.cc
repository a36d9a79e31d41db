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
#include "obs/spc.hh"

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
    // Whatever retires after the tick, skid 0 names the interrupted
    // PC itself.
    p.onUserRetire(160, 1);
    const obs::ProfileSamples s = p.sample();
    EXPECT_EQ(s.samples, 1u);
    EXPECT_EQ(s.sampleHist, (std::map<Addr, Count>{{110, 1}}));
    EXPECT_EQ(s.tickHist, s.sampleHist);
    EXPECT_EQ(s.misattributed, 0u);
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
    const obs::ProfileSamples s = p.sample();
    EXPECT_EQ(s.samples, 1u);
    EXPECT_EQ(s.sampleHist, (std::map<Addr, Count>{{150, 1}}));
    EXPECT_EQ(s.tickHist, (std::map<Addr, Count>{{148, 1}}));
    EXPECT_EQ(s.misattributed, 1u);
    // The same record answers the shallower skids.
    EXPECT_EQ(p.sample(1, 1).sampleHist,
              (std::map<Addr, Count>{{149, 1}}));
    EXPECT_EQ(p.sample(1, 1).misattributed, 0u);
    EXPECT_EQ(p.sample(1, 0).sampleHist,
              (std::map<Addr, Count>{{148, 1}}));
}

TEST(Profiler, PeriodDividesTicks)
{
    obs::Profiler p(profCfg(3, 0));
    p.setSymbols(twoSymbols());
    for (Addr pc = 101; pc <= 109; ++pc)
        p.onTimerTick(pc, {});
    EXPECT_EQ(p.ticks(), 9u);
    const obs::ProfileSamples s = p.sample();
    EXPECT_EQ(s.samples, 3u);
    // tickHist records only the *sampled* ticks: the 3rd, 6th, 9th.
    EXPECT_EQ(s.tickHist, (std::map<Addr, Count>{
                              {103, 1}, {106, 1}, {109, 1}}));
    EXPECT_EQ(p.sample(1, 0).samples, 9u);
}

TEST(Profiler, PendingSkidDropsOverlappingRequest)
{
    obs::Profiler p(profCfg(1, 2));
    p.setSymbols(twoSymbols());
    // Ticks after 0, 2 and 3 retires. The second comes while the
    // first's latch (its third retire) is pending: dropped. The third
    // comes 3 retires after the last *accepted* tick: accepted.
    p.onTimerTick(110, {});
    p.onUserRetire(110, 1);
    p.onUserRetire(111, 1);
    p.onTimerTick(112, {});
    p.onUserRetire(112, 1);
    p.onTimerTick(113, {});
    for (Addr pc = 113; pc <= 116; ++pc)
        p.onUserRetire(pc, 1);
    const obs::ProfileSamples s = p.sample();
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_EQ(s.samples, 2u);
    EXPECT_EQ(s.tickHist, (std::map<Addr, Count>{{110, 1}, {113, 1}}));
    EXPECT_EQ(s.sampleHist, (std::map<Addr, Count>{{112, 1}, {115, 1}}));
    // Skid 0 latches at the tick, so nothing is ever pending.
    EXPECT_EQ(p.sample(1, 0).dropped, 0u);
    EXPECT_EQ(p.sample(1, 0).samples, 3u);
}

TEST(Profiler, DroppedTickCountsTowardPeriod)
{
    obs::Profiler p(profCfg(2, 3));
    p.setSymbols(twoSymbols());
    // Ticks 2, 4 and 6 are sampled. Tick 4 comes 2 retires after
    // tick 2 and is dropped; tick 5 is still not sampled.
    const std::vector<std::pair<Addr, int>> ticks = {
        {101, 0}, {102, 0}, {103, 1}, {104, 1}, {105, 2}, {106, 1}};
    for (const auto &[pc, retires_after] : ticks) {
        p.onTimerTick(pc, {});
        for (int r = 0; r < retires_after; ++r)
            p.onUserRetire(pc, 1);
    }
    for (int r = 0; r < 4; ++r)
        p.onUserRetire(106, 1);
    const obs::ProfileSamples s = p.sample();
    EXPECT_EQ(s.dropped, 1u);
    EXPECT_EQ(s.tickHist, (std::map<Addr, Count>{{102, 1}, {106, 1}}));
}

TEST(Profiler, LatchPastTheRunEndCountsInTickHistOnly)
{
    obs::Profiler p(profCfg(1, 2));
    p.setSymbols(twoSymbols());
    p.onTimerTick(110, {120});
    p.onUserRetire(110, 1);
    p.onUserRetire(111, 1);
    const obs::ProfileSamples s = p.sample();
    EXPECT_EQ(s.tickHist, (std::map<Addr, Count>{{110, 1}}));
    EXPECT_EQ(s.samples, 0u);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_TRUE(s.sampleHist.empty());
    EXPECT_TRUE(s.stacks.empty());
    EXPECT_EQ(p.sample(1, 1).samples, 1u);
}

TEST(Profiler, CloseTicksShareRetireWindows)
{
    obs::Profiler p(profCfg(1, 8));
    p.setSymbols(twoSymbols());
    // Ticks after 0 and 3 retires; retire i is at PC 100 + i. Both
    // windows fill from the same retires.
    p.onTimerTick(100, {});
    for (Addr pc = 100; pc < 103; ++pc)
        p.onUserRetire(pc, 1);
    p.onTimerTick(103, {});
    for (Addr pc = 103; pc < 120; ++pc)
        p.onUserRetire(pc, 1);
    const obs::ProfileSamples s = p.sample(1, 2);
    EXPECT_EQ(s.dropped, 0u);
    EXPECT_EQ(s.sampleHist, (std::map<Addr, Count>{{102, 1}, {105, 1}}));
    // At the configured skid the second tick is dropped.
    EXPECT_EQ(p.sample().sampleHist, (std::map<Addr, Count>{{108, 1}}));
    EXPECT_EQ(p.sample().dropped, 1u);
    // Period 2 samples the second tick alone, 8 retires after it.
    EXPECT_EQ(p.sample(2, 8).sampleHist,
              (std::map<Addr, Count>{{111, 1}}));
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

    const auto rows = p.biasReport(p.sample());
    ASSERT_EQ(rows.size(), 2u);
    // Sorted by descending true (instruction) share: f first.
    EXPECT_EQ(rows[0].symbol, "f");
    EXPECT_DOUBLE_EQ(rows[0].trueShare, 0.75);
    EXPECT_EQ(rows[0].trueCycles, 5u);
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
    EXPECT_EQ(p.sample().stacks,
              (std::map<std::string, Count>{{"f;g", 1}}));
}

TEST(Profiler, ResetRestoresPowerOnState)
{
    obs::Profiler p(profCfg(2, 3));
    p.setSymbols(twoSymbols());
    for (int t = 0; t < 3; ++t)
        p.onTimerTick(110, {});
    p.onUserRetire(110, 1);
    p.reset();
    EXPECT_EQ(p.ticks(), 0u);
    EXPECT_EQ(p.sample(), obs::ProfileSamples{});
    EXPECT_EQ(p.retiredUserInstrs(), 0u);
    EXPECT_TRUE(p.trueHist().empty());
    // Symbols survive reset (they belong to the program, not the
    // run) and the period phase restarts: the second tick after the
    // reset is sampled.
    EXPECT_EQ(p.symbolFor(110), "f");
    p.onTimerTick(120, {});
    p.onTimerTick(160, {});
    for (int r = 0; r < 4; ++r)
        p.onUserRetire(160, 1);
    EXPECT_EQ(p.sample().tickHist, (std::map<Addr, Count>{{160, 1}}));
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
    const obs::ProfileSamples s = p.sample();
    ASSERT_GT(p.ticks(), 10u);
    EXPECT_EQ(s.samples, p.ticks());
    EXPECT_EQ(s.sampleHist, s.tickHist);
    EXPECT_EQ(s.misattributed, 0u);
    // The exact retired-PC histogram covers every user instruction.
    EXPECT_EQ(p.retiredUserInstrs(), r.userInstr);
    EXPECT_EQ(histTotal(p.trueHist()), r.userInstr);
    EXPECT_EQ(histTotal(s.sampleHist), s.samples);
}

TEST(ProfiledMachine, SkidDisplacesButConservesSamples)
{
    auto m = profiledMachine(/*period=*/1, /*skid=*/3);
    m->run();
    const obs::Profiler &p = *m->profiler();
    const obs::ProfileSamples s = p.sample();
    ASSERT_GT(p.ticks(), 10u);
    // Every tick still yields exactly one sample (the latch resolves
    // within the run) unless it was dropped while pending.
    EXPECT_EQ(s.samples + s.dropped, p.ticks());
    EXPECT_EQ(histTotal(s.sampleHist), s.samples);
    EXPECT_EQ(histTotal(s.tickHist), s.samples);
}

TEST(ProfiledMachine, RebootIsDeterministicAndResetsProfile)
{
    auto m = profiledMachine(/*period=*/2, /*skid=*/1);
    m->run();
    const auto sample1 = m->profiler()->sample();
    const auto true1 = m->profiler()->trueHist();
    const Count ticks1 = m->profiler()->ticks();
    ASSERT_GT(ticks1, 0u);

    m->reboot(1);
    EXPECT_EQ(m->profiler()->ticks(), 0u);
    m->run();
    EXPECT_EQ(m->profiler()->sample(), sample1);
    EXPECT_EQ(m->profiler()->trueHist(), true1);
    EXPECT_EQ(m->profiler()->ticks(), ticks1);
}

TEST(ProfiledMachine, OneRunAnswersEverySampler)
{
    // ext_profiler_bias derives its 16 cells from one run per seed
    // of a machine recording for skid 32; each must equal the
    // samples of a machine configured as that cell.
    auto deep = profiledMachine(/*period=*/1, /*skid=*/32);
    std::vector<std::unique_ptr<Machine>> cells;
    for (const Count period : {1, 2, 4, 8})
        for (const Count skid : {0, 1, 8, 32})
            cells.push_back(profiledMachine(period, skid));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        deep->reboot(seed);
        deep->run();
        for (const auto &m : cells) {
            m->reboot(seed);
            m->run();
            const obs::ProfileConfig &cfg = m->config().profile;
            SCOPED_TRACE("seed=" + std::to_string(seed) + " period=" +
                         std::to_string(cfg.periodTicks) + " skid=" +
                         std::to_string(cfg.skidInstrs));
            EXPECT_EQ(
                deep->profiler()->sample(cfg.periodTicks, cfg.skidInstrs),
                m->profiler()->sample());
            EXPECT_GT(m->profiler()->sample().samples, 0u);
        }
    }
}

TEST(ProfiledMachine, ProfileSamplesCountsEachRunOnce)
{
    // profile_samples adds the configured sampler's samples of each
    // run: a run without a reboot adds only what it adds to the record.
    auto m = profiledMachine(/*period=*/2, /*skid=*/3);
    obs::spcReset();
    obs::spcAttach("profile_samples");
    m->run();
    const Count first = m->profiler()->sample().samples;
    ASSERT_GT(first, 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::ProfileSamples), first);
    m->run();
    const Count both = m->profiler()->sample().samples;
    EXPECT_GT(both, first);
    EXPECT_EQ(obs::spcValue(obs::Spc::ProfileSamples), both);
    m->reboot(2);
    m->run();
    EXPECT_EQ(obs::spcValue(obs::Spc::ProfileSamples),
              both + m->profiler()->sample().samples);
    obs::spcReset();
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
    const obs::ProfileSamples s = m.profiler()->sample();
    EXPECT_EQ(s.sampleHist, s.tickHist);
    std::size_t inside = 0;
    for (const auto &[pc, n] : s.tickHist)
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
