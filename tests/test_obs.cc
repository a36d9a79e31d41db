/**
 * @file
 * Tests for the observability layer: software performance counters,
 * the virtual-time tracer (including a round-trip of its Chrome
 * trace-event JSON through a parser), and the per-run error
 * attribution exactness invariant.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <sstream>
#include <string>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/harness.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "obs/attribution.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace pca::obs
{
namespace
{

/**
 * Minimal recursive-descent JSON parser: enough to verify the trace
 * export is well-formed JSON without external dependencies. Returns
 * false on any syntax error.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    parse()
    {
        skipWs();
        if (!value())
            return false;
        skipWs();
        return pos == s.size();
    }

  private:
    bool
    value()
    {
        if (pos >= s.size())
            return false;
        switch (s[pos]) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': return literal("true");
          case 'f': return literal("false");
          case 'n': return literal("null");
          default: return number();
        }
    }

    bool
    object()
    {
        ++pos; // '{'
        skipWs();
        if (peek() == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!string())
                return false;
            skipWs();
            if (peek() != ':')
                return false;
            ++pos;
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    array()
    {
        ++pos; // '['
        skipWs();
        if (peek() == ']') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (!value())
                return false;
            skipWs();
            if (peek() == ',') {
                ++pos;
                continue;
            }
            if (peek() == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool
    string()
    {
        if (peek() != '"')
            return false;
        ++pos;
        while (pos < s.size() && s[pos] != '"') {
            if (s[pos] == '\\') {
                ++pos;
                if (pos >= s.size())
                    return false;
            }
            ++pos;
        }
        if (pos >= s.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool
    number()
    {
        const std::size_t start = pos;
        if (peek() == '-')
            ++pos;
        while (pos < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[pos])) ||
                s[pos] == '.' || s[pos] == 'e' || s[pos] == 'E' ||
                s[pos] == '+' || s[pos] == '-'))
            ++pos;
        return pos > start;
    }

    bool
    literal(const char *lit)
    {
        const std::string l(lit);
        if (s.compare(pos, l.size(), l) != 0)
            return false;
        pos += l.size();
        return true;
    }

    char peek() const { return pos < s.size() ? s[pos] : '\0'; }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\n' || s[pos] == '\t' ||
                s[pos] == '\r'))
            ++pos;
    }

    const std::string &s;
    std::size_t pos = 0;
};

/** SPC state is process-global: leave it clean for other tests. */
class SpcTest : public ::testing::Test
{
  protected:
    void SetUp() override { spcReset(); }
    void TearDown() override { spcReset(); }
};

TEST_F(SpcTest, NamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (Spc c : allSpcs()) {
        const std::string n = spcName(c);
        EXPECT_FALSE(n.empty());
        EXPECT_TRUE(names.insert(n).second) << "duplicate: " << n;
    }
    EXPECT_EQ(names.size(), numSpcs);
}

TEST_F(SpcTest, DisabledCountersDropIncrements)
{
    PCA_SPC_INC(RunsExecuted);
    PCA_SPC_ADD(KernelInstrs, 100);
    EXPECT_EQ(spcValue(Spc::RunsExecuted), 0u);
    EXPECT_EQ(spcValue(Spc::KernelInstrs), 0u);
    EXPECT_FALSE(spcAnyEnabled());
}

TEST_F(SpcTest, AttachAllEnablesEverything)
{
    EXPECT_EQ(spcAttach("all"), static_cast<int>(numSpcs));
    for (Spc c : allSpcs())
        EXPECT_TRUE(spcEnabled(c));
    PCA_SPC_INC(RunsExecuted);
    PCA_SPC_ADD(RunsExecuted, 2);
    EXPECT_EQ(spcValue(Spc::RunsExecuted), 3u);
}

TEST_F(SpcTest, AttachListEnablesExactlyThoseNamed)
{
    const std::string spec = std::string(spcName(Spc::Preemptions)) +
        "," + spcName(Spc::InterruptsTimer);
    EXPECT_EQ(spcAttach(spec), 2);
    EXPECT_TRUE(spcEnabled(Spc::Preemptions));
    EXPECT_TRUE(spcEnabled(Spc::InterruptsTimer));
    EXPECT_FALSE(spcEnabled(Spc::RunsExecuted));
    PCA_SPC_INC(Preemptions);
    PCA_SPC_INC(RunsExecuted); // disabled: dropped
    EXPECT_EQ(spcValue(Spc::Preemptions), 1u);
    EXPECT_EQ(spcValue(Spc::RunsExecuted), 0u);
}

TEST_F(SpcTest, AttachNoneDisables)
{
    spcAttach("all");
    EXPECT_EQ(spcAttach("none"), 0);
    EXPECT_FALSE(spcAnyEnabled());
}

TEST_F(SpcTest, ResetZeroesValues)
{
    spcAttach("all");
    PCA_SPC_ADD(MachineBoots, 7);
    spcReset();
    EXPECT_EQ(spcValue(Spc::MachineBoots), 0u);
    EXPECT_FALSE(spcAnyEnabled());
}

TEST_F(SpcTest, DumpListsEnabledCountersWithValues)
{
    spcAttach(spcName(Spc::MachineBoots));
    PCA_SPC_ADD(MachineBoots, 42);
    std::ostringstream os;
    spcDump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find(spcName(Spc::MachineBoots)), std::string::npos);
    EXPECT_NE(out.find("42"), std::string::npos);
    EXPECT_EQ(out.find(spcName(Spc::RunsExecuted)),
              std::string::npos);
}

TEST_F(SpcTest, MeasurementRunFeedsCounters)
{
    spcAttach("all");
    harness::HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = harness::Interface::Pc;
    cfg.pattern = harness::AccessPattern::StartRead;
    cfg.mode = harness::CountingMode::UserKernel;
    cfg.seed = 11;
    // Long enough to span several 2.4M-cycle timer periods.
    harness::HarnessSession(cfg, harness::LoopBench(3'000'000))
        .run(cfg.seed);
    EXPECT_EQ(spcValue(Spc::MachineBoots), 1u);
    EXPECT_EQ(spcValue(Spc::RunsExecuted), 1u);
    EXPECT_EQ(spcValue(Spc::PatternCallsSetup), 1u);
    EXPECT_EQ(spcValue(Spc::PatternCallsStart), 1u);
    EXPECT_EQ(spcValue(Spc::PatternCallsRead), 1u);
    EXPECT_GT(spcValue(Spc::InterruptsTimer), 0u);
    EXPECT_GT(spcValue(Spc::KernelInstrs), 0u);
    EXPECT_GT(spcValue(Spc::FastForwardIters), 0u);
}

class TracerTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        tracer().clear();
        tracer().setEnabled(true);
    }
    void
    TearDown() override
    {
        tracer().setEnabled(false);
        tracer().clear();
    }
};

TEST_F(TracerTest, DisabledTracerRecordsNothing)
{
    tracer().setEnabled(false);
    tracer().begin("a", "c", 1);
    tracer().end(2);
    tracer().instant("b", "c", 3);
    EXPECT_EQ(tracer().size(), 0u);
}

TEST_F(TracerTest, ChromeJsonRoundTripsThroughParser)
{
    tracer().begin("run", "machine", 100);
    tracer().instant("preempt", "sched", 150);
    tracer().begin("irq:timer", "kernel", 200);
    tracer().end(260);
    tracer().end(400);
    tracer().complete("bench \"quoted\"\n", "harness", 110, 280);
    EXPECT_EQ(tracer().size(), 6u);

    std::ostringstream os;
    tracer().writeChromeJson(os);
    const std::string json = os.str();

    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse()) << json;

    // Spot-check the trace-event fields Perfetto keys on.
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"irq:timer\""), std::string::npos);
    // The escaped quote and newline must not break the JSON.
    EXPECT_NE(json.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(json.find("\\n"), std::string::npos);
}

TEST_F(TracerTest, HarnessEmitsPhaseSpansWhenEnabled)
{
    harness::HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = harness::Interface::Pc;
    cfg.pattern = harness::AccessPattern::StartRead;
    cfg.mode = harness::CountingMode::UserKernel;
    cfg.seed = 3;
    harness::HarnessSession(cfg, harness::LoopBench(20000)).run(cfg.seed);

    std::ostringstream os;
    tracer().writeChromeJson(os);
    const std::string json = os.str();
    JsonChecker checker(json);
    EXPECT_TRUE(checker.parse());
    EXPECT_NE(json.find("\"setup\""), std::string::npos);
    EXPECT_NE(json.find("\"bench\""), std::string::npos);
    EXPECT_NE(json.find("\"read\""), std::string::npos);
    EXPECT_NE(json.find("\"run:main\""), std::string::npos);
}

/**
 * A run answered from the session's reference executes nothing, but
 * still records one instant event: the trace lists every run.
 */
TEST_F(TracerTest, ReusedRunRecordsOneInstantEvent)
{
    harness::HarnessConfig cfg;
    cfg.interruptsEnabled = false;
    harness::measurePoint(cfg, harness::NullBench(), 12,
                          [](int r) { return 1 + r; });

    std::ostringstream os;
    tracer().writeChromeJson(os);
    const std::string json = os.str();
    const auto count = [&](const std::string &name) {
        std::size_t n = 0;
        for (std::size_t at = json.find(name); at != std::string::npos;
             at = json.find(name, at + 1))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"run:main\""), 1u);
    EXPECT_EQ(count("\"run-reused:main\""), 11u);
}

TEST(AttrClass, VectorMapping)
{
    EXPECT_EQ(attrClassForVector(0), AttrClass::Timer);
    EXPECT_EQ(attrClassForVector(1), AttrClass::Io);
    EXPECT_EQ(attrClassForVector(2), AttrClass::Pmi);
}

TEST(Attribution, ComponentsSumByConstruction)
{
    AttrCounts c0{}, c1{};
    c1[static_cast<std::size_t>(AttrClass::User)] = 1000;
    c1[static_cast<std::size_t>(AttrClass::Syscall)] = 40;
    c1[static_cast<std::size_t>(AttrClass::Timer)] = 300;
    c1[static_cast<std::size_t>(AttrClass::Io)] = 12;
    c1[static_cast<std::size_t>(AttrClass::Preempt)] = 77;
    const ErrorAttribution a = attributeError(c0, c1, 950);
    EXPECT_EQ(a.patternOverhead, 90);  // (1000 - 950) + 40
    EXPECT_EQ(a.timerInterrupts, 300);
    EXPECT_EQ(a.ioInterrupts, 12);
    EXPECT_EQ(a.preemption, 77);
    EXPECT_EQ(a.other, 0);
    EXPECT_EQ(a.total(), 1429 - 950);
}

/**
 * The acceptance invariant: for seeded UserKernel runs the
 * attribution components sum to the reported total error, exactly.
 */
TEST(Attribution, ExactForSeededUserKernelRuns)
{
    using namespace harness;
    const struct
    {
        Interface iface;
        AccessPattern pattern;
    } cases[] = {
        {Interface::Pc, AccessPattern::StartRead},
        {Interface::Pc, AccessPattern::ReadRead},
        {Interface::Pc, AccessPattern::StartStop},
        {Interface::Pm, AccessPattern::StartRead},
        {Interface::Pm, AccessPattern::ReadStop},
        {Interface::PLpc, AccessPattern::StartRead},
        {Interface::PHpm, AccessPattern::StartStop},
    };
    for (const auto &c : cases) {
        HarnessConfig cfg;
        cfg.processor = cpu::Processor::Core2Duo;
        cfg.iface = c.iface;
        cfg.pattern = c.pattern;
        cfg.mode = CountingMode::UserKernel;
        cfg.seed = 42;
        for (const StatusOr<Measurement> &run :
             measurePoint(cfg, LoopBench(100000), 5, [&](int r) {
                 return mixSeed(cfg.seed, static_cast<std::uint64_t>(r));
             })) {
            const Measurement &m = run.value();
            EXPECT_EQ(m.attribution.total(), m.error())
                << interfaceCode(c.iface) << "/"
                << patternName(c.pattern);
            // A 100k-iteration loop on a preemptible machine sees
            // timer ticks; the decomposition must show them.
            EXPECT_GE(m.attribution.timerInterrupts, 0);
        }
    }
}

TEST(Attribution, UserModeCountsOnlyPatternOverhead)
{
    using namespace harness;
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;
    cfg.pattern = AccessPattern::StartRead;
    cfg.mode = CountingMode::User;
    cfg.seed = 9;
    const Measurement m = HarnessSession(cfg, LoopBench(100000)).run(cfg.seed);
    EXPECT_EQ(m.attribution.total(), m.error());
    // User-mode counters never see kernel instructions.
    EXPECT_EQ(m.attribution.timerInterrupts, 0);
    EXPECT_EQ(m.attribution.ioInterrupts, 0);
    EXPECT_EQ(m.attribution.preemption, 0);
    EXPECT_EQ(m.attribution.patternOverhead, m.error());
}

TEST(StudyObs, AttributionColumnsSumToErrorPerRow)
{
    auto points = core::FactorSpace()
                      .processors({cpu::Processor::Core2Duo})
                      .interfaces({harness::Interface::Pc})
                      .patterns({harness::AccessPattern::StartRead})
                      .modes({harness::CountingMode::UserKernel})
                      .generate();
    core::StudyObsOptions obs_opt;
    obs_opt.attributionColumns = true;
    const auto table = core::runNullErrorStudy(points, 3, 7, obs_opt);
    ASSERT_GT(table.size(), 0u);
    const auto pat = table.columnIndex("attr_pattern");
    const auto tim = table.columnIndex("attr_timer");
    const auto io = table.columnIndex("attr_io");
    const auto pre = table.columnIndex("attr_preempt");
    for (const auto &row : table.rows()) {
        const long long sum = std::stoll(row.keys[pat]) +
            std::stoll(row.keys[tim]) + std::stoll(row.keys[io]) +
            std::stoll(row.keys[pre]);
        EXPECT_EQ(static_cast<double>(sum), row.value);
    }
}

TEST(StudyObs, DefaultSchemaIsUnchanged)
{
    auto points = core::FactorSpace()
                      .processors({cpu::Processor::Core2Duo})
                      .interfaces({harness::Interface::Pc})
                      .patterns({harness::AccessPattern::StartRead})
                      .modes({harness::CountingMode::User})
                      .generate();
    const auto table = core::runNullErrorStudy(points, 1, 7);
    EXPECT_THROW(table.columnIndex("attr_pattern"),
                 std::exception);
}

TEST(StudyObs, MetricsAndProgressGoThroughLogSink)
{
    class RecordingSink : public LogSink
    {
      public:
        void
        emit(const std::string &level, const std::string &msg) override
        {
            lines.push_back(level + ": " + msg);
        }
        std::vector<std::string> lines;
    };

    auto points = core::FactorSpace()
                      .processors({cpu::Processor::Core2Duo})
                      .interfaces({harness::Interface::Pc})
                      .patterns({harness::AccessPattern::StartRead})
                      .modes({harness::CountingMode::User})
                      .generate();
    core::StudyObsOptions obs_opt;
    obs_opt.metrics = true;
    obs_opt.progress = true;
    RecordingSink sink;
    LogSink *prev = setLogSink(&sink);
    core::runNullErrorStudy(points, 2, 7, obs_opt);
    setLogSink(prev);

    std::size_t metric_lines = 0, info_lines = 0;
    bool summary = false;
    for (const std::string &l : sink.lines) {
        if (l.rfind("metric: ", 0) == 0) {
            ++metric_lines;
            if (l.find("\"summary\":true") != std::string::npos)
                summary = true;
        }
        if (l.rfind("info: ", 0) == 0 &&
            l.find("eta") != std::string::npos)
            ++info_lines;
    }
    EXPECT_EQ(metric_lines, points.size() + 1); // per point + summary
    EXPECT_EQ(info_lines, points.size());
    EXPECT_TRUE(summary);
}

TEST(Attribution, StreamFormatIsOneLine)
{
    ErrorAttribution a;
    a.patternOverhead = 152;
    a.timerInterrupts = 1208;
    std::ostringstream os;
    os << a;
    EXPECT_NE(os.str().find("pattern=152"), std::string::npos);
    EXPECT_NE(os.str().find("timer=1208"), std::string::npos);
    EXPECT_EQ(os.str().find('\n'), std::string::npos);
}

} // namespace
} // namespace pca::obs
