/**
 * @file
 * Tests for the study framework: DataTable, FactorSpace, canned
 * studies, and the guidelines engine.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "core/datatable.hh"
#include "core/factor_space.hh"
#include "core/guidelines.hh"
#include "core/study.hh"
#include "obs/spc.hh"
#include "support/status.hh"

namespace pca::core
{
namespace
{

using harness::AccessPattern;
using harness::CountingMode;
using harness::Interface;

DataTable
sampleTable()
{
    DataTable t({"proc", "iface"}, "error");
    t.add({"K8", "pm"}, 10);
    t.add({"K8", "pc"}, 2);
    t.add({"CD", "pm"}, 20);
    t.add({"CD", "pc"}, 4);
    t.add({"K8", "pm"}, 12);
    return t;
}

TEST(DataTableTest, AddAndSize)
{
    const DataTable t = sampleTable();
    EXPECT_EQ(t.size(), 5u);
    EXPECT_FALSE(t.empty());
    EXPECT_EQ(t.keyColumns().size(), 2u);
}

TEST(DataTableTest, WrongArityPanics)
{
    DataTable t({"a"}, "v");
    EXPECT_THROW(t.add({"x", "y"}, 1.0), std::logic_error);
}

TEST(DataTableTest, ColumnIndex)
{
    const DataTable t = sampleTable();
    EXPECT_EQ(t.columnIndex("proc"), 0u);
    EXPECT_EQ(t.columnIndex("iface"), 1u);
    EXPECT_THROW(t.columnIndex("nope"), std::logic_error);
}

TEST(DataTableTest, Filtered)
{
    const DataTable t = sampleTable().filtered("proc", "K8");
    EXPECT_EQ(t.size(), 3u);
    for (const auto &row : t.rows())
        EXPECT_EQ(row.keys[0], "K8");
}

TEST(DataTableTest, GroupBy)
{
    const auto groups = sampleTable().groupBy({"iface"});
    ASSERT_EQ(groups.size(), 2u);
    EXPECT_EQ(groups[0].keys[0], "pm");
    EXPECT_EQ(groups[0].values.size(), 3u);
    EXPECT_EQ(groups[1].keys[0], "pc");
    EXPECT_EQ(groups[1].values.size(), 2u);
}

TEST(DataTableTest, GroupByMultipleColumns)
{
    const auto groups = sampleTable().groupBy({"proc", "iface"});
    EXPECT_EQ(groups.size(), 4u);
}

TEST(DataTableTest, ToObservations)
{
    const auto obs = sampleTable().toObservations({"iface"});
    ASSERT_EQ(obs.size(), 5u);
    EXPECT_EQ(obs[0].levels.size(), 1u);
    EXPECT_EQ(obs[0].levels[0], "pm");
    EXPECT_DOUBLE_EQ(obs[0].response, 10.0);
}

TEST(DataTableTest, AppendRequiresSameColumns)
{
    DataTable a({"x"}, "v"), b({"x"}, "v"), c({"y"}, "v");
    a.add({"1"}, 1);
    b.add({"2"}, 2);
    a.append(b);
    EXPECT_EQ(a.size(), 2u);
    EXPECT_THROW(a.append(c), std::logic_error);
}

TEST(DataTableTest, CsvRoundTripShape)
{
    std::ostringstream os;
    sampleTable().writeCsv(os);
    const std::string csv = os.str();
    EXPECT_NE(csv.find("proc,iface,error"), std::string::npos);
    // Header + five rows.
    int lines = 0;
    for (char ch : csv)
        lines += ch == '\n';
    EXPECT_EQ(lines, 6);
}

std::string
csvOf(const DataTable &t)
{
    std::ostringstream os;
    t.writeCsv(os);
    return os.str();
}

/** Row-by-row equality of two tables' keys, values and notes. */
void
expectSameRows(const DataTable &a, const DataTable &b)
{
    const auto ra = a.rows(), rb = b.rows();
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t r = 0; r < ra.size(); ++r) {
        EXPECT_EQ(ra[r].keys, rb[r].keys) << "row " << r;
        EXPECT_EQ(ra[r].note, rb[r].note) << "row " << r;
        if (!std::isnan(ra[r].value) || !std::isnan(rb[r].value)) {
            EXPECT_EQ(ra[r].value, rb[r].value) << "row " << r;
        }
    }
}

TEST(DataTableTest, CsvPrintsLevelsValuesAndStatusExactly)
{
    DataTable t({"proc", "run", "attr_timer", "attr_io"}, "error");
    t.add({"K8", "0", "2", "0"}, 1.5);
    t.add({"K8", "1", "0", "0"},
          std::numeric_limits<double>::quiet_NaN(),
          "degraded:unavailable:injected; read failed");
    t.add({"CD", "0", "2", "1"}, -3);
    t.add({"K8", "0", "12", "0"}, 1234567.25);
    EXPECT_EQ(t.degradedCount(), 1u);
    EXPECT_EQ(csvOf(t),
              "proc,run,attr_timer,attr_io,error,status\n"
              "K8,0,2,0,1.500000,ok\n"
              "K8,1,0,0,nan,degraded:unavailable:injected; read failed\n"
              "CD,0,2,1,-3.000000,ok\n"
              "K8,0,12,0,1234567.250000,ok\n");
}

TEST(DataTableTest, AppendRecodesLevelsInternedInAnotherOrder)
{
    const std::vector<std::pair<std::vector<std::string>, double>> rows{
        {{"K8", "pm"}, 1}, {{"CD", "pc"}, 2}, {{"PD", "pc"}, 3},
        {{"CD", "pm"}, 4}, {{"K8", "pc"}, 5}};
    DataTable a({"proc", "iface"}, "error"), b({"proc", "iface"}, "error"),
        all({"proc", "iface"}, "error");
    for (std::size_t i = 0; i < rows.size(); ++i) {
        // a interns K8 before CD and pm before pc; b the reverse.
        DataTable &half = i < 2 ? a : b;
        const std::string note = i == 3 ? "degraded:x" : "";
        half.add(rows[i].first, rows[i].second, note);
        all.add(rows[i].first, rows[i].second, note);
    }
    a.append(b);
    expectSameRows(a, all);
    EXPECT_EQ(csvOf(a), csvOf(all));
    EXPECT_EQ(a.degradedCount(), 1u);
    EXPECT_EQ(a.rows()[3].note, "degraded:x");
    EXPECT_EQ(a.filtered("proc", "CD").values(),
              (std::vector<double>{2, 4}));
    const auto ga = a.groupBy({"iface"}), gall = all.groupBy({"iface"});
    ASSERT_EQ(ga.size(), gall.size());
    for (std::size_t g = 0; g < ga.size(); ++g) {
        EXPECT_EQ(ga[g].keys, gall[g].keys);
        EXPECT_EQ(ga[g].values, gall[g].values);
    }
}

TEST(DataTableTest, FilteredChainMatchesARowScan)
{
    // fig10's selection: processor, then interface, then loop size.
    DataTable t({"processor", "interface", "loopsize", "run"}, "cycles");
    double v = 0;
    for (const char *proc : {"PD", "CD", "K8"})
        for (const char *iface : {"pm", "pc", "PHpm"})
            for (const char *size : {"1", "1000000"})
                for (const char *run : {"0", "1"}) {
                    const std::string note = v == 19 ? "degraded:y" : "";
                    t.add({proc, iface, size, run}, v++, note);
                }
    const DataTable sub = t.filtered("processor", "CD")
                              .filtered("interface", "pc")
                              .filtered("loopsize", "1000000");
    std::vector<DataRow> want;
    for (const DataRow &row : t.rows())
        if (row.keys[0] == "CD" && row.keys[1] == "pc" &&
            row.keys[2] == "1000000")
            want.push_back(row);
    const auto got = sub.rows();
    ASSERT_EQ(got.size(), 2u);
    ASSERT_EQ(want.size(), 2u);
    for (std::size_t r = 0; r < got.size(); ++r) {
        EXPECT_EQ(got[r].keys, want[r].keys);
        EXPECT_EQ(got[r].value, want[r].value);
        EXPECT_EQ(got[r].note, want[r].note);
    }
    EXPECT_EQ(sub.degradedCount(), 1u);
    EXPECT_EQ(got[0].note, "");
    EXPECT_EQ(got[1].note, "degraded:y");
    EXPECT_TRUE(sub.filtered("run", "7").empty());
}

TEST(DataTableTest, GroupByKeepsFirstAppearanceOrder)
{
    DataTable t({"proc", "iface", "run"}, "error");
    t.add({"K8", "pc", "0"}, 1);
    t.add({"CD", "pm", "0"}, 2);
    t.add({"K8", "pm", "0"}, 3);
    t.add({"K8", "pc", "1"}, 4);
    t.add({"CD", "pm", "1"}, 5);
    const auto groups = t.groupBy({"iface", "proc"});
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].keys, (std::vector<std::string>{"pc", "K8"}));
    EXPECT_EQ(groups[0].values, (std::vector<double>{1, 4}));
    EXPECT_EQ(groups[1].keys, (std::vector<std::string>{"pm", "CD"}));
    EXPECT_EQ(groups[1].values, (std::vector<double>{2, 5}));
    EXPECT_EQ(groups[2].keys, (std::vector<std::string>{"pm", "K8"}));
    EXPECT_EQ(groups[2].values, (std::vector<double>{3}));
    const auto all = t.groupBy({});
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(all[0].values.size(), 5u);
}

TEST(DataTableTest, CopyIsIndependentOfTheOriginal)
{
    const DataTable original = sampleTable();
    DataTable copy = original;
    expectSameRows(copy, original);
    copy.add({"PD", "pm"}, 7, "degraded:z");
    copy.add({"K8", "pm"}, 8);
    EXPECT_EQ(original.size(), 5u);
    EXPECT_EQ(original.degradedCount(), 0u);
    EXPECT_EQ(copy.size(), 7u);
    EXPECT_EQ(copy.filtered("proc", "PD").values(),
              (std::vector<double>{7}));
    EXPECT_TRUE(original.filtered("proc", "PD").empty());
}

TEST(DataTableTest, RowsReturnExactlyWhatWasAdded)
{
    DataTable t({"proc", "iface"}, "error");
    const std::vector<DataRow> added{
        {{"K8", "pm"}, 10, ""},
        {{"K8", "pm"}, 11, "degraded:a"},
        {{"CD", "pc"}, -2.5, ""},
        {{"K8", "pc"}, 0, "degraded:b"}};
    for (const DataRow &row : added)
        t.add(row.keys, row.value, row.note);
    const auto rows = t.rows();
    ASSERT_EQ(rows.size(), added.size());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        EXPECT_EQ(rows[r].keys, added[r].keys);
        EXPECT_EQ(rows[r].value, added[r].value);
        EXPECT_EQ(rows[r].note, added[r].note);
        EXPECT_EQ(rows[r].degraded(), added[r].degraded());
        EXPECT_EQ(t.value(r), added[r].value);
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_EQ(t.cell(r, c), added[r].keys[c]);
    }
    EXPECT_EQ(t.values(), (std::vector<double>{10, 11, -2.5, 0}));
}

TEST(FactorSpaceTest, DefaultsCoverPaperSpace)
{
    const auto points = FactorSpace().generate();
    // 3 procs x (4 ifaces * 4 patterns + 2 ifaces * 2 patterns)
    //   x 2 modes x 4 opts x 1 nctr x 1 tsc = 3*20*2*4 = 480.
    EXPECT_EQ(points.size(), 480u);
}

TEST(FactorSpaceTest, PapiHighDropsReadPatterns)
{
    const auto points = FactorSpace()
                            .interfaces({Interface::PHpm})
                            .generate();
    for (const auto &p : points) {
        EXPECT_TRUE(p.pattern == AccessPattern::StartRead ||
                    p.pattern == AccessPattern::StartStop);
    }
}

TEST(FactorSpaceTest, TscOffOnlyForPerfctr)
{
    const auto points = FactorSpace()
                            .interfaces({Interface::Pm, Interface::Pc})
                            .tscSettings({true, false})
                            .generate();
    for (const auto &p : points) {
        if (harness::usesPerfmon(p.iface)) {
            EXPECT_TRUE(p.tsc);
        }
    }
    // But perfctr points do include tsc=off.
    bool saw_off = false;
    for (const auto &p : points)
        saw_off |= !p.tsc;
    EXPECT_TRUE(saw_off);
}

TEST(FactorSpaceTest, CounterCountRespectsProcessor)
{
    const auto points = FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .counterCounts({1, 2, 3, 4})
                            .generate();
    for (const auto &p : points)
        EXPECT_LE(p.numCounters, 2); // CD has 2 programmable counters
}

TEST(FactorSpaceTest, ToHarnessConfigFillsExtras)
{
    FactorPoint p{cpu::Processor::AthlonX2, Interface::Pm,
                  AccessPattern::StartRead, CountingMode::User, 2, 3,
                  true};
    const auto cfg = p.toHarnessConfig(5);
    EXPECT_EQ(cfg.extraEvents.size(), 2u);
    EXPECT_EQ(cfg.optLevel, 2);
    EXPECT_EQ(cfg.seed, 5u);
}

TEST(StudyTest, NullErrorStudyShape)
{
    const auto points = FactorSpace()
                            .processors({cpu::Processor::AthlonX2})
                            .interfaces({Interface::Pm, Interface::Pc})
                            .patterns({AccessPattern::StartRead})
                            .modes({CountingMode::User})
                            .optLevels({2})
                            .generate();
    const auto table = runNullErrorStudy(points, 3);
    EXPECT_EQ(table.size(), points.size() * 3);
    EXPECT_EQ(table.keyColumns().size(), 8u);
    // All errors nonnegative.
    for (double v : table.values())
        EXPECT_GE(v, 0.0);
}

TEST(StudyTest, NullStudyRejectsRunCountsThatRepeatSeeds)
{
    // Run r of point i takes seed index (i+1)·1000 + r: run 1000 of
    // point 0 would be run 0 of point 1.
    const auto points = FactorSpace()
                            .processors({cpu::Processor::AthlonX2})
                            .interfaces({Interface::Pm, Interface::Pc})
                            .patterns({AccessPattern::StartRead})
                            .modes({CountingMode::User})
                            .optLevels({2})
                            .generate();
    obs::spcReset();
    obs::spcAttach("machine_boots");
    try {
        runNullErrorStudy(points, 1001);
        FAIL() << "1001 runs per point must be rejected";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(e.status().message().find("at most 1000"),
                  std::string::npos)
            << e.status().toString();
    }
    EXPECT_EQ(obs::spcValue(obs::Spc::MachineBoots), 0u)
        << "rejected before anything is measured";
    obs::spcReset();
}

TEST(StudyTest, NullStudyRowsMatchTheirPointsAtAnyThreadCount)
{
    const auto points = FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .tscSettings({true, false})
                            .generate();
    constexpr int runs = 3;
    StudyObsOptions obs;
    obs.attributionColumns = true;
    setenv("PCA_FAULTS", "seed=3,attach=0.6,retries=0", 1);
    setenv("PCA_THREADS", "1", 1);
    const DataTable serial = runNullErrorStudy(points, runs, 42, obs);
    setenv("PCA_THREADS", "4", 1);
    const DataTable parallel = runNullErrorStudy(points, runs, 42, obs);
    unsetenv("PCA_THREADS");
    unsetenv("PCA_FAULTS");

    EXPECT_EQ(csvOf(serial), csvOf(parallel));
    ASSERT_EQ(serial.size(), points.size() * runs);
    ASSERT_EQ(serial.keyColumns().size(), 12u);
    ASSERT_GT(serial.degradedCount(), 0u);
    ASSERT_LT(serial.degradedCount(), serial.size());
    const auto rows = serial.rows();
    for (std::size_t r = 0; r < rows.size(); ++r) {
        const FactorPoint &p = points[r / runs];
        const std::vector<std::string> want{
            cpu::processorCode(p.processor),
            harness::interfaceCode(p.iface),
            harness::patternName(p.pattern),
            harness::countingModeName(p.mode),
            "O" + std::to_string(p.optLevel),
            std::to_string(p.numCounters),
            p.tsc ? "on" : "off",
            std::to_string(r % runs)};
        EXPECT_EQ(std::vector<std::string>(rows[r].keys.begin(),
                                           rows[r].keys.begin() + 8),
                  want)
            << "row " << r;
        if (rows[r].degraded()) {
            EXPECT_EQ(rows[r].note.rfind("degraded:", 0), 0u);
            EXPECT_TRUE(std::isnan(rows[r].value));
            EXPECT_EQ(std::vector<std::string>(rows[r].keys.begin() + 8,
                                               rows[r].keys.end()),
                      (std::vector<std::string>{"0", "0", "0", "0"}));
        } else {
            EXPECT_FALSE(std::isnan(rows[r].value));
        }
    }
}

TEST(StudyTest, DurationStudyAndSlopes)
{
    DurationStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {Interface::Pm};
    opt.loopSizes = {1, 200000, 400000, 800000};
    opt.runsPerSize = 2;
    const auto table = runDurationStudy(opt);
    EXPECT_EQ(table.size(), 4u * 2u);
    const auto slopes = errorSlopes(table);
    ASSERT_EQ(slopes.size(), 1u);
    EXPECT_EQ(slopes[0].processor, "K8");
    // Positive duration-dependent error in user+kernel mode.
    EXPECT_GT(slopes[0].fit.slope, 0.0);
    EXPECT_LT(slopes[0].fit.slope, 0.01);
}

TEST(StudyTest, UserModeSlopesNearZero)
{
    DurationStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {Interface::Pm};
    opt.loopSizes = {1, 500000, 1000000};
    opt.runsPerSize = 2;
    opt.mode = CountingMode::User;
    const auto slopes = errorSlopes(runDurationStudy(opt));
    ASSERT_EQ(slopes.size(), 1u);
    EXPECT_NEAR(slopes[0].fit.slope, 0.0, 1e-5);
}

TEST(StudyTest, CycleStudyShape)
{
    CycleStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {Interface::Pm};
    opt.patterns = {AccessPattern::StartRead};
    opt.optLevels = {0, 3};
    opt.loopSizes = {100000};
    opt.runsPerConfig = 1;
    const auto table = runCycleStudy(opt);
    EXPECT_EQ(table.size(), 2u);
    for (double v : table.values()) {
        EXPECT_GT(v, 150000.0); // at least 1.5 cycles/iter
        EXPECT_LT(v, 400000.0); // at most 4 cycles/iter
    }
}

TEST(GuidelinesTest, UserModeRecommendsPerfmonFamily)
{
    GuidelineQuery q;
    q.processor = cpu::Processor::AthlonX2;
    q.mode = CountingMode::User;
    const auto rec = Guidelines(5, 3).recommend(q);
    EXPECT_TRUE(harness::usesPerfmon(rec.best.iface));
    EXPECT_FALSE(rec.ranking.empty());
    EXPECT_LE(rec.best.medianError,
              rec.ranking.back().medianError);
}

TEST(GuidelinesTest, UserKernelModeRecommendsPerfctrFamily)
{
    GuidelineQuery q;
    q.processor = cpu::Processor::AthlonX2;
    q.mode = CountingMode::UserKernel;
    const auto rec = Guidelines(5, 3).recommend(q);
    EXPECT_FALSE(harness::usesPerfmon(rec.best.iface));
}

TEST(GuidelinesTest, PapiConstraintRespected)
{
    GuidelineQuery q;
    q.requirePapi = true;
    const auto rec = Guidelines(5, 3).recommend(q);
    for (const auto &c : rec.ranking) {
        EXPECT_TRUE(harness::isPapiLow(c.iface) ||
                    harness::isPapiHigh(c.iface));
    }
}

TEST(GuidelinesTest, HighLevelConstraintRespected)
{
    GuidelineQuery q;
    q.requireHighLevel = true;
    const auto rec = Guidelines(5, 3).recommend(q);
    for (const auto &c : rec.ranking)
        EXPECT_TRUE(harness::isPapiHigh(c.iface));
}

TEST(GuidelinesTest, NotesIncludeFrequencyScaling)
{
    const auto rec = Guidelines(5, 3).recommend({});
    bool found = false;
    for (const auto &n : rec.notes)
        found |= n.find("governor") != std::string::npos;
    EXPECT_TRUE(found);
}

TEST(GuidelinesTest, CycleCautionOnlyWhenMeasuringCycles)
{
    GuidelineQuery q;
    q.measuresCycles = true;
    const auto with_cycles = Guidelines(5, 3).recommend(q);
    q.measuresCycles = false;
    const auto without = Guidelines(5, 3).recommend(q);
    auto mentions_cycles = [](const Recommendation &r) {
        for (const auto &n : r.notes)
            if (n.find("suspicious") != std::string::npos)
                return true;
        return false;
    };
    EXPECT_TRUE(mentions_cycles(with_cycles));
    EXPECT_FALSE(mentions_cycles(without));
}

TEST(GuidelinesTest, RejectsCalibrationRunCountsThatRepeatSeeds)
{
    // Run r of candidate k takes seed index k·100 + r: run 100 of one
    // candidate would be run 0 of the next.
    try {
        Guidelines(101, 3);
        FAIL() << "101 calibration runs must be rejected";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(e.status().message().find("at most 100"),
                  std::string::npos)
            << e.status().toString();
    }
}

TEST(GuidelinesTest, PrintMentionsBestInterface)
{
    const auto rec = Guidelines(5, 3).recommend({});
    std::ostringstream os;
    rec.print(os);
    EXPECT_NE(os.str().find("Recommended configuration"),
              std::string::npos);
    EXPECT_NE(os.str().find(harness::interfaceCode(rec.best.iface)),
              std::string::npos);
}

} // namespace
} // namespace pca::core
