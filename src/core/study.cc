#include "core/study.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "core/checkpoint.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "kernel/faults.hh"
#include "obs/attribution.hh"
#include "obs/spc.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/random.hh"
#include "support/status.hh"
#include "support/strutil.hh"

namespace pca::core
{

using harness::HarnessConfig;
using harness::Interface;
using harness::LoopBench;
using harness::Measurement;
using harness::MicroBenchmark;
using harness::NullBench;

StudyObsOptions
StudyObsOptions::fromEnv()
{
    StudyObsOptions opt;
    const char *spec = std::getenv("PCA_STUDY_OBS");
    if (!spec || !*spec)
        return opt;
    const std::string s(spec);
    if (s == "none")
        return opt;
    if (s == "all") {
        opt.attributionColumns = opt.progress = opt.metrics = true;
        return opt;
    }
    for (const std::string &item : split(s, ',')) {
        if (item == "attr")
            opt.attributionColumns = true;
        else if (item == "progress")
            opt.progress = true;
        else if (item == "metrics")
            opt.metrics = true;
        else if (!item.empty())
            pca_warn("PCA_STUDY_OBS: unknown option '", item, "'");
    }
    return opt;
}

namespace
{

/**
 * Progress/ETA reporting and JSONL metrics for a study's point loop.
 * One instance per study invocation; everything is inert unless the
 * corresponding StudyObsOptions flag is set.
 *
 * Thread-safe: under the parallel study engine pointDone() is called
 * from worker threads as points complete (completion order, not point
 * order — only the log stream varies with thread count, never the
 * study tables). One mutex orders the updates, each record is a
 * single LogSink message (so lines cannot tear), and the reported
 * ETA is clamped to be non-increasing so out-of-order completions
 * don't make it bounce upward.
 */
class StudyObserver
{
  public:
    /** @p label_of names a point; called only for metrics records. */
    StudyObserver(const StudyObsOptions &opt, const char *study,
                  std::size_t total_points,
                  std::function<std::string(std::size_t)> label_of)
        : opt(opt), study(study), totalPoints(total_points),
          labelOf(std::move(label_of)),
          start(std::chrono::steady_clock::now())
    {
    }

    /** Report finished factor point @p point and its per-run errors. */
    void
    pointDone(std::size_t point, const std::vector<double> &values)
    {
        std::lock_guard<std::mutex> lock(mtx);
        ++donePoints;
        totalRuns += values.size();
        if (opt.metrics && !values.empty()) {
            double lo = std::numeric_limits<double>::infinity();
            double hi = -lo, sum = 0;
            for (double v : values) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
                sum += v;
            }
            pca_metric("{\"study\":\"", study, "\",\"point\":\"",
                       labelOf(point), "\",\"runs\":", values.size(),
                       ",\"mean\":",
                       sum / static_cast<double>(values.size()),
                       ",\"min\":", lo, ",\"max\":", hi, "}");
        }
        if (opt.progress) {
            const double frac = totalPoints == 0
                ? 1.0
                : static_cast<double>(donePoints) /
                    static_cast<double>(totalPoints);
            const double elapsed = elapsedSec();
            double eta = frac > 0
                ? elapsed * (1.0 - frac) / frac
                : 0.0;
            eta = std::min(eta, lastEta);
            lastEta = eta;
            pca_inform(study, ": ", donePoints, "/", totalPoints,
                       " points (", fmtDouble(100.0 * frac, 1),
                       "%), elapsed ", fmtDouble(elapsed, 1),
                       "s, eta ", fmtDouble(eta, 1), "s");
        }
    }

    /** Emit the end-of-study summary record. */
    void
    finish()
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (opt.metrics)
            pca_metric("{\"study\":\"", study,
                       "\",\"summary\":true,\"points\":", donePoints,
                       ",\"runs\":", totalRuns, ",\"elapsed_s\":",
                       fmtDouble(elapsedSec(), 3), "}");
    }

  private:
    double
    elapsedSec() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    StudyObsOptions opt;
    const char *study;
    std::size_t totalPoints;
    std::function<std::string(std::size_t)> labelOf;
    std::size_t donePoints = 0;
    std::size_t totalRuns = 0;
    double lastEta = std::numeric_limits<double>::infinity();
    std::chrono::steady_clock::time_point start;
    std::mutex mtx;
};

void
appendAttrKeys(std::vector<std::string> &keys,
               const obs::ErrorAttribution &a)
{
    keys.push_back(std::to_string(a.patternOverhead));
    keys.push_back(std::to_string(a.timerInterrupts));
    keys.push_back(std::to_string(a.ioInterrupts));
    keys.push_back(std::to_string(a.preemption));
}

/**
 * Row annotation for a factor point whose run failed even after the
 * session's retries: "degraded:<code>:<cause>". Commas and newlines
 * in the cause are flattened so the note stays one CSV cell.
 */
std::string
degradedNote(const Status &st)
{
    std::string out = "degraded:";
    out += statusCodeName(st.code());
    out += ':';
    for (char c : st.message())
        out += (c == ',' || c == '\n') ? ';' : c;
    return out;
}

constexpr double degradedValue =
    std::numeric_limits<double>::quiet_NaN();

/**
 * One point's measurements in the shape the table (and the
 * checkpoint) consumes: exactly the value, attribution cells, and
 * degraded note each row will carry, nothing else. Emission below
 * reads only this — which is what makes a checkpoint-resumed point
 * byte-identical to a freshly measured one. @p use_delta selects the
 * cycle study's raw c∆ over the error studies' c∆ - expected.
 */
PointRecord
toRecord(const std::vector<StatusOr<Measurement>> &ms, bool use_delta,
         bool with_attr)
{
    PointRecord rec;
    rec.reserve(ms.size());
    for (const auto &m : ms) {
        CheckpointRun r;
        if (m.ok()) {
            r.ok = true;
            r.value = static_cast<double>(use_delta ? m->delta()
                                                    : m->error());
            if (with_attr)
                appendAttrKeys(r.attr, m->attribution);
        } else {
            r.value = degradedValue;
            r.note = degradedNote(m.status());
            if (with_attr)
                appendAttrKeys(r.attr, obs::ErrorAttribution{});
        }
        rec.push_back(std::move(r));
    }
    return rec;
}

/** The point's successful values, in run order. */
std::vector<double>
okValues(const PointRecord &rec)
{
    std::vector<double> out;
    out.reserve(rec.size());
    for (const CheckpointRun &r : rec)
        if (r.ok)
            out.push_back(r.value);
    return out;
}

/** Log-bucketed histogram of the point's successful values. */
obs::LogHistogram
histOf(const PointRecord &rec)
{
    obs::LogHistogram h;
    for (const CheckpointRun &r : rec)
        if (r.ok)
            h.add(static_cast<SCount>(r.value));
    return h;
}

/** One point-key column of a study table. */
struct KeyColumn
{
    const char *name;        //!< table column
    const char *labelPrefix; //!< the cell's prefix in the point label
};

/**
 * What one canned study sweeps; runSweep() does the rest. Keys,
 * configurations and benchmarks derive from the point index on
 * demand, so nothing per point is stored before it runs.
 */
struct Sweep
{
    const char *study;     //!< observer and checkpoint name
    const char *valueName; //!< the table's value column
    std::vector<KeyColumn> columns; //!< point keys, before "run"
    std::size_t points = 0;
    int runs = 0; //!< runs per point
    std::uint64_t seed = 0;
    /** Identity fields the study pins after its seed and runs. */
    std::string identity;
    bool useDelta = false; //!< raw c∆ instead of c∆ - expected
    StudyObsOptions obs;
    std::function<std::vector<std::string>(std::size_t)> keysOf;
    /** Point i's configuration; the sweep adds the fault plan. */
    std::function<HarnessConfig(std::size_t)> configOf;
    std::function<std::unique_ptr<MicroBenchmark>(std::size_t)> benchOf;
    /**
     * Run r of point i takes the seed mixSeed(seed, seedIndex(i, r)):
     * a pure function of the point and run, never of scheduling.
     */
    std::function<std::uint64_t(std::size_t, int)> seedIndex;
    /**
     * Optional sibling key. Points with equal keys must have equal
     * configurations but for the counting mode, and equal benchmarks;
     * runPoints measures them on one User+Kernel session. Unset, every
     * point is a group of one, measured in its own mode.
     */
    std::function<std::uint64_t(std::size_t)> siblingOf;

    /**
     * Point i's name in the metrics, the distributions and the
     * checkpoint digest: its prefixed key cells joined with '/'.
     */
    std::string
    label(std::size_t i) const
    {
        const std::vector<std::string> keys = keysOf(i);
        std::string out;
        for (std::size_t c = 0; c < keys.size(); ++c) {
            if (c > 0)
                out += '/';
            out += columns[c].labelPrefix;
            out += keys[c];
        }
        return out;
    }

    /**
     * The checkpoint identity: seed, runs, the study's own fields,
     * an FNV-1a digest over every point label (pinning the swept
     * factor space without recording each label) and the fault plan.
     */
    std::string
    identityOf(const kernel::FaultPlan &plan) const
    {
        std::uint64_t h = 1469598103934665603ull;
        for (std::size_t i = 0; i < points; ++i)
            for (char c : label(i)) {
                h ^= static_cast<unsigned char>(c);
                h *= 1099511628211ull;
            }
        char digest[24];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(h));
        return detail::cat("seed=", seed, "|runs=", runs, identity,
                           "|pts=", digest,
                           "|faults=", plan.fingerprint());
    }
};

/**
 * The points still to measure, in groups of siblings (Sweep::siblingOf):
 * groups in the order of their first point, members in point order.
 * With no sibling key, or a fault plan that transforms readings (the
 * counter width wraps values and torn reads alter them, so a derived
 * reading is not what its mode would read), each point is a group of
 * one.
 */
std::vector<std::vector<std::size_t>>
siblingGroups(const Sweep &s, const std::vector<std::size_t> &todo,
              const kernel::FaultPlan &fault_plan)
{
    std::vector<std::vector<std::size_t>> groups;
    if (!s.siblingOf || fault_plan.enabled()) {
        groups.reserve(todo.size());
        for (std::size_t i : todo)
            groups.push_back({i});
        return groups;
    }
    std::unordered_map<std::uint64_t, std::size_t> groupOf;
    for (std::size_t i : todo) {
        const auto [it, fresh] =
            groupOf.try_emplace(s.siblingOf(i), groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(i);
    }
    return groups;
}

/**
 * The shared resilient point loop behind all three studies.
 *
 * Fans the groups of sibling points over the worker pool. A group's
 * points share one session, counting User+Kernel when the group has
 * more than one point (HarnessSession::tryRun derives the others),
 * and each point keeps its own seeds, retry allowance, checkpoint
 * record and slot. With PCA_CHECKPOINT set, points completed by a
 * prior invocation load from the checkpoint and are not re-measured,
 * each finished point is durably appended as it completes, and
 * SIGINT turns into cooperative cancellation: workers drain, the
 * checkpoint stays consistent, and the Cancelled error propagates to
 * the caller. Every point's retry allowance is the policy's
 * deterministic per-point share, so a study-wide budget can never
 * make results depend on worker timing. The returned records are in
 * point order and identical whether any prefix was resumed, at any
 * thread count.
 */
std::vector<PointRecord>
runPoints(const Sweep &s, const kernel::FaultPlan &fault_plan,
          StudyObserver &observer)
{
    const std::size_t n = s.points;
    std::vector<PointRecord> slots(n);
    auto ckpt = StudyCheckpoint::openFromEnv(
        s.study, [&] { return s.identityOf(fault_plan); }, n);
    std::vector<std::size_t> todo;
    todo.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const PointRecord *done = ckpt ? ckpt->get(i) : nullptr;
        if (done)
            slots[i] = *done;
        else
            todo.push_back(i);
    }
    if (ckpt) {
        installSigintCancel();
        if (todo.size() < n)
            pca_inform(s.study, ": resuming from ", ckpt->path(), " (",
                       n - todo.size(), "/", n,
                       " points already complete)");
    }

    const std::vector<std::vector<std::size_t>> groups =
        siblingGroups(s, todo, fault_plan);
    try {
        parallelFor(groups.size(), [&](std::size_t g) {
            const bool grouped = groups[g].size() > 1;
            std::unique_ptr<MicroBenchmark> bench;
            std::optional<harness::HarnessSession> session;
            for (std::size_t i : groups[g]) {
                HarnessConfig cfg = s.configOf(i);
                cfg.faults = fault_plan;
                const harness::CountingMode mode = cfg.mode;
                if (grouped)
                    cfg.mode = harness::CountingMode::UserKernel;
                if (!session) {
                    bench = s.benchOf(i);
                    session.emplace(cfg, *bench);
                } else {
                    // The sibling key's contract: only the mode differs.
                    const auto own = s.benchOf(i);
                    pca_assert(cfg == session->config() &&
                               own->name() == bench->name() &&
                               own->expectedInstructions() ==
                                   bench->expectedInstructions());
                }
                slots[i] = toRecord(
                    harness::measurePoint(
                        *session, mode, s.runs,
                        [&](int r) {
                            return mixSeed(s.seed, s.seedIndex(i, r));
                        },
                        fault_plan.retry.effectivePointBudget(n, i)),
                    s.useDelta, s.obs.attributionColumns);
                if (ckpt)
                    ckpt->record(i, slots[i]);
                observer.pointDone(i, okValues(slots[i]));
            }
        });
    } catch (const StatusError &e) {
        if (e.status().code() == StatusCode::Cancelled && ckpt)
            pca_warn(s.study, ": cancelled with ",
                     ckpt->completedCount(), "/", n,
                     " points checkpointed in ", ckpt->path(),
                     "; rerun with PCA_CHECKPOINT set to resume");
        throw;
    }
    return slots;
}

/**
 * Measure every point of @p s and emit the table: one row per run,
 * keyed by the point's keys, the run index and, when enabled, the
 * run's attribution cells, in point order, so the table is
 * byte-identical for every PCA_THREADS value.
 */
DataTable
runSweep(const Sweep &s)
{
    std::vector<std::string> cols;
    for (const KeyColumn &c : s.columns)
        cols.push_back(c.name);
    cols.push_back("run");
    if (s.obs.attributionColumns)
        cols.insert(cols.end(), {"attr_pattern", "attr_timer",
                                 "attr_io", "attr_preempt"});
    DataTable table(cols, s.valueName);

    StudyObserver observer(s.obs, s.study, s.points,
                           [&s](std::size_t i) { return s.label(i); });
    const std::vector<PointRecord> slots =
        runPoints(s, kernel::FaultPlan::fromEnv(), observer);

    // Point-order append => thread-count-independent output.
    if (s.obs.distributions)
        for (std::size_t i = 0; i < s.points; ++i)
            s.obs.distributions->addPoint(s.label(i), histOf(slots[i]));

    // The rows follow in point order too: each point's key cells are
    // interned once, and each run appended as codes plus its value.
    const std::size_t run_col = s.columns.size();
    std::vector<std::uint32_t> run_codes;
    for (int r = 0; r < s.runs; ++r)
        run_codes.push_back(table.intern(run_col, std::to_string(r)));
    table.reserve(s.points * run_codes.size());
    std::vector<std::uint32_t> codes(cols.size());
    for (std::size_t i = 0; i < s.points; ++i) {
        const std::vector<std::string> point_keys = s.keysOf(i);
        for (std::size_t c = 0; c < run_col; ++c)
            codes[c] = table.intern(c, point_keys[c]);
        for (int r = 0; r < s.runs; ++r) {
            const CheckpointRun &run =
                slots[i][static_cast<std::size_t>(r)];
            codes[run_col] = run_codes[static_cast<std::size_t>(r)];
            // A record carries attribution cells exactly when the
            // table has their columns.
            pca_assert(run_col + 1 + run.attr.size() == codes.size());
            for (std::size_t a = 0; a < run.attr.size(); ++a)
                codes[run_col + 1 + a] =
                    table.intern(run_col + 1 + a, run.attr[a]);
            if (run.ok) {
                table.addCodes(codes, run.value);
            } else {
                PCA_SPC_INC(DegradedPoints);
                table.addCodes(codes, run.value, run.note);
            }
        }
    }
    observer.finish();
    return table;
}

/**
 * The loop studies' legacy serial numbering: the seed index ticked
 * once per run, in point order. Preserved exactly so their tables
 * match the pre-parallel engine bit for bit.
 */
std::function<std::uint64_t(std::size_t, int)>
serialSeedIndex(int runs)
{
    return [runs](std::size_t i, int r) {
        return i * static_cast<std::uint64_t>(runs) +
            static_cast<std::uint64_t>(r) + 1;
    };
}

} // namespace

DataTable
runNullErrorStudy(const std::vector<FactorPoint> &points,
                  int runs_per_point, std::uint64_t seed,
                  const StudyObsOptions &obs_opt)
{
    pca_assert(runs_per_point >= 1);
    // Run r of point i takes seed index (i+1)·1000 + r, so a point
    // may have at most 1000 runs before it replays the next point's.
    constexpr int maxRuns = 1000;
    if (runs_per_point > maxRuns)
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            detail::cat("null error study: at most ", maxRuns,
                        " runs per point (got ", runs_per_point,
                        "); more would repeat the next point's "
                        "seeds")));
    return runSweep({
        .study = "null_error",
        .valueName = "error",
        .columns = {{"processor", ""}, {"interface", ""},
                    {"pattern", ""}, {"mode", ""}, {"opt", ""},
                    {"nctrs", "n"}, {"tsc", "tsc="}},
        .points = points.size(),
        .runs = runs_per_point,
        .seed = seed,
        .identity = detail::cat(
            "|attr=", obs_opt.attributionColumns ? 1 : 0),
        .obs = obs_opt,
        .keysOf = [&](std::size_t i) {
            const FactorPoint &p = points[i];
            return std::vector<std::string>{
                cpu::processorCode(p.processor),
                harness::interfaceCode(p.iface),
                harness::patternName(p.pattern),
                harness::countingModeName(p.mode),
                std::string("O").append(std::to_string(p.optLevel)),
                std::to_string(p.numCounters), p.tsc ? "on" : "off"};
        },
        .configOf = [&](std::size_t i) {
            return points[i].toHarnessConfig(seed);
        },
        .benchOf = [](std::size_t) {
            return std::make_unique<NullBench>();
        },
        .seedIndex = [](std::size_t i, int r) {
            return (i + 1) * 1000 + static_cast<std::uint64_t>(r);
        },
        // Every factor but the mode, a byte each; every point
        // measures the null benchmark.
        .siblingOf = [&](std::size_t i) {
            const FactorPoint &p = points[i];
            return static_cast<std::uint64_t>(p.processor) |
                static_cast<std::uint64_t>(p.iface) << 8 |
                static_cast<std::uint64_t>(p.pattern) << 16 |
                static_cast<std::uint64_t>(p.optLevel & 0xff) << 24 |
                static_cast<std::uint64_t>(p.numCounters & 0xff) << 32 |
                static_cast<std::uint64_t>(p.tsc) << 40;
        },
    });
}

DataTable
runDurationStudy(const DurationStudyOptions &opt)
{
    struct Point
    {
        cpu::Processor proc;
        Interface iface;
        Count size;
    };
    std::vector<Point> pts;
    for (cpu::Processor proc : opt.processors)
        for (Interface iface : opt.interfaces) {
            if (!harness::patternSupported(iface, opt.pattern))
                continue;
            for (Count size : opt.loopSizes)
                pts.push_back({proc, iface, size});
        }

    return runSweep({
        .study = "duration",
        .valueName = "error",
        .columns = {{"processor", ""}, {"interface", ""},
                    {"loopsize", "size="}},
        .points = pts.size(),
        .runs = opt.runsPerSize,
        .seed = opt.seed,
        .identity = detail::cat(
            "|pat=", harness::patternName(opt.pattern),
            "|mode=", harness::countingModeName(opt.mode),
            "|attr=", opt.obs.attributionColumns ? 1 : 0),
        .obs = opt.obs,
        .keysOf = [&](std::size_t i) {
            return std::vector<std::string>{
                cpu::processorCode(pts[i].proc),
                harness::interfaceCode(pts[i].iface),
                std::to_string(pts[i].size)};
        },
        .configOf = [&](std::size_t i) {
            HarnessConfig cfg;
            cfg.processor = pts[i].proc;
            cfg.iface = pts[i].iface;
            cfg.pattern = opt.pattern;
            cfg.mode = opt.mode;
            return cfg;
        },
        .benchOf = [&](std::size_t i) {
            return std::make_unique<LoopBench>(pts[i].size);
        },
        .seedIndex = serialSeedIndex(opt.runsPerSize),
        .siblingOf = {}, // one counting mode per study
    });
}

std::vector<SlopeRow>
errorSlopes(const DataTable &duration_data)
{
    const DataTable &t = duration_data;
    const auto proc_idx = t.columnIndex("processor");
    const auto if_idx = t.columnIndex("interface");
    const auto size_idx = t.columnIndex("loopsize");
    std::vector<SlopeRow> out;
    for (const auto &group : t.groupBy({"processor", "interface"})) {
        // Rebuild (size, error) pairs for this group.
        std::vector<double> xs, ys;
        for (std::size_t r = 0; r < t.size(); ++r) {
            if (t.cell(r, proc_idx) != group.keys[0] ||
                t.cell(r, if_idx) != group.keys[1])
                continue;
            xs.push_back(std::stod(t.cell(r, size_idx)));
            ys.push_back(t.value(r));
        }
        if (xs.size() < 2)
            continue;
        out.push_back(
            {group.keys[0], group.keys[1], stats::linearFit(xs, ys)});
    }
    return out;
}

DataTable
runCycleStudy(const CycleStudyOptions &opt)
{
    struct Point
    {
        cpu::Processor proc;
        Interface iface;
        harness::AccessPattern pat;
        int optLevel;
        Count size;
    };
    std::vector<Point> pts;
    for (cpu::Processor proc : opt.processors)
        for (Interface iface : opt.interfaces)
            for (harness::AccessPattern pat : opt.patterns) {
                if (!harness::patternSupported(iface, pat))
                    continue;
                for (int opt_level : opt.optLevels)
                    for (Count size : opt.loopSizes)
                        pts.push_back(
                            {proc, iface, pat, opt_level, size});
            }

    // The cycle table has no attribution columns (it measures raw
    // c∆, not error); the observer's other channels apply as-is.
    StudyObsOptions obs = opt.obs;
    obs.attributionColumns = false;
    return runSweep({
        .study = "cycle",
        .valueName = "cycles",
        .columns = {{"processor", ""}, {"interface", ""},
                    {"pattern", ""}, {"opt", ""},
                    {"loopsize", "size="}},
        .points = pts.size(),
        .runs = opt.runsPerConfig,
        .seed = opt.seed,
        .identity = "",
        .useDelta = true,
        .obs = obs,
        .keysOf = [&](std::size_t i) {
            const Point &p = pts[i];
            return std::vector<std::string>{
                cpu::processorCode(p.proc),
                harness::interfaceCode(p.iface),
                harness::patternName(p.pat),
                std::string("O").append(std::to_string(p.optLevel)),
                std::to_string(p.size)};
        },
        .configOf = [&](std::size_t i) {
            HarnessConfig cfg;
            cfg.processor = pts[i].proc;
            cfg.iface = pts[i].iface;
            cfg.pattern = pts[i].pat;
            cfg.optLevel = pts[i].optLevel;
            cfg.mode = harness::CountingMode::UserKernel;
            cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
            return cfg;
        },
        .benchOf = [&](std::size_t i) {
            return std::make_unique<LoopBench>(pts[i].size);
        },
        .seedIndex = serialSeedIndex(opt.runsPerConfig),
        .siblingOf = {}, // one counting mode per study
    });
}

} // namespace pca::core
