#include "core/study.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>

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
    StudyObserver(const StudyObsOptions &opt, const char *study,
                  std::size_t total_points)
        : opt(opt), study(study), totalPoints(total_points),
          start(std::chrono::steady_clock::now())
    {
    }

    /** Report one finished factor point and its per-run errors. */
    void
    pointDone(const std::string &label,
              const std::vector<double> &values)
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
                       label, "\",\"runs\":", values.size(),
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
    std::size_t donePoints = 0;
    std::size_t totalRuns = 0;
    double lastEta = std::numeric_limits<double>::infinity();
    std::chrono::steady_clock::time_point start;
    std::mutex mtx;
};

/** The four attribution key columns, in table order. */
void
appendAttrColumns(std::vector<std::string> &cols)
{
    cols.insert(cols.end(),
                {"attr_pattern", "attr_timer", "attr_io",
                 "attr_preempt"});
}

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

/**
 * FNV-1a over every point label: pins the swept factor space inside
 * the checkpoint identity without recording each label.
 */
std::string
labelsDigest(std::size_t n,
             const std::function<std::string(std::size_t)> &label_of)
{
    std::uint64_t h = 1469598103934665603ull;
    for (std::size_t i = 0; i < n; ++i)
        for (char c : label_of(i)) {
            h ^= static_cast<unsigned char>(c);
            h *= 1099511628211ull;
        }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/**
 * The shared resilient point loop behind all three studies.
 *
 * Fans the factor points over the worker pool; measure(i, budget)
 * produces point i's runs (their seeds must be a pure function of
 * the study seed and i, never of scheduling). With
 * PCA_CHECKPOINT set, points completed by a prior invocation load
 * from the checkpoint and are not re-measured, each finished point
 * is durably appended as it completes, and SIGINT turns into
 * cooperative cancellation: workers drain, the checkpoint stays
 * consistent, and the Cancelled error propagates to the caller.
 * Every point's retry allowance is the policy's deterministic
 * per-point share, so a study-wide budget can never make results
 * depend on worker timing. The returned records are in point order
 * and identical whether any prefix was resumed, at any thread count.
 */
std::vector<PointRecord>
runPoints(
    const char *study, const std::string &identity, std::size_t n,
    const kernel::FaultPlan &fault_plan, StudyObserver &observer,
    const std::function<std::string(std::size_t)> &label_of,
    const std::function<std::vector<StatusOr<Measurement>>(
        std::size_t, std::optional<long>)> &measure,
    bool use_delta, bool with_attr)
{
    std::vector<PointRecord> slots(n);
    auto ckpt = StudyCheckpoint::openFromEnv(study, identity, n);
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
            pca_inform(study, ": resuming from ", ckpt->path(), " (",
                       n - todo.size(), "/", n,
                       " points already complete)");
    }

    try {
        parallelFor(todo.size(), [&](std::size_t t) {
            const std::size_t i = todo[t];
            slots[i] = toRecord(
                measure(i, fault_plan.retry.effectivePointBudget(n, i)),
                use_delta, with_attr);
            if (ckpt)
                ckpt->record(i, slots[i]);
            observer.pointDone(label_of(i), okValues(slots[i]));
        });
    } catch (const StatusError &e) {
        if (e.status().code() == StatusCode::Cancelled && ckpt)
            pca_warn(study, ": cancelled with ",
                     ckpt->completedCount(), "/", n,
                     " points checkpointed in ", ckpt->path(),
                     "; rerun with PCA_CHECKPOINT set to resume");
        throw;
    }
    return slots;
}

} // namespace

DataTable
runNullErrorStudy(const std::vector<FactorPoint> &points,
                  int runs_per_point, std::uint64_t seed,
                  const StudyObsOptions &obs_opt)
{
    pca_assert(runs_per_point >= 1);
    std::vector<std::string> cols{"processor", "interface",
                                  "pattern",   "mode",
                                  "opt",       "nctrs",
                                  "tsc",       "run"};
    if (obs_opt.attributionColumns)
        appendAttrColumns(cols);
    DataTable table(cols, "error");
    StudyObserver observer(obs_opt, "null_error", points.size());
    const NullBench bench;
    const kernel::FaultPlan fault_plan = kernel::FaultPlan::fromEnv();

    // Every run's seed is a pure function of (study seed, point
    // index, run index), so the measured values cannot depend on
    // which worker claims a point; the point-order emission below
    // makes the table byte-identical for every PCA_THREADS value.
    const auto label_of = [&](std::size_t i) {
        const FactorPoint &p = points[i];
        return detail::cat(cpu::processorCode(p.processor), "/",
                           harness::interfaceCode(p.iface), "/",
                           harness::patternName(p.pattern), "/",
                           harness::countingModeName(p.mode), "/O",
                           p.optLevel, "/n", p.numCounters, "/tsc=",
                           p.tsc ? "on" : "off");
    };
    const auto measure = [&](std::size_t i,
                             std::optional<long> budget) {
        const FactorPoint &p = points[i];
        const std::uint64_t point_id = i + 1;
        HarnessConfig cfg = p.toHarnessConfig(seed);
        cfg.faults = fault_plan;
        return harness::measurePoint(
            cfg, bench, runs_per_point,
            [&](int r) {
                return mixSeed(seed,
                               point_id * 1000 +
                                   static_cast<std::uint64_t>(r));
            },
            budget);
    };
    const std::string identity = detail::cat(
        "seed=", seed, "|runs=", runs_per_point,
        "|attr=", obs_opt.attributionColumns ? 1 : 0,
        "|pts=", labelsDigest(points.size(), label_of),
        "|faults=", fault_plan.fingerprint());
    std::vector<PointRecord> slots =
        runPoints("null_error", identity, points.size(), fault_plan,
                  observer, label_of, measure, false,
                  obs_opt.attributionColumns);

    // Point-order append => thread-count-independent output.
    if (obs_opt.distributions)
        for (std::size_t i = 0; i < points.size(); ++i)
            obs_opt.distributions->addPoint(label_of(i),
                                            histOf(slots[i]));

    for (std::size_t i = 0; i < points.size(); ++i) {
        const FactorPoint &p = points[i];
        for (int r = 0; r < runs_per_point; ++r) {
            const CheckpointRun &run =
                slots[i][static_cast<std::size_t>(r)];
            std::vector<std::string> keys{
                cpu::processorCode(p.processor),
                harness::interfaceCode(p.iface),
                harness::patternName(p.pattern),
                harness::countingModeName(p.mode),
                "O" + std::to_string(p.optLevel),
                std::to_string(p.numCounters),
                p.tsc ? "on" : "off",
                std::to_string(r)};
            if (obs_opt.attributionColumns)
                keys.insert(keys.end(), run.attr.begin(),
                            run.attr.end());
            if (run.ok) {
                table.add(keys, run.value);
            } else {
                PCA_SPC_INC(DegradedPoints);
                table.add(keys, run.value, run.note);
            }
        }
    }
    observer.finish();
    return table;
}

DataTable
runDurationStudy(const DurationStudyOptions &opt)
{
    std::vector<std::string> cols{"processor", "interface",
                                  "loopsize", "run"};
    if (opt.obs.attributionColumns)
        appendAttrColumns(cols);
    DataTable table(cols, "error");

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

    StudyObserver observer(opt.obs, "duration", pts.size());
    const kernel::FaultPlan fault_plan = kernel::FaultPlan::fromEnv();
    const auto label_of = [&](std::size_t i) {
        const Point &p = pts[i];
        return detail::cat(cpu::processorCode(p.proc), "/",
                           harness::interfaceCode(p.iface),
                           "/size=", p.size);
    };
    const auto measure = [&](std::size_t i,
                             std::optional<long> budget) {
        const Point &p = pts[i];
        const LoopBench bench(p.size);
        HarnessConfig cfg;
        cfg.processor = p.proc;
        cfg.iface = p.iface;
        cfg.pattern = opt.pattern;
        cfg.mode = opt.mode;
        cfg.faults = fault_plan;
        // Legacy serial numbering: point_id ticked once per run, in
        // point order. Preserved exactly so the table matches the
        // pre-parallel engine bit for bit.
        const std::uint64_t base =
            static_cast<std::uint64_t>(i) *
            static_cast<std::uint64_t>(opt.runsPerSize);
        return harness::measurePoint(
            cfg, bench, opt.runsPerSize,
            [&](int r) {
                return mixSeed(
                    opt.seed,
                    base + static_cast<std::uint64_t>(r) + 1);
            },
            budget);
    };
    const std::string identity = detail::cat(
        "seed=", opt.seed, "|runs=", opt.runsPerSize,
        "|pat=", harness::patternName(opt.pattern),
        "|mode=", harness::countingModeName(opt.mode),
        "|attr=", opt.obs.attributionColumns ? 1 : 0,
        "|pts=", labelsDigest(pts.size(), label_of),
        "|faults=", fault_plan.fingerprint());
    std::vector<PointRecord> slots =
        runPoints("duration", identity, pts.size(), fault_plan,
                  observer, label_of, measure, false,
                  opt.obs.attributionColumns);

    if (opt.obs.distributions)
        for (std::size_t i = 0; i < pts.size(); ++i)
            opt.obs.distributions->addPoint(label_of(i),
                                            histOf(slots[i]));

    for (std::size_t i = 0; i < pts.size(); ++i) {
        const Point &p = pts[i];
        for (int r = 0; r < opt.runsPerSize; ++r) {
            const CheckpointRun &run =
                slots[i][static_cast<std::size_t>(r)];
            std::vector<std::string> keys{
                cpu::processorCode(p.proc),
                harness::interfaceCode(p.iface),
                std::to_string(p.size), std::to_string(r)};
            if (opt.obs.attributionColumns)
                keys.insert(keys.end(), run.attr.begin(),
                            run.attr.end());
            if (run.ok) {
                table.add(keys, run.value);
            } else {
                PCA_SPC_INC(DegradedPoints);
                table.add(keys, run.value, run.note);
            }
        }
    }
    observer.finish();
    return table;
}

std::vector<SlopeRow>
errorSlopes(const DataTable &duration_data)
{
    std::vector<SlopeRow> out;
    for (const auto &group :
         duration_data.groupBy({"processor", "interface"})) {
        // Rebuild (size, error) pairs for this group.
        std::vector<double> xs, ys;
        const auto proc_idx = duration_data.columnIndex("processor");
        const auto if_idx = duration_data.columnIndex("interface");
        const auto size_idx = duration_data.columnIndex("loopsize");
        for (const auto &row : duration_data.rows()) {
            if (row.keys[proc_idx] != group.keys[0] ||
                row.keys[if_idx] != group.keys[1])
                continue;
            xs.push_back(std::stod(row.keys[size_idx]));
            ys.push_back(row.value);
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
    DataTable table(
        {"processor", "interface", "pattern", "opt", "loopsize",
         "run"},
        "cycles");

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
    StudyObserver observer(opt.obs, "cycle", pts.size());
    const auto label_of = [&](std::size_t i) {
        const Point &p = pts[i];
        return detail::cat(cpu::processorCode(p.proc), "/",
                           harness::interfaceCode(p.iface), "/",
                           harness::patternName(p.pat), "/O",
                           p.optLevel, "/size=", p.size);
    };
    const kernel::FaultPlan fault_plan = kernel::FaultPlan::fromEnv();
    const auto measure = [&](std::size_t i,
                             std::optional<long> budget) {
        const Point &p = pts[i];
        const LoopBench bench(p.size);
        HarnessConfig cfg;
        cfg.processor = p.proc;
        cfg.iface = p.iface;
        cfg.pattern = p.pat;
        cfg.optLevel = p.optLevel;
        cfg.mode = harness::CountingMode::UserKernel;
        cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
        cfg.faults = fault_plan;
        // Same legacy per-run numbering as the duration study.
        const std::uint64_t base =
            static_cast<std::uint64_t>(i) *
            static_cast<std::uint64_t>(opt.runsPerConfig);
        return harness::measurePoint(
            cfg, bench, opt.runsPerConfig,
            [&](int r) {
                return mixSeed(
                    opt.seed,
                    base + static_cast<std::uint64_t>(r) + 1);
            },
            budget);
    };
    const std::string identity = detail::cat(
        "seed=", opt.seed, "|runs=", opt.runsPerConfig,
        "|pts=", labelsDigest(pts.size(), label_of),
        "|faults=", fault_plan.fingerprint());
    std::vector<PointRecord> slots =
        runPoints("cycle", identity, pts.size(), fault_plan, observer,
                  label_of, measure, true, false);

    if (opt.obs.distributions)
        for (std::size_t i = 0; i < pts.size(); ++i)
            opt.obs.distributions->addPoint(label_of(i),
                                            histOf(slots[i]));

    for (std::size_t i = 0; i < pts.size(); ++i) {
        const Point &p = pts[i];
        for (int r = 0; r < opt.runsPerConfig; ++r) {
            const CheckpointRun &run =
                slots[i][static_cast<std::size_t>(r)];
            std::vector<std::string> keys{
                cpu::processorCode(p.proc),
                harness::interfaceCode(p.iface),
                harness::patternName(p.pat),
                "O" + std::to_string(p.optLevel),
                std::to_string(p.size), std::to_string(r)};
            if (run.ok) {
                table.add(keys, run.value);
            } else {
                PCA_SPC_INC(DegradedPoints);
                table.add(keys, run.value, run.note);
            }
        }
    }
    observer.finish();
    return table;
}

} // namespace pca::core
