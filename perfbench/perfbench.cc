/**
 * @file
 * Study benchmark driver. Regenerates the tidy datasets behind the
 * paper's figures (null-benchmark errors, loop-duration errors, loop
 * cycle counts) and times them from outside the library: it calls
 * only core::run*Study, harness::HarnessSession, harness::Machine and
 * DataTable::writeCsv, and adds no instrumentation to them.
 *
 *   perfbench setup --workload W --seed N --out DIR
 *   perfbench e2e   --workload W --seed N --seconds S --out DIR
 *   perfbench trace --workload W --seed N --out DIR
 *
 * "setup" stops just before the first study call. "e2e" repeats the
 * workload's study calls until S seconds have passed and reports the
 * wall and CPU time of each repetition, with a calibration kernel
 * timed before the first and after every repetition. "trace" replays the workload
 * serially, one HarnessSession per factor point, and times the calls
 * into each layer. Every mode prints one JSON object of raw results
 * as its last stdout line and writes the workload's tables as CSV
 * files into DIR; perfbench/run.py turns them into metrics and checks
 * the tables against results/*.csv.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/machine.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "kernel/faults.hh"
#include "obs/spc.hh"
#include "support/parallel.hh"
#include "support/random.hh"

namespace
{

using namespace pca;
namespace fs = std::filesystem;

/** CLOCK_MONOTONIC seconds: the clock run.py reads before spawning. */
double
monoNow()
{
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) +
        static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
        static_cast<double>(tv.tv_usec) * 1e-6;
}

/** User + system CPU seconds of the process, all threads. */
double
cpuNow()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** One factor point as the study measures it, for the serial replay. */
struct ReplayPoint
{
    harness::HarnessConfig cfg;
    std::shared_ptr<const harness::MicroBenchmark> bench;
    Count loopIters = 0; //!< loop trip count (0 for the null benchmark)
    std::vector<std::uint64_t> seeds; //!< one per run, as the study derives them
    bool useDelta = false; //!< cycle study reports c∆, the others the error
    std::size_t firstRow = 0; //!< first row across the workload's tables
};

using ReplayPoints = std::vector<ReplayPoint>;

/**
 * A named workload: its study calls, and a builder for their points
 * in row order (built only after set-up, so set-up time is the
 * study's own).
 */
struct Workload
{
    std::vector<std::string> files; //!< one CSV name per table
    std::function<std::vector<core::DataTable>()> study;
    std::function<ReplayPoints()> points;
};

void
addPoint(ReplayPoints &pts, const harness::HarnessConfig &cfg,
         std::shared_ptr<const harness::MicroBenchmark> bench,
         Count loop_iters, std::vector<std::uint64_t> seeds,
         bool use_delta)
{
    std::size_t first = 0;
    if (!pts.empty())
        first = pts.back().firstRow + pts.back().seeds.size();
    pts.push_back({cfg, std::move(bench), loop_iters, std::move(seeds),
                   use_delta, first});
}

/** Seeds of the duration and cycle studies: i·runs + r + 1. */
std::vector<std::uint64_t>
loopSeeds(std::uint64_t seed, std::size_t i, int runs)
{
    std::vector<std::uint64_t> out;
    for (int r = 0; r < runs; ++r)
        out.push_back(mixSeed(seed, i * static_cast<std::uint64_t>(runs) +
                                        static_cast<std::uint64_t>(r) +
                                        1));
    return out;
}

Workload
nullSweep(std::uint64_t seed)
{
    constexpr int runs = 3;
    const auto points = core::FactorSpace()
                            .counterCounts({1, 2, 4})
                            .tscSettings({true, false})
                            .generate();
    Workload w;
    w.files = {"null_errors.csv"};
    w.study = [points, seed] {
        return std::vector<core::DataTable>{
            core::runNullErrorStudy(points, runs, seed)};
    };
    w.points = [points, seed] {
        const auto bench = std::make_shared<const harness::NullBench>();
        const kernel::FaultPlan faults = kernel::FaultPlan::fromEnv();
        ReplayPoints pts;
        for (std::size_t i = 0; i < points.size(); ++i) {
            harness::HarnessConfig cfg = points[i].toHarnessConfig(seed);
            cfg.faults = faults;
            std::vector<std::uint64_t> seeds;
            for (int r = 0; r < runs; ++r)
                seeds.push_back(
                    mixSeed(seed, (i + 1) * 1000 +
                                      static_cast<std::uint64_t>(r)));
            addPoint(pts, cfg, bench, 0, std::move(seeds), false);
        }
        return pts;
    };
    return w;
}

Workload
durationSweep(std::uint64_t seed)
{
    core::DurationStudyOptions uk;
    uk.runsPerSize = 5;
    uk.seed = seed;
    core::DurationStudyOptions user = uk;
    user.mode = harness::CountingMode::User;

    Workload w;
    w.files = {"duration_uk.csv", "duration_user.csv"};
    w.study = [uk, user] {
        return std::vector<core::DataTable>{core::runDurationStudy(uk),
                                            core::runDurationStudy(user)};
    };
    w.points = [uk, user] {
        const kernel::FaultPlan faults = kernel::FaultPlan::fromEnv();
        ReplayPoints pts;
        for (const core::DurationStudyOptions &opt : {uk, user}) {
            std::size_t i = 0;
            for (cpu::Processor proc : opt.processors)
                for (harness::Interface iface : opt.interfaces) {
                    if (!harness::patternSupported(iface, opt.pattern))
                        continue;
                    for (Count size : opt.loopSizes) {
                        harness::HarnessConfig cfg;
                        cfg.processor = proc;
                        cfg.iface = iface;
                        cfg.pattern = opt.pattern;
                        cfg.mode = opt.mode;
                        cfg.faults = faults;
                        addPoint(pts, cfg,
                                 std::make_shared<const harness::LoopBench>(
                                     size),
                                 size,
                                 loopSeeds(opt.seed, i++, opt.runsPerSize),
                                 false);
                    }
                }
        }
        return pts;
    };
    return w;
}

Workload
cycleSweep(std::uint64_t seed)
{
    core::CycleStudyOptions opt;
    opt.seed = seed;

    Workload w;
    w.files = {"cycles.csv"};
    w.study = [opt] {
        return std::vector<core::DataTable>{core::runCycleStudy(opt)};
    };
    w.points = [opt] {
        const kernel::FaultPlan faults = kernel::FaultPlan::fromEnv();
        ReplayPoints pts;
        std::size_t i = 0;
        for (cpu::Processor proc : opt.processors)
            for (harness::Interface iface : opt.interfaces)
                for (harness::AccessPattern pat : opt.patterns) {
                    if (!harness::patternSupported(iface, pat))
                        continue;
                    for (int opt_level : opt.optLevels)
                        for (Count size : opt.loopSizes) {
                            harness::HarnessConfig cfg;
                            cfg.processor = proc;
                            cfg.iface = iface;
                            cfg.pattern = pat;
                            cfg.optLevel = opt_level;
                            cfg.mode = harness::CountingMode::UserKernel;
                            cfg.primaryEvent =
                                cpu::EventType::CpuClkUnhalted;
                            cfg.faults = faults;
                            addPoint(
                                pts, cfg,
                                std::make_shared<const harness::LoopBench>(
                                    size),
                                size,
                                loopSeeds(opt.seed, i++, opt.runsPerConfig),
                                true);
                        }
                }
        return pts;
    };
    return w;
}

/** The machine a HarnessSession boots for @p cfg (its private mapping). */
harness::MachineConfig
machineConfig(const harness::HarnessConfig &cfg)
{
    harness::MachineConfig mc;
    mc.processor = cfg.processor;
    mc.iface = cfg.iface;
    mc.seed = cfg.seed;
    mc.interruptsEnabled = cfg.interruptsEnabled;
    mc.ioInterrupts = cfg.ioInterrupts;
    mc.preemptProb = cfg.preemptProb;
    mc.fastForward = cfg.fastForward;
    mc.decodeCache = cfg.decodeCache;
    mc.traceTier = cfg.traceTier;
    mc.faults = cfg.faults;
    mc.profile = cfg.profile;
    mc.runInstrBudget = cfg.runInstrBudget;
    mc.runCycleBudget = cfg.runCycleBudget;
    return mc;
}

/** A run's table value: NaN for a failed run, as in a degraded row. */
double
valueOf(const StatusOr<harness::Measurement> &m, bool use_delta)
{
    if (!m.ok())
        return std::nan("");
    return static_cast<double>(use_delta ? m->delta() : m->error());
}

bool
sameValue(double a, double b)
{
    return (std::isnan(a) && std::isnan(b)) || a == b;
}

std::vector<double>
tableValues(const std::vector<core::DataTable> &tables)
{
    std::vector<double> out;
    for (const core::DataTable &t : tables)
        for (const core::DataRow &row : t.rows())
            out.push_back(row.value);
    return out;
}

std::size_t
rowCount(const std::vector<core::DataTable> &tables)
{
    std::size_t n = 0;
    for (const core::DataTable &t : tables)
        n += t.size();
    return n;
}

std::size_t
degradedCount(const std::vector<core::DataTable> &tables)
{
    std::size_t n = 0;
    for (const core::DataTable &t : tables)
        n += t.degradedCount();
    return n;
}

std::string
csvText(const std::vector<core::DataTable> &tables)
{
    std::ostringstream os;
    for (const core::DataTable &t : tables)
        t.writeCsv(os);
    return os.str();
}

void
writeTables(const Workload &w, const std::vector<core::DataTable> &tables,
            const fs::path &dir)
{
    fs::create_directories(dir);
    for (std::size_t t = 0; t < tables.size(); ++t) {
        std::ofstream os(dir / w.files[t]);
        tables[t].writeCsv(os);
    }
}

/**
 * Replay @p n points chosen by @p seed serially and count the rows
 * whose value differs from @p values (the study's value column).
 */
std::size_t
sampledReplayMismatches(const ReplayPoints &pts,
                        const std::vector<double> &values,
                        std::uint64_t seed, std::size_t n)
{
    std::vector<std::size_t> order(pts.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::mt19937_64 rng(mixSeed(seed, 0x5eedULL));
    std::shuffle(order.begin(), order.end(), rng);
    order.resize(std::min(n, order.size()));

    std::size_t bad = 0;
    for (std::size_t i : order) {
        const ReplayPoint &p = pts[i];
        harness::HarnessSession session(p.cfg, *p.bench);
        for (std::size_t r = 0; r < p.seeds.size(); ++r) {
            const std::size_t row = p.firstRow + r;
            if (row >= values.size() ||
                !sameValue(valueOf(session.tryRun(p.seeds[r]), p.useDelta),
                           values[row]))
                ++bad;
        }
    }
    return bad;
}

/** Minimal JSON object writer: numbers at full precision. */
class JsonOut
{
  public:
    JsonOut() { os << std::setprecision(17) << '{'; }

    JsonOut &
    num(const std::string &key, double v)
    {
        sep(key);
        if (std::isfinite(v))
            os << v;
        else
            os << "null";
        return *this;
    }

    JsonOut &
    str(const std::string &key, const std::string &v)
    {
        sep(key);
        os << '"';
        for (char c : v)
            if (c == '"' || c == '\\')
                os << '\\' << c;
            else if (static_cast<unsigned char>(c) >= 0x20)
                os << c;
        os << '"';
        return *this;
    }

    JsonOut &
    list(const std::string &key, const std::vector<double> &v)
    {
        sep(key);
        os << '[';
        for (std::size_t i = 0; i < v.size(); ++i)
            os << (i ? "," : "") << v[i];
        os << ']';
        return *this;
    }

    std::string done() { return os.str() + "}"; }

  private:
    void
    sep(const std::string &key)
    {
        os << (first ? "" : ",") << '"' << key << "\":";
        first = false;
    }

    std::ostringstream os;
    bool first = true;
};

/** Build facts for the host stamp; run.py adds nproc and the commit. */
void
stamp(JsonOut &j)
{
#ifdef __OPTIMIZE__
    const bool optimized = true;
#else
    const bool optimized = false;
#endif
#ifdef __clang__
    const char *compiler = "clang " __VERSION__;
#else
    const char *compiler = "gcc " __VERSION__;
#endif
    j.str("build_type", PERFBENCH_BUILD_TYPE)
        .num("optimized", optimized ? 1 : 0)
        .str("compiler", compiler)
        .num("threads", defaultThreadCount())
        .num("hardware_threads", hardwareThreads());
}

/** Run fn with PCA_THREADS=1, restoring the previous setting. */
template <typename Fn>
auto
serially(Fn fn)
{
    const char *prev = std::getenv("PCA_THREADS");
    const std::string saved = prev ? prev : "";
    setenv("PCA_THREADS", "1", 1);
    auto result = fn();
    if (prev)
        setenv("PCA_THREADS", saved.c_str(), 1);
    else
        unsetenv("PCA_THREADS");
    return result;
}

/**
 * Host-speed calibration: a fixed single-threaded table walk with
 * data-dependent branches (~70 ms on a 2 GHz Xeon), the same work on
 * every commit because it lives here. Returns its wall seconds.
 */
double
calibrate()
{
    static std::vector<std::uint32_t> table(1u << 19, 1u);
    const std::uint32_t mask = static_cast<std::uint32_t>(table.size() - 1);
    const double t0 = monoNow();
    std::uint32_t x = 12345, acc = 0;
    for (int i = 0; i < 3000000; ++i) {
        x = x * 1664525u + 1013904223u;
        const std::uint32_t idx = (x >> 9) & mask;
        const std::uint32_t v = table[idx];
        switch ((v ^ x) & 7) {
          case 0: acc += v; break;
          case 1: acc ^= v << 1; break;
          case 2: acc -= x; break;
          case 3: acc += v * 3; break;
          case 4: acc ^= x >> 3; break;
          case 5: acc += idx; break;
          default: acc = acc * 5 + 1; break;
        }
        table[idx] = v + acc;
    }
    static volatile std::uint32_t sink;
    sink = acc;
    return monoNow() - t0;
}

int
runE2e(const Workload &w, std::uint64_t seed, double budget_s,
       const fs::path &out, double study_start)
{
    std::vector<double> walls, cpus, cals{calibrate()};
    std::string first_csv;
    std::vector<double> first_values;
    std::size_t rows = 0, degraded = 0, unstable_rows = 0;
    const double deadline = monoNow() + budget_s;
    do {
        const double t0 = monoNow();
        const double c0 = cpuNow();
        const std::vector<core::DataTable> tables = w.study();
        walls.push_back(monoNow() - t0);
        cpus.push_back(cpuNow() - c0);
        cals.push_back(calibrate());

        rows += rowCount(tables);
        degraded += degradedCount(tables);
        std::string csv = csvText(tables);
        if (walls.size() == 1) {
            writeTables(w, tables, out);
            first_csv = std::move(csv);
            first_values = tableValues(tables);
        } else if (csv != first_csv) {
            unstable_rows += rowCount(tables);
        }
    } while (monoNow() < deadline);
    // Where the two workers' sessions peak together varies from run to
    // run; the high-water mark settles within a few repetitions.
    const double rss = peakRssMb();

    constexpr std::size_t sampledPoints = 6;
    const std::size_t replay_bad =
        sampledReplayMismatches(w.points(), first_values, seed,
                                sampledPoints);

    JsonOut j;
    j.num("study_start", study_start)
        .list("wall_s", walls)
        .list("cpu_s", cpus)
        .list("cal_s", cals)
        .num("peak_rss_mb", rss)
        .num("rows", static_cast<double>(rows))
        .num("degraded_rows", static_cast<double>(degraded))
        .num("unstable_rows", static_cast<double>(unstable_rows))
        .num("replay_mismatches", static_cast<double>(replay_bad));
    stamp(j);
    std::cout << j.done() << std::endl;
    return 0;
}

/** Host time and exact counts accumulated by the traced replay. */
struct LayerTimes
{
    double build = 0, run = 0;
    double builds = 0, runs = 0;
    double simInstr = 0, simCycles = 0, ffIters = 0, kernelInstr = 0,
           interrupts = 0, loopIters = 0;
    double spansOn = 0, spansOff = 0; //!< replay wall time per pass
    std::vector<double> pointSeconds;
    std::vector<double> values, offValues;
};

/**
 * Replay one point: build its session and run every seed — the calls
 * the study makes, minus its cache and worker pool. With @p lt each
 * call is timed and counted into it. Returns the run values.
 */
std::vector<double>
replayPoint(const ReplayPoint &p, LayerTimes *lt)
{
    double t = lt ? monoNow() : 0;
    harness::HarnessSession session(p.cfg, *p.bench);
    if (lt) {
        lt->build += monoNow() - t;
        lt->builds += 1;
    }
    std::vector<double> values;
    for (std::uint64_t s : p.seeds) {
        if (lt)
            t = monoNow();
        const StatusOr<harness::Measurement> m = session.tryRun(s);
        values.push_back(valueOf(m, p.useDelta));
        if (!lt)
            continue;
        lt->run += monoNow() - t;
        lt->runs += 1;
        lt->loopIters += static_cast<double>(p.loopIters);
        if (m.ok()) {
            const cpu::RunResult &rr = m->run;
            lt->simInstr +=
                static_cast<double>(rr.userInstr + rr.kernelInstr);
            lt->simCycles += static_cast<double>(rr.cycles);
            lt->ffIters += static_cast<double>(rr.fastForwardedIters);
            lt->kernelInstr += static_cast<double>(rr.kernelInstr);
            lt->interrupts += static_cast<double>(rr.interrupts);
        }
    }
    return values;
}

/**
 * Serial replay of every point, twice: once with a span around each
 * call and once without, the two passes interleaved point by point in
 * alternating order so that warm-up and host drift favour neither.
 */
LayerTimes
replay(const ReplayPoints &pts)
{
    LayerTimes lt;
    for (std::size_t i = 0; i < pts.size(); ++i)
        for (int pass = 0; pass < 2; ++pass) {
            const bool spans = (pass == 0) == (i % 2 == 0);
            const double t0 = monoNow();
            const std::vector<double> v =
                replayPoint(pts[i], spans ? &lt : nullptr);
            const double dt = monoNow() - t0;
            std::vector<double> &into = spans ? lt.values : lt.offValues;
            into.insert(into.end(), v.begin(), v.end());
            if (spans) {
                lt.spansOn += dt;
                lt.pointSeconds.push_back(dt);
            } else {
                lt.spansOff += dt;
            }
        }
    return lt;
}

/** Probe machines: boot, link/decode and reboot costs per point. */
struct ProbeTimes
{
    double boot = 0, linkDecode = 0, reboot = 0;
};

ProbeTimes
probe(const ReplayPoints &pts)
{
    ProbeTimes pt;
    for (const ReplayPoint &p : pts) {
        double t = monoNow();
        harness::Machine machine(machineConfig(p.cfg));
        pt.boot += monoNow() - t;

        isa::Assembler a("main");
        a.halt();
        machine.addUserBlock(a.take());
        t = monoNow();
        machine.finalize();
        pt.linkDecode += monoNow() - t;

        for (std::uint64_t s : p.seeds) {
            t = monoNow();
            machine.reboot(s);
            pt.reboot += monoNow() - t;
        }
    }
    return pt;
}

int
runTrace(const Workload &w, const fs::path &out, double study_start)
{
    // The study at the configured thread count, for parallel efficiency.
    double t0 = monoNow();
    const double c0 = cpuNow();
    const std::vector<core::DataTable> parallel_tables = w.study();
    const double par_wall = monoNow() - t0;
    const double par_cpu = cpuNow() - c0;

    // The same study serially, with the program-cache SPCs attached.
    obs::spcAttach("program_cache_hits,program_cache_misses");
    t0 = monoNow();
    const std::vector<core::DataTable> tables =
        serially([&] { return w.study(); });
    const double serial_wall = monoNow() - t0;
    const double hits =
        static_cast<double>(obs::spcValue(obs::Spc::ProgramCacheHits));
    const double misses =
        static_cast<double>(obs::spcValue(obs::Spc::ProgramCacheMisses));
    obs::spcReset();

    t0 = monoNow();
    writeTables(w, tables, out);
    const double csv_write = monoNow() - t0;

    const ReplayPoints pts = w.points();
    const LayerTimes lt = replay(pts);
    const ProbeTimes pt = probe(pts);

    const std::vector<double> values = tableValues(tables);
    std::size_t mismatches = 0;
    if (values.size() != lt.values.size())
        mismatches = std::max(values.size(), lt.values.size());
    else
        for (std::size_t i = 0; i < values.size(); ++i)
            if (!sameValue(values[i], lt.values[i]) ||
                !sameValue(values[i], lt.offValues[i]))
                ++mismatches;
    const std::size_t unstable =
        csvText(parallel_tables) == csvText(tables) ? 0
                                                    : rowCount(tables);

    JsonOut j;
    j.num("study_start", study_start)
        .num("parallel_wall_s", par_wall)
        .num("parallel_cpu_s", par_cpu)
        .num("serial_wall_s", serial_wall)
        .num("cache_hits", hits)
        .num("cache_misses", misses)
        .num("csv_write_s", csv_write)
        .num("session_build_s", lt.build)
        .num("session_builds", lt.builds)
        .num("session_run_s", lt.run)
        .num("runs", lt.runs)
        .num("machine_boot_s", pt.boot)
        .num("link_decode_s", pt.linkDecode)
        .num("reboot_s", pt.reboot)
        .num("sim_instr", lt.simInstr)
        .num("sim_cycles", lt.simCycles)
        .num("ff_iters", lt.ffIters)
        .num("sim_kernel_instr", lt.kernelInstr)
        .num("interrupts", lt.interrupts)
        .num("loop_iters", lt.loopIters)
        .num("replay_on_s", lt.spansOn)
        .num("replay_off_s", lt.spansOff)
        .list("point_s", lt.pointSeconds)
        .num("peak_rss_mb", peakRssMb())
        .num("rows", static_cast<double>(rowCount(tables)))
        .num("degraded_rows", static_cast<double>(degradedCount(tables)))
        .num("unstable_rows", static_cast<double>(unstable))
        .num("replay_mismatches", static_cast<double>(mismatches));
    stamp(j);
    std::cout << j.done() << std::endl;
    return 0;
}

int
usage()
{
    std::cerr << "usage: perfbench setup|e2e|trace --workload "
                 "null_sweep|duration_sweep|cycle_sweep --seed N "
                 "[--seconds S] --out DIR\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string mode = argv[1];
    std::map<std::string, std::string> args;
    for (int i = 2; i + 1 < argc; i += 2)
        args[argv[i]] = argv[i + 1];
    if (!args.count("--workload") || !args.count("--seed") ||
        !args.count("--out"))
        return usage();

    const std::uint64_t seed = std::stoull(args["--seed"]);
    const std::string &name = args["--workload"];
    Workload w;
    if (name == "null_sweep")
        w = nullSweep(seed);
    else if (name == "duration_sweep")
        w = durationSweep(seed);
    else if (name == "cycle_sweep")
        w = cycleSweep(seed);
    else
        return usage();
    const fs::path out = args["--out"];

    // Everything above is set-up; the study calls start here.
    const double study_start = monoNow();
    if (mode == "setup") {
        std::cout << JsonOut().num("study_start", study_start).done()
                  << std::endl;
        return 0;
    }
    if (mode == "e2e")
        return runE2e(w, seed,
                      args.count("--seconds") ? std::stod(args["--seconds"])
                                              : 10.0,
                      out, study_start);
    if (mode == "trace")
        return runTrace(w, out, study_start);
    return usage();
}
