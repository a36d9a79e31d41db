/**
 * @file
 * Timing and soak modes for the simulator itself. Exactly one mode
 * runs per invocation; with none, the usage goes to stderr and the
 * exit status is 2.
 *
 * `perf_simulator --studies [output.json]` times the study engine
 * end to end on the Figure 1 workload — the legacy serial path
 * (fresh machine + re-assembly + execution per run) against the
 * parallel engine, which builds one session per point, reboots it
 * for the point's other runs and answers most of them from the
 * point's reference run — and writes points/sec, speedup, the
 * session reuse rate (program_cache_hits over all runs) and the
 * engine's runs_reused and runs_executed to BENCH_studies.json. The
 * two paths' tables must be identical, so every reused run is
 * checked against a fresh simulation.
 *
 * `perf_simulator --e2e [output.json] [bench_dir ...]` times every
 * exhibit binary of each bench_dir (default: this binary's own) at
 * 1 and at hardware-thread-count PCA_THREADS, each run in a fresh
 * temporary directory, over three reps interleaved across exhibits,
 * thread counts and dirs. It writes one row per dir — the build's
 * commit, build type and compiler, read from its CMake cache — with
 * the median, min and max seconds per exhibit and thread count, to
 * BENCH_e2e.json.
 *
 * `perf_simulator --interp [output.json]` times the interpreter on
 * the fig07/fig09 loop-sweep workload with the legacy per-step
 * interpreter and the basic-block engine x fast-forward settings,
 * asserts the block engine is architecturally invisible, and writes
 * per-cell median/min/max seconds, instr/sec, points/sec, the block
 * engine's speedups, and the per-reason block-escape SPCs to
 * BENCH_interpreter.json.
 *
 * `perf_simulator --counters [file]` attaches every SPC, runs a
 * small profiled workload, round-trips the counters through the
 * mmap'd snapshot format, and dumps all names and values.
 *
 * `perf_simulator --watch <file> [polls]` follows a live snapshot
 * file published by a process started with PCA_SPC_SNAPSHOT=<file>,
 * printing every new publish (torn-read safe via the seqlock).
 *
 * `perf_simulator --chaos [output.json]` soaks the resilient engine:
 * the fig01 workload runs under a PCA_FAULTS rate sweep at a fixed
 * fault-plan seed, asserting that every sweep step completes without
 * aborting, that degraded rows stay bounded, and that the chaos
 * output is deterministic. Every violated invariant is reported,
 * counted in the output's "violations" field, and turns the exit
 * status nonzero. Results (fault plan, degraded counts, retry
 * totals) go to BENCH_chaos.json.
 *
 * `perf_simulator --soak [output.json]` soaks the resilience layer
 * itself: a fault plan with hangs and a watchdog budget runs the
 * fig01 slice, then the same sweep is replayed, checkpointed,
 * crash-truncated and resumed, and cancelled and resumed — every
 * variant must produce byte-identical tables. Recovery rate, wasted
 * work, and resume fidelity go to BENCH_resilience.json; any
 * violated invariant makes the exit status nonzero.
 */

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <thread>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "kernel/faults.hh"
#include "obs/snapshot.hh"
#include "obs/spc.hh"
#include "support/parallel.hh"
#include "support/status.hh"
#include "support/random.hh"
#include "support/strutil.hh"

namespace
{

using namespace pca;
namespace fs = std::filesystem;
using harness::AccessPattern;
using harness::CountingMode;
using harness::HarnessConfig;
using harness::HarnessSession;
using harness::Interface;
using harness::LoopBench;
using harness::Machine;
using harness::MachineConfig;
using harness::NullBench;
using isa::Assembler;
using isa::Reg;

// ---------------------------------------------------------------- //
// --studies: end-to-end study engine timing
// ---------------------------------------------------------------- //

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------- //
// --interp: block-engine interpreter throughput
// ---------------------------------------------------------------- //

/**
 * Format a per-run time for display and JSON: fixed 4 decimals for
 * millisecond-and-up runs, scientific for the microsecond-scale
 * fast-forward cells (which used to round to a flat "0.0000").
 */
std::string
fmtSec(double v)
{
    return v >= 1e-3 || v == 0.0 ? fmtDouble(v, 4) : fmtSci(v, 3);
}

/** Loop shapes the --interp mode times (see buildInterpProgram). */
enum class InterpWorkload
{
    Reg, //!< counted add/cmp/jne loop, no memory traffic
    Mem, //!< load-modify-store at a fixed address per iteration
};

/** One timed configuration of the loop-sweep workload. */
struct InterpCell
{
    InterpWorkload workload = InterpWorkload::Reg;
    bool decode = false;
    bool fastForward = false;
    int batch = 1;       //!< reboot+run iterations per timed rep
    std::vector<double> secs; //!< per-rep seconds (batch amortized)
    double sec = 0.0;    //!< median across reps
    double secMin = 0.0; //!< spread across reps
    double secMax = 0.0;
    Count instr = 0;     //!< simulated instructions retired per run
    double ips = 0.0;    //!< simulated instructions per wall second
    std::string digest;  //!< architectural + event fingerprint

    const char *engineName() const { return decode ? "block" : "legacy"; }

    const char *workloadName() const
    {
        return workload == InterpWorkload::Reg ? "register_loop"
                                               : "memory_loop";
    }

    /** Fold the recorded reps into median and min/max spread. */
    void aggregate()
    {
        std::vector<double> s = secs;
        std::sort(s.begin(), s.end());
        sec = s.empty() ? 0.0 : s[s.size() / 2];
        secMin = s.empty() ? 0.0 : s.front();
        secMax = s.empty() ? 0.0 : s.back();
        ips = sec > 0 ? static_cast<double>(instr) / sec : 0.0;
    }
};

/**
 * Fingerprint everything the block engine must leave untouched:
 * the run result, the final cycle count and TSC, and every raw
 * event counter in both modes. Any engine-visible divergence from
 * the legacy interpreter shows up here.
 */
std::string
archDigest(const cpu::RunResult &r, harness::Machine &m)
{
    std::ostringstream os;
    os << r.userInstr << '/' << r.kernelInstr << '/' << r.cycles
       << '/' << r.interrupts << '/' << r.fastForwardedIters;
    for (std::size_t e = 0; e < cpu::numEvents; ++e)
        for (auto mode : {Mode::User, Mode::Kernel})
            os << '/'
               << m.core().rawEvents(static_cast<cpu::EventType>(e),
                                     mode);
    return os.str();
}

/**
 * Run the fig07/fig09 loop-sweep shape (counted add/cmp/jne loop)
 * under one decode-cache x fast-forward setting. The machine is
 * built fresh, exactly like a point's session in the study engine;
 * the timed region is cell.batch reboot+run iterations on that
 * machine, and the recorded time is the per-run amortization.
 *
 * The batch matters for the fast-forward cells: a single ff run
 * finishes in ~1-2 us, so timing it alone measures cold-cache and
 * allocator noise, not dispatch — which once produced an absurd
 * decode_speedup_ff of 0.44x from exactly this methodology error
 * (the harness-level timing in the same JSON showed the opposite).
 * Interpreted runs take milliseconds each; batch=1 keeps them
 * comparable with earlier numbers.
 */
void
buildInterpProgram(Machine &m, InterpWorkload wk, Count iters)
{
    Assembler a("main");
    switch (wk) {
    case InterpWorkload::Reg: {
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        break;
    }
    case InterpWorkload::Mem: {
        // Fixed-address load-modify-store: memory ops inline in the
        // block engine, and they keep fast-forward from folding.
        a.movImm(Reg::Esi, 0).movImm(Reg::Ecx, 0x400000);
        int loop = a.label();
        a.load(Reg::Ebx, Reg::Ecx, 0)
            .addImm(Reg::Ebx, 3)
            .store(Reg::Ebx, Reg::Ecx, 0)
            .addImm(Reg::Esi, 1)
            .cmpImm(Reg::Esi, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        break;
    }
    }
    m.addUserBlock(a.take());
    m.finalize();
}

void
runLoopOnce(InterpCell &cell, Count iters)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    cfg.fastForward = cell.fastForward;
    cfg.decodeCache = cell.decode;
    Machine m(cfg);
    buildInterpProgram(m, cell.workload, iters);

    cpu::RunResult res{};
    const auto t0 = std::chrono::steady_clock::now();
    for (int b = 0; b < cell.batch; ++b) {
        m.reboot(static_cast<std::uint64_t>(b) + 1);
        res = m.run();
    }
    const double sec =
        secondsSince(t0) / static_cast<double>(cell.batch);
    // Record every rep; the reported number is the median (with the
    // min/max spread alongside), not best-of-reps — a single lucky
    // rep on a noisy shared machine used to define the whole cell.
    cell.secs.push_back(sec);
    cell.instr = res.userInstr + res.kernelInstr;
    if (cell.digest.empty())
        cell.digest = archDigest(res, m);
}

/** Per-reason block-engine escape counts. */
struct EscapeCounts
{
    Count callret = 0;
    Count timeread = 0;
    Count syscall = 0;
    Count other = 0;
};

/**
 * Count block-engine escapes on a loop with a call+ret and an rdtsc
 * every iteration: each is a fallback to the legacy interpreter.
 */
EscapeCounts
escapeCounts(Count iters)
{
    obs::spcReset();
    obs::spcAttach("all");

    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    cfg.fastForward = false; // interpret every iteration
    cfg.decodeCache = true;
    Machine m(cfg);
    {
        Assembler fn("leaf");
        fn.addImm(Reg::Ebx, 1).ret();
        m.addUserBlock(fn.take());
    }
    Assembler a("main");
    // The counter lives in Esi: rdtsc writes Eax.
    a.movImm(Reg::Esi, 0);
    int loop = a.label();
    a.call("leaf")
        .rdtsc()
        .addImm(Reg::Esi, 1)
        .cmpImm(Reg::Esi, static_cast<std::int64_t>(iters))
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    EscapeCounts e;
    e.callret = obs::spcValue(obs::Spc::BlockEscapeCallret);
    e.timeread = obs::spcValue(obs::Spc::BlockEscapeTimeread);
    e.syscall = obs::spcValue(obs::Spc::BlockEscapeSyscall);
    e.other = obs::spcValue(obs::Spc::BlockEscapeOther);
    obs::spcReset();
    return e;
}

/**
 * Time full measurement points (fig07 shape: loop benchmark, PD/Pc,
 * interrupts live) with the block engine on or off. Returns
 * {points/sec, error-sequence digest}.
 */
std::pair<double, std::string>
timeHarnessPoints(bool decode, int runs)
{
    const LoopBench bench(100000);
    std::ostringstream digest;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < runs; ++r) {
        HarnessConfig cfg;
        cfg.processor = cpu::Processor::PentiumD;
        cfg.iface = Interface::Pc;
        cfg.pattern = AccessPattern::ReadRead;
        cfg.seed = static_cast<std::uint64_t>(r) + 1;
        cfg.decodeCache = decode;
        const auto m = HarnessSession(cfg, bench).run(cfg.seed);
        digest << m.error() << '/';
    }
    const double sec = secondsSince(t0);
    return {sec > 0 ? runs / sec : 0.0, digest.str()};
}

int
runInterpMode(const std::string &out_path)
{
    constexpr Count iters = 1000000;
    constexpr int reps = 5;
    constexpr int harnessRuns = 24;
    constexpr Count escapeIters = 20000;

    std::cout << "interp workload: " << iters << "-iteration loop x "
              << reps << " reps, engine {block, legacy} x ff {off, on}\n";

    // ff off first: those cells are the headline dispatch speedup.
    // Within one ff setting: block, legacy. The memory workload runs
    // interpreted only: fast-forward never folds it.
    std::vector<InterpCell> cells;
    for (const bool ff : {false, true})
        for (const bool decode : {true, false}) {
            InterpCell c;
            c.decode = decode;
            c.fastForward = ff;
            cells.push_back(c);
        }
    for (const bool decode : {true, false}) {
        InterpCell c;
        c.workload = InterpWorkload::Mem;
        c.decode = decode;
        cells.push_back(c);
    }

    // Calibrate each cell's batch so the timed region spans at least
    // minTimedSec: a single fast-forwarded run finishes in ~1-2 us,
    // far under the steady-clock resolution, and used to be reported
    // as "sec": 0.0000 with an instr/s number made of timer noise.
    constexpr double minTimedSec = 0.05;
    for (InterpCell &c : cells) {
        runLoopOnce(c, iters);
        const double perRun = c.secs.back();
        c.secs.clear();
        if (perRun * c.batch < minTimedSec) {
            const double want =
                minTimedSec / std::max(perRun, 1e-9);
            c.batch = static_cast<int>(
                std::min(want + 1.0, 1048576.0));
        }
    }

    for (int r = 0; r < reps; ++r)
        for (InterpCell &c : cells)
            runLoopOnce(c, iters);
    for (InterpCell &c : cells)
        c.aggregate();

    bool identical = true;
    for (const InterpCell &c : cells) {
        std::cout << padRight(c.workloadName(), 14)
                  << padRight(c.engineName(), 6) << " engine, ff "
                  << (c.fastForward ? "on " : "off") << " (batch "
                  << c.batch << "): " << fmtSec(c.sec)
                  << " s (min " << fmtSec(c.secMin) << ", max "
                  << fmtSec(c.secMax) << "), "
                  << fmtDouble(c.ips / 1e6, 2) << " M instr/s\n";
    }
    // The block engine must be invisible: compare digests within each
    // (workload, ff) pair, never across workloads or ff settings.
    for (std::size_t i = 0; i < cells.size(); i += 2) {
        if (cells[i].digest != cells[i + 1].digest) {
            std::cerr << "FATAL: the block engine changed "
                         "architectural state ("
                      << cells[i].workloadName() << ", ff "
                      << (cells[i].fastForward ? "on" : "off")
                      << ")\n";
            identical = false;
        }
    }
    if (!identical)
        return 1;

    // cells: [0]=block [1]=legacy (ff off), [2..3] ff on,
    // [4..5] memory loop.
    const auto ratio = [&cells](std::size_t fast, std::size_t slow) {
        return cells[slow].ips > 0 ? cells[fast].ips / cells[slow].ips
                                   : 0.0;
    };
    const double speedup = ratio(0, 1);
    const double speedupFf = ratio(2, 3);
    const double memSpeedup = ratio(4, 5);
    std::cout << "block-over-legacy speedup: "
              << fmtDouble(speedup, 2) << "x (interpreted), "
              << fmtDouble(speedupFf, 2) << "x (fast-forwarded), "
              << fmtDouble(memSpeedup, 2) << "x (memory loop)\n";

    // Per-reason escape counts: where the block engine hands over.
    const EscapeCounts esc = escapeCounts(escapeIters);
    std::cout << "block escapes (call+rdtsc loop, " << escapeIters
              << " iters): callret " << esc.callret << ", timeread "
              << esc.timeread << ", syscall " << esc.syscall
              << ", other " << esc.other << "\n";

    const auto [onPps, onDigest] = timeHarnessPoints(true, harnessRuns);
    const auto [offPps, offDigest] =
        timeHarnessPoints(false, harnessRuns);
    if (onDigest != offDigest) {
        std::cerr << "FATAL: the block engine changed measurement "
                     "errors\n";
        return 1;
    }
    const double harnessSpeedup = offPps > 0 ? onPps / offPps : 0.0;
    std::cout << "measurement points/sec: " << fmtDouble(onPps, 2)
              << " (block) vs " << fmtDouble(offPps, 2)
              << " (legacy), " << fmtDouble(harnessSpeedup, 2) << "x\n";

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    os << "{\n"
       << "  \"workload\": \"loop_sweep_interp\",\n"
       << "  \"loop_iters\": " << iters << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"hardware_threads\": " << hardwareThreads() << ",\n"
       << "  \"cells\": [\n";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const InterpCell &c = cells[i];
        os << "    {\"workload\": \"" << c.workloadName() << "\""
           << ", \"engine\": \"" << c.engineName() << "\""
           << ", \"decode\": " << (c.decode ? "true" : "false")
           << ", \"fast_forward\": "
           << (c.fastForward ? "true" : "false")
           << ", \"batch\": " << c.batch
           << ", \"sec\": " << fmtSec(c.sec)
           << ", \"sec_min\": " << fmtSec(c.secMin)
           << ", \"sec_max\": " << fmtSec(c.secMax)
           << ", \"instr\": " << c.instr
           << ", \"instr_per_sec\": " << fmtDouble(c.ips, 0) << "}"
           << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"decode_speedup\": " << fmtDouble(speedup, 3) << ",\n"
       << "  \"decode_speedup_ff\": " << fmtDouble(speedupFf, 3)
       << ",\n"
       << "  \"mem_decode_speedup\": " << fmtDouble(memSpeedup, 3)
       << ",\n"
       << "  \"escape_spcs\": {\"workload_iters\": " << escapeIters
       << ", \"callret\": " << esc.callret
       << ", \"timeread\": " << esc.timeread
       << ", \"syscall\": " << esc.syscall
       << ", \"other\": " << esc.other << "},\n"
       << "  \"harness_workload\": \"fig07_loop_interrupts\",\n"
       << "  \"harness_runs\": " << harnessRuns << ",\n"
       << "  \"harness_points_per_sec_on\": " << fmtDouble(onPps, 2)
       << ",\n"
       << "  \"harness_points_per_sec_off\": "
       << fmtDouble(offPps, 2) << ",\n"
       << "  \"harness_decode_speedup\": "
       << fmtDouble(harnessSpeedup, 3) << ",\n"
       << "  \"outputs_identical\": true\n"
       << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}

/**
 * The pre-engine study loop, reproduced verbatim: a fresh machine,
 * fresh assembly, and fresh link for every single run, in point
 * order on one thread. This is the baseline the speedup is measured
 * against (and what runNullErrorStudy compiled to before the
 * parallel engine existed).
 */
core::DataTable
legacySerialNullStudy(const std::vector<core::FactorPoint> &points,
                      int runs_per_point, std::uint64_t seed)
{
    core::DataTable table({"processor", "interface", "pattern",
                           "mode", "opt", "nctrs", "tsc", "run"},
                          "error");
    const NullBench bench;
    std::uint64_t point_id = 0;
    for (const core::FactorPoint &p : points) {
        ++point_id;
        for (int r = 0; r < runs_per_point; ++r) {
            HarnessConfig cfg = p.toHarnessConfig(
                mixSeed(seed, point_id * 1000 +
                                  static_cast<std::uint64_t>(r)));
            const auto m = HarnessSession(cfg, bench).run(cfg.seed);
            table.add({cpu::processorCode(p.processor),
                       harness::interfaceCode(p.iface),
                       harness::patternName(p.pattern),
                       harness::countingModeName(p.mode),
                       "O" + std::to_string(p.optLevel),
                       std::to_string(p.numCounters),
                       p.tsc ? "on" : "off", std::to_string(r)},
                      static_cast<double>(m.error()));
        }
    }
    return table;
}

std::string
csvOf(const core::DataTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

int
runStudiesMode(const std::string &out_path)
{
    // The Figure 1 workload: the full §3 factor space.
    const auto points = core::FactorSpace()
                            .counterCounts({1, 2, 4, 18})
                            .tscSettings({true, false})
                            .generate();
    constexpr int runsPerPoint = 12; // keep in sync with fig01
    constexpr std::uint64_t seed = 20260704;
    const auto totalRuns = static_cast<double>(points.size()) *
                           static_cast<double>(runsPerPoint);

    std::cout << "study workload: " << points.size() << " points x "
              << runsPerPoint << " runs\n";

    const auto t0 = std::chrono::steady_clock::now();
    const auto legacy =
        legacySerialNullStudy(points, runsPerPoint, seed);
    const double serialSec = secondsSince(t0);
    std::cout << "serial (legacy, fresh runs): "
              << fmtDouble(serialSec, 2) << " s\n";

    obs::spcReset();
    obs::spcAttach("program_cache_hits,program_cache_misses,"
                   "machine_reboots,faults_injected,session_retries,"
                   "runs_reused,runs_executed");
    const int threads = defaultThreadCount();
    const auto t1 = std::chrono::steady_clock::now();
    const auto engine = core::runNullErrorStudy(
        points, runsPerPoint, seed, core::StudyObsOptions{});
    const double engineSec = secondsSince(t1);
    const double hits =
        static_cast<double>(obs::spcValue(obs::Spc::ProgramCacheHits));
    const double misses = static_cast<double>(
        obs::spcValue(obs::Spc::ProgramCacheMisses));
    const Count faultsInjected =
        obs::spcValue(obs::Spc::FaultsInjected);
    const Count sessionRetries =
        obs::spcValue(obs::Spc::SessionRetries);
    const Count runsReused = obs::spcValue(obs::Spc::RunsReused);
    const Count runsExecuted = obs::spcValue(obs::Spc::RunsExecuted);
    obs::spcReset();

    std::cout << "engine (" << threads << " thread"
              << (threads == 1 ? "" : "s") << "):          "
              << fmtDouble(engineSec, 2) << " s\n";

    // The engine must be invisible in the output — assert it here
    // too, not just in the test suite, so a benchmark run cannot
    // silently time a wrong-answer configuration.
    if (csvOf(legacy) != csvOf(engine)) {
        std::cerr << "FATAL: engine output differs from the legacy "
                     "serial path\n";
        return 1;
    }

    const double speedup =
        engineSec > 0 ? serialSec / engineSec : 0.0;
    const double hitRate =
        (hits + misses) > 0 ? hits / (hits + misses) : 0.0;
    std::cout << "speedup: " << fmtDouble(speedup, 2)
              << "x, session reuse rate: "
              << fmtDouble(100.0 * hitRate, 1) << "%, runs reused: "
              << runsReused << " of " << static_cast<Count>(hits)
              << " later runs\n";

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    os << "{\n"
       << "  \"workload\": \"fig01_null_error\",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"runs_per_point\": " << runsPerPoint << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"hardware_threads\": " << hardwareThreads() << ",\n"
       << "  \"serial_legacy_sec\": " << fmtDouble(serialSec, 4)
       << ",\n"
       << "  \"engine_sec\": " << fmtDouble(engineSec, 4) << ",\n"
       << "  \"serial_points_per_sec\": "
       << fmtDouble(totalRuns / serialSec, 2) << ",\n"
       << "  \"engine_points_per_sec\": "
       << fmtDouble(totalRuns / engineSec, 2) << ",\n"
       << "  \"speedup\": " << fmtDouble(speedup, 3) << ",\n"
       << "  \"cache_hits\": " << static_cast<Count>(hits) << ",\n"
       << "  \"cache_misses\": " << static_cast<Count>(misses)
       << ",\n"
       << "  \"cache_hit_rate\": " << fmtDouble(hitRate, 4) << ",\n"
       << "  \"fault_plan\": \""
       << kernel::FaultPlan::fromEnv().fingerprint() << "\",\n"
       << "  \"fault_plan_seed\": "
       << kernel::FaultPlan::fromEnv().seed << ",\n"
       << "  \"faults_injected\": " << faultsInjected << ",\n"
       << "  \"session_retries\": " << sessionRetries << ",\n"
       << "  \"runs_reused\": " << runsReused << ",\n"
       << "  \"runs_executed\": " << runsExecuted << ",\n"
       << "  \"outputs_identical\": true\n"
       << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}

// ---------------------------------------------------------------- //
// --chaos: fault-rate soak of the resilient study engine
// ---------------------------------------------------------------- //

struct ChaosStep
{
    double rate = 0.0;
    std::string plan;       //!< PCA_FAULTS spec for this step
    std::string fingerprint;
    std::size_t rows = 0;
    std::size_t degraded = 0;
    Count faultsInjected = 0;
    Count sessionRetries = 0;
    double sec = 0.0;
};

int
runChaosMode(const std::string &out_path)
{
    // A slice of the fig01 workload — enough factor points to hit
    // every interface and pattern, small enough to soak several
    // fault rates in seconds.
    const auto points = core::FactorSpace()
                            .counterCounts({1, 2})
                            .tscSettings({true})
                            .generate();
    constexpr int runsPerPoint = 4;
    constexpr std::uint64_t seed = 20260704;
    constexpr std::uint64_t faultSeed = 7;
    const double rates[] = {0.0, 0.01, 0.05, 0.2};

    std::cout << "chaos workload: " << points.size() << " points x "
              << runsPerPoint << " runs, fault rates {0, 0.01, "
                 "0.05, 0.2}\n";

    // Violated invariants don't abort the sweep: every step still
    // runs (so one report covers everything that is broken), but
    // each violation is counted and the exit status ends up nonzero.
    int violations = 0;
    const auto violation = [&](const std::string &what) {
        std::cerr << "FATAL: " << what << "\n";
        ++violations;
    };

    // Reference output: no fault plan at all. Every sweep step with
    // rate 0 must be byte-identical to this (inert plan == no plan).
    unsetenv("PCA_FAULTS");
    const std::string baseline = csvOf(core::runNullErrorStudy(
        points, runsPerPoint, seed, core::StudyObsOptions{}));

    std::vector<ChaosStep> steps;
    for (const double rate : rates) {
        ChaosStep step;
        step.rate = rate;
        step.plan = "seed=" + std::to_string(faultSeed) +
                    ",rate=" + fmtDouble(rate, 2) + ",width=48";
        setenv("PCA_FAULTS", step.plan.c_str(), 1);
        step.fingerprint =
            kernel::FaultPlan::fromEnv().fingerprint();

        obs::spcReset();
        obs::spcAttach("faults_injected,session_retries,"
                       "degraded_points");
        const auto t0 = std::chrono::steady_clock::now();
        const auto table = core::runNullErrorStudy(
            points, runsPerPoint, seed, core::StudyObsOptions{});
        step.sec = secondsSince(t0);
        step.rows = table.size();
        step.degraded = table.degradedCount();
        step.faultsInjected = obs::spcValue(obs::Spc::FaultsInjected);
        step.sessionRetries = obs::spcValue(obs::Spc::SessionRetries);
        obs::spcReset();

        // Determinism: the same plan and seed must reproduce the
        // same table bytes (the fault schedule is seeded, not timed).
        const std::string csv = csvOf(table);
        const auto replay = csvOf(core::runNullErrorStudy(
            points, runsPerPoint, seed, core::StudyObsOptions{}));
        if (csv != replay)
            violation("chaos output not deterministic at rate " +
                      fmtDouble(rate, 2));
        if (rate == 0.0 && csv != baseline)
            violation("rate-0 plan perturbed the study output");

        // Degradation must stay bounded: transient faults are
        // retried, so a run only degrades after failing all
        // 1 + maxRetries attempts. Half the table degrading means
        // the retry path is broken, not that faults were injected.
        if (step.degraded * 2 > step.rows)
            violation(std::to_string(step.degraded) + "/" +
                      std::to_string(step.rows) +
                      " rows degraded at rate " + fmtDouble(rate, 2));
        if (rate == 0.0 && step.degraded != 0)
            violation("degraded rows without faults");

        std::cout << "rate " << fmtDouble(rate, 2) << ": "
                  << step.rows << " rows, " << step.degraded
                  << " degraded, " << step.faultsInjected
                  << " faults injected, " << step.sessionRetries
                  << " retries, " << fmtDouble(step.sec, 2) << " s\n";
        steps.push_back(step);
    }
    unsetenv("PCA_FAULTS");

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    os << "{\n"
       << "  \"workload\": \"fig01_null_error_chaos\",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"runs_per_point\": " << runsPerPoint << ",\n"
       << "  \"threads\": " << defaultThreadCount() << ",\n"
       << "  \"fault_plan_seed\": " << faultSeed << ",\n"
       << "  \"steps\": [\n";
    for (std::size_t i = 0; i < steps.size(); ++i) {
        const ChaosStep &s = steps[i];
        os << "    {\"rate\": " << fmtDouble(s.rate, 2)
           << ", \"fault_plan\": \"" << s.fingerprint
           << "\", \"rows\": " << s.rows
           << ", \"degraded\": " << s.degraded
           << ", \"faults_injected\": " << s.faultsInjected
           << ", \"session_retries\": " << s.sessionRetries
           << ", \"sec\": " << fmtDouble(s.sec, 4) << "}"
           << (i + 1 < steps.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"violations\": " << violations << ",\n"
       << "  \"completed\": true\n"
       << "}\n";
    std::cout << "wrote " << out_path << "\n";
    if (violations != 0)
        std::cerr << violations << " invariant violation"
                  << (violations == 1 ? "" : "s") << "\n";
    return violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- //
// --soak: resilience soak — hangs, deadlines, checkpoints, resume
// ---------------------------------------------------------------- //

/**
 * Simulate a crash: rewrite @p path keeping the header and the first
 * half of its records, the last of them torn mid-line. Returns the
 * number of records kept intact.
 */
std::size_t
truncateCheckpoint(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    for (std::string l; std::getline(in, l);)
        lines.push_back(l);
    in.close();
    if (lines.size() < 4)
        return lines.empty() ? 0 : lines.size() - 1;
    const std::size_t keep = 1 + (lines.size() - 1) / 2;
    std::ofstream out(path, std::ios::trunc);
    for (std::size_t i = 0; i < keep; ++i)
        out << lines[i] << "\n";
    // One torn line on top, as a mid-record SIGKILL would leave.
    out << lines[keep].substr(0, lines[keep].size() / 2);
    return keep - 1;
}

int
runSoakMode(const std::string &out_path)
{
    // The chaos slice, under a plan that adds hangs: reads can wedge
    // in an infinite kernel loop, and only the watchdog budget gets
    // them back. Every hang must surface as a retried
    // DeadlineExceeded — never a stuck study.
    const auto points = core::FactorSpace()
                            .counterCounts({1, 2})
                            .tscSettings({true})
                            .generate();
    constexpr int runsPerPoint = 4;
    constexpr std::uint64_t seed = 20260704;
    const std::string plan =
        "seed=7,rate=0.02,hang=0.05,budget=2000000,width=48";

    int violations = 0;
    const auto violation = [&](const std::string &what) {
        std::cerr << "FATAL: " << what << "\n";
        ++violations;
    };
    std::cout << "soak workload: " << points.size() << " points x "
              << runsPerPoint << " runs, plan \"" << plan << "\"\n";

    const std::string ckpt = out_path + ".ckpt.jsonl";
    std::remove(ckpt.c_str());
    const char *old_threads = std::getenv("PCA_THREADS");
    const std::string saved_threads =
        old_threads ? old_threads : "";
    unsetenv("PCA_CHECKPOINT");
    setenv("PCA_FAULTS", plan.c_str(), 1);
    const auto runStudy = [&] {
        return core::runNullErrorStudy(points, runsPerPoint, seed,
                                       core::StudyObsOptions{});
    };

    // 1. Baseline under the hang plan. The study must terminate
    // (watchdog, not wall-clock luck), complete >= 99% of its rows,
    // and actually exercise the deadline path.
    obs::spcReset();
    obs::spcAttach("runs_executed,session_retries,"
                   "deadline_exceeded_runs,retry_backoff_cycles,"
                   "faults_injected,points_quarantined");
    const auto t0 = std::chrono::steady_clock::now();
    const auto table = runStudy();
    const double baselineSec = secondsSince(t0);
    const Count fullRuns = obs::spcValue(obs::Spc::RunsExecuted);
    const Count retries = obs::spcValue(obs::Spc::SessionRetries);
    const Count deadlines =
        obs::spcValue(obs::Spc::DeadlineExceededRuns);
    const Count backoffCycles =
        obs::spcValue(obs::Spc::RetryBackoffCycles);
    const Count faultsInjected =
        obs::spcValue(obs::Spc::FaultsInjected);
    obs::spcReset();

    const std::string baseline = csvOf(table);
    const std::size_t rows = table.size();
    const std::size_t degraded = table.degradedCount();
    const double completion = rows == 0
        ? 1.0
        : 1.0 - static_cast<double>(degraded) /
                    static_cast<double>(rows);
    std::cout << "baseline: " << rows << " rows, " << degraded
              << " degraded, " << deadlines << " deadline runs, "
              << retries << " retries, "
              << fmtDouble(baselineSec, 2) << " s\n";
    if (completion < 0.99)
        violation("completion rate " + fmtDouble(completion, 4) +
                  " below 0.99");
    if (deadlines == 0)
        violation("hang plan fired no deadline_exceeded runs");

    // 2. Determinism: hang recovery is seeded virtual time, so a
    // replay must reproduce the table bytes.
    if (csvOf(runStudy()) != baseline)
        violation("soak output not deterministic");

    // 3. Checkpointing must be invisible: a fresh checkpointed run
    // emits the same bytes while recording every point.
    setenv("PCA_CHECKPOINT", ckpt.c_str(), 1);
    if (csvOf(runStudy()) != baseline)
        violation("checkpointed run diverged from baseline");

    // 4. Crash the checkpoint (drop half the records, tear the next
    // line) and resume single-threaded: byte-identical output again,
    // from measurably less work than a full rerun.
    const std::size_t kept = truncateCheckpoint(ckpt);
    setenv("PCA_THREADS", "1", 1);
    obs::spcReset();
    obs::spcAttach("runs_executed,checkpoint_points_resumed");
    const std::string resumed = csvOf(runStudy());
    const Count resumeRuns = obs::spcValue(obs::Spc::RunsExecuted);
    const Count pointsResumed =
        obs::spcValue(obs::Spc::CheckpointPointsResumed);
    obs::spcReset();
    if (saved_threads.empty())
        unsetenv("PCA_THREADS");
    else
        setenv("PCA_THREADS", saved_threads.c_str(), 1);
    std::cout << "resume: " << pointsResumed << " points from the "
              << "truncated checkpoint (" << kept << " kept), "
              << resumeRuns << "/" << fullRuns << " runs re-run\n";
    const bool resumeFidelity = resumed == baseline;
    if (!resumeFidelity)
        violation("resumed run diverged from baseline");
    if (pointsResumed != kept)
        violation("resumed " + std::to_string(pointsResumed) +
                  " points, expected " + std::to_string(kept));
    if (kept > 0 && resumeRuns >= fullRuns)
        violation("resume re-measured everything (no work saved)");

    // 5. Cooperative cancellation: a pending cancel drains cleanly
    // as a typed Cancelled error, and the checkpoint left behind
    // resumes to the same bytes.
    std::remove(ckpt.c_str());
    requestCancel();
    bool cancelled = false;
    try {
        runStudy();
    } catch (const StatusError &e) {
        cancelled = e.status().code() == StatusCode::Cancelled;
    }
    clearCancel();
    if (!cancelled)
        violation("cancellation did not surface as Cancelled");
    if (csvOf(runStudy()) != baseline)
        violation("post-cancel resume diverged from baseline");

    unsetenv("PCA_CHECKPOINT");
    unsetenv("PCA_FAULTS");
    std::remove(ckpt.c_str());

    // Every failed attempt either earned a retry or ended in a
    // degraded row; the recovery rate is the share the retry layer
    // absorbed. Wasted work is the extra attempts relative to all
    // attempts executed.
    const double failedAttempts =
        static_cast<double>(retries) + static_cast<double>(degraded);
    const double recoveryRate = failedAttempts == 0
        ? 1.0
        : static_cast<double>(retries) / failedAttempts;
    const double wastedWork = fullRuns == 0
        ? 0.0
        : static_cast<double>(retries) /
            static_cast<double>(fullRuns);

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    os << "{\n"
       << "  \"workload\": \"fig01_null_error_soak\",\n"
       << "  \"fault_plan\": \"" << plan << "\",\n"
       << "  \"points\": " << points.size() << ",\n"
       << "  \"runs_per_point\": " << runsPerPoint << ",\n"
       << "  \"threads\": " << defaultThreadCount() << ",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"degraded\": " << degraded << ",\n"
       << "  \"completion_rate\": " << fmtDouble(completion, 6)
       << ",\n"
       << "  \"deadline_exceeded_runs\": " << deadlines << ",\n"
       << "  \"faults_injected\": " << faultsInjected << ",\n"
       << "  \"session_retries\": " << retries << ",\n"
       << "  \"retry_backoff_cycles\": " << backoffCycles << ",\n"
       << "  \"runs_executed\": " << fullRuns << ",\n"
       << "  \"resume_runs_executed\": " << resumeRuns << ",\n"
       << "  \"checkpoint_points_resumed\": " << pointsResumed
       << ",\n"
       << "  \"recovery_rate\": " << fmtDouble(recoveryRate, 6)
       << ",\n"
       << "  \"wasted_work_fraction\": " << fmtDouble(wastedWork, 6)
       << ",\n"
       << "  \"resume_fidelity\": "
       << (resumeFidelity ? "true" : "false") << ",\n"
       << "  \"baseline_sec\": " << fmtDouble(baselineSec, 4)
       << ",\n"
       << "  \"violations\": " << violations << "\n"
       << "}\n";
    std::cout << "wrote " << out_path << "\n";
    if (violations != 0)
        std::cerr << violations << " invariant violation"
                  << (violations == 1 ? "" : "s") << "\n";
    return violations == 0 ? 0 : 1;
}

// ---------------------------------------------------------------- //
// --counters / --watch: SPC snapshot dump and live reader
// ---------------------------------------------------------------- //

/**
 * Print one snapshot, all counters (zeros included: the point of the
 * dump is the full name space, not just the hot ones).
 */
void
printSnapshot(const obs::SpcSnapshot &snap)
{
    std::cout << "seq " << snap.seq << ", publishes "
              << snap.publishes << "\n";
    for (const auto &[name, value] : snap.counters)
        std::cout << "  " << padRight(name, 28) << value << "\n";
}

/**
 * Attach every SPC, run a small profiled workload so the dump shows
 * live values, then round-trip the counters through the snapshot
 * file format and print what the *reader* saw — the same torn-read
 * safe path `--watch` uses against a foreign process.
 */
int
runCountersMode(const std::string &snap_path)
{
    obs::spcReset();
    obs::spcAttach("all");

    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pc;
    // Fast ticks so the sampling-profiler counters are non-zero on
    // this sub-millisecond workload.
    cfg.timerPeriodOverride = 9973;
    cfg.profile.enabled = true;
    cfg.profile.skidInstrs = 2;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, 200000)
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    {
        obs::SpcSnapshotWriter writer(snap_path, obs::numSpcs);
        writer.publish();
    }
    obs::SpcSnapshotReader reader;
    if (Status s = reader.open(snap_path); !s.ok()) {
        std::cerr << "cannot open snapshot: " << s.message() << "\n";
        return 1;
    }
    StatusOr<obs::SpcSnapshot> snap = reader.read();
    if (!snap.ok()) {
        std::cerr << "cannot read snapshot: "
                  << snap.status().message() << "\n";
        return 1;
    }
    std::cout << "SPC counters (" << snap_path << "):\n";
    printSnapshot(*snap);
    std::remove(snap_path.c_str());
    return 0;
}

/**
 * Follow a live snapshot file (a process started with
 * PCA_SPC_SNAPSHOT=<file> keeps publishing into it), printing each
 * new publish. max_polls < 0 polls forever. With a finite poll
 * count, exits 1 unless it read at least two snapshots and saw the
 * publish sequence number grow: a watcher that saw nothing, or a
 * writer that stood still, fails.
 */
int
runWatchMode(const std::string &path, long max_polls)
{
    // A reader maps the file once; keep re-trying the open until the
    // publishing process has created it, then poll the mapping.
    auto reader = std::make_unique<obs::SpcSnapshotReader>();
    bool opened = false;
    std::uint64_t first_seq = 0;
    std::uint64_t last_seq = ~std::uint64_t{0};
    long reads = 0;
    long polls = 0;
    while (max_polls < 0 || polls < max_polls) {
        ++polls;
        if (!opened) {
            reader = std::make_unique<obs::SpcSnapshotReader>();
            if (Status s = reader->open(path); s.ok()) {
                opened = true;
            } else {
                std::cerr << "waiting for " << path << ": "
                          << s.message() << "\n";
            }
        }
        if (opened) {
            if (StatusOr<obs::SpcSnapshot> snap = reader->read();
                snap.ok()) {
                if (reads++ == 0)
                    first_seq = snap->seq;
                if (snap->seq != last_seq) {
                    last_seq = snap->seq;
                    printSnapshot(*snap);
                }
            } else {
                std::cerr << "read failed: "
                          << snap.status().message() << "\n";
            }
        }
        if (max_polls < 0 || polls < max_polls)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(500));
    }
    if (reads < 2 || last_seq <= first_seq) {
        std::cerr << "watch: " << reads << " snapshot read(s) of "
                  << path << " in " << polls
                  << " polls; need two or more with a growing seq\n";
        return 1;
    }
    return 0;
}

// ---------------------------------------------------------------- //
// --e2e: per-exhibit wall-time ledger
// ---------------------------------------------------------------- //

/** The exhibits that regenerate the paper's figures and tables. */
const char *const e2eExhibits[] = {
    "ext_profiler_bias", "ext_sampling", "fig01_error_overview",
    "dump_datasets", "fig06_tab03_infrastructure", "sec43_anova",
    "ext_multiplexing", "ext_perf_event", "fig04_tsc_effect",
    "fig05_num_counters", "fig07_uk_slopes", "fig08_user_slopes",
    "fig09_kernel_by_loopsize", "fig10_cycles_scatter",
    "fig11_bimodal_cycles", "fig12_pattern_opt", "relwork_korn",
    "relwork_moore", "relwork_perfex", "sec8_guidelines",
    "tab01_processors",
};
constexpr int e2eReps = 3;

/** First line of @p cmd's stdout, or "unknown". */
std::string
commandLine(const std::string &cmd)
{
    std::string out;
    if (FILE *p = popen((cmd + " 2>/dev/null").c_str(), "r")) {
        char buf[256];
        if (std::fgets(buf, sizeof buf, p))
            out = buf;
        pclose(p);
    }
    while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
        out.pop_back();
    return out.empty() ? "unknown" : out;
}

/** One timed build tree: its exhibits and where they came from. */
struct E2eTree
{
    fs::path dir;
    std::string commit, buildType, compiler;
    /** seconds[exhibit][thread setting][rep] */
    std::vector<std::vector<std::vector<double>>> seconds;
};

/** Stamp @p t from the CMake cache of the build that holds it. */
void
stampTree(E2eTree &t)
{
    std::map<std::string, std::string> cache;
    std::ifstream is(t.dir.parent_path() / "CMakeCache.txt");
    for (std::string line; std::getline(is, line);) {
        const auto colon = line.find(':');
        const auto eq = line.find('=');
        if (colon != std::string::npos && eq != std::string::npos &&
            colon < eq)
            cache[line.substr(0, colon)] = line.substr(eq + 1);
    }
    t.buildType = t.compiler = t.commit = "unknown";
    if (cache.empty())
        return;
    const std::string &type = cache["CMAKE_BUILD_TYPE"];
    t.buildType = type.empty() ? "default (RelWithDebInfo)" : type;
    if (!cache["CMAKE_CXX_COMPILER"].empty())
        t.compiler =
            commandLine("'" + cache["CMAKE_CXX_COMPILER"] + "' --version");
    if (!cache["CMAKE_HOME_DIRECTORY"].empty())
        t.commit = commandLine("git -C '" + cache["CMAKE_HOME_DIRECTORY"] +
                               "' describe --always --dirty");
}

/**
 * Run @p exe with PCA_THREADS=@p threads in a fresh temporary
 * directory, output discarded; returns its wall seconds, or a
 * negative value when it did not exit 0.
 */
double
timeExhibit(const fs::path &exe, int threads)
{
    std::string tmpl =
        (fs::temp_directory_path() / "pca_e2e_XXXXXX").string();
    if (!mkdtemp(tmpl.data()))
        return -1;
    const std::string nthreads = std::to_string(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const pid_t pid = fork();
    if (pid == 0) {
        const int null = open("/dev/null", O_WRONLY);
        if (chdir(tmpl.c_str()) != 0 || null < 0)
            _exit(127);
        dup2(null, 1);
        dup2(null, 2);
        setenv("PCA_THREADS", nthreads.c_str(), 1);
        execl(exe.c_str(), exe.c_str(), static_cast<char *>(nullptr));
        _exit(127);
    }
    int status = -1;
    if (pid > 0)
        waitpid(pid, &status, 0);
    const double sec = secondsSince(t0);
    std::error_code ec;
    fs::remove_all(tmpl, ec);
    return pid > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0
        ? sec
        : -1;
}

/** Median, min and max of @p v as one JSON object. */
std::string
spreadJson(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return "{\"median_s\": " + fmtDouble(v[v.size() / 2], 4) +
        ", \"min_s\": " + fmtDouble(v.front(), 4) +
        ", \"max_s\": " + fmtDouble(v.back(), 4) + "}";
}

int
runE2eMode(const std::string &out_path, std::vector<fs::path> dirs)
{
    if (dirs.empty())
        dirs.push_back(fs::canonical("/proc/self/exe").parent_path());
    std::vector<int> threads = {1};
    if (hardwareThreads() > 1)
        threads.push_back(hardwareThreads());
    constexpr std::size_t numExhibits = std::size(e2eExhibits);

    std::vector<E2eTree> trees;
    for (const fs::path &d : dirs) {
        E2eTree t;
        t.dir = fs::absolute(d);
        stampTree(t);
        t.seconds.assign(numExhibits,
                         std::vector<std::vector<double>>(threads.size()));
        trees.push_back(std::move(t));
        std::cout << "tree " << trees.back().dir.string() << ": "
                  << trees.back().commit << ", "
                  << trees.back().buildType << "\n";
    }

    // Interleave everything: each rep visits every exhibit at every
    // thread count in every tree, alternating the tree order, so
    // host drift spreads over all cells alike.
    for (int rep = 0; rep < e2eReps; ++rep)
        for (std::size_t e = 0; e < numExhibits; ++e)
            for (std::size_t ti = 0; ti < threads.size(); ++ti)
                for (std::size_t k = 0; k < trees.size(); ++k) {
                    E2eTree &t =
                        trees[(rep + e + ti) % 2 == 0
                                  ? k
                                  : trees.size() - 1 - k];
                    const double sec = timeExhibit(
                        t.dir / e2eExhibits[e], threads[ti]);
                    if (sec < 0) {
                        std::cerr << "FATAL: " << e2eExhibits[e]
                                  << " in " << t.dir.string()
                                  << " failed\n";
                        return 1;
                    }
                    t.seconds[e][ti].push_back(sec);
                }

    std::ofstream os(out_path);
    if (!os) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    os << "{\n"
       << "  \"hardware_threads\": " << hardwareThreads() << ",\n"
       << "  \"reps\": " << e2eReps << ",\n"
       << "  \"rows\": [\n";
    for (std::size_t k = 0; k < trees.size(); ++k) {
        const E2eTree &t = trees[k];
        os << "    {\n"
           << "      \"commit\": \"" << t.commit << "\",\n"
           << "      \"build_type\": \"" << t.buildType << "\",\n"
           << "      \"compiler\": \"" << t.compiler << "\",\n";
        std::vector<std::vector<double>> totals(threads.size());
        for (std::size_t ti = 0; ti < threads.size(); ++ti)
            for (int rep = 0; rep < e2eReps; ++rep) {
                double sum = 0;
                for (std::size_t e = 0; e < numExhibits; ++e)
                    sum += t.seconds[e][ti]
                                    [static_cast<std::size_t>(rep)];
                totals[ti].push_back(sum);
            }
        for (std::size_t ti = 0; ti < threads.size(); ++ti)
            os << "      \"all_t" << threads[ti]
               << "\": " << spreadJson(totals[ti]) << ",\n";
        os << "      \"exhibits\": {\n";
        for (std::size_t e = 0; e < numExhibits; ++e) {
            os << "        \"" << e2eExhibits[e] << "\": {";
            for (std::size_t ti = 0; ti < threads.size(); ++ti)
                os << (ti ? ", " : "") << "\"t" << threads[ti]
                   << "\": " << spreadJson(t.seconds[e][ti]);
            os << "}" << (e + 1 < numExhibits ? "," : "") << "\n";
        }
        os << "      }\n"
           << "    }" << (k + 1 < trees.size() ? "," : "") << "\n";
        for (std::size_t ti = 0; ti < threads.size(); ++ti)
            std::cout << t.commit << ", all exhibits at "
                      << threads[ti] << " thread(s): "
                      << spreadJson(totals[ti]) << "\n";
    }
    os << "  ]\n}\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--studies") == 0) {
            const std::string out = i + 1 < argc
                ? argv[i + 1]
                : "BENCH_studies.json";
            return runStudiesMode(out);
        }
        if (std::strcmp(argv[i], "--interp") == 0) {
            const std::string out = i + 1 < argc
                ? argv[i + 1]
                : "BENCH_interpreter.json";
            return runInterpMode(out);
        }
        if (std::strcmp(argv[i], "--chaos") == 0) {
            const std::string out = i + 1 < argc
                ? argv[i + 1]
                : "BENCH_chaos.json";
            return runChaosMode(out);
        }
        if (std::strcmp(argv[i], "--soak") == 0) {
            const std::string out = i + 1 < argc
                ? argv[i + 1]
                : "BENCH_resilience.json";
            return runSoakMode(out);
        }
        if (std::strcmp(argv[i], "--e2e") == 0) {
            const std::string out = i + 1 < argc
                ? argv[i + 1]
                : "BENCH_e2e.json";
            return runE2eMode(out, std::vector<fs::path>(
                                       argv + std::min(i + 2, argc),
                                       argv + argc));
        }
        if (std::strcmp(argv[i], "--counters") == 0) {
            const std::string snap = i + 1 < argc
                ? argv[i + 1]
                : "spc_snapshot.bin";
            return runCountersMode(snap);
        }
        if (std::strcmp(argv[i], "--watch") == 0) {
            if (i + 1 >= argc) {
                std::cerr << "--watch needs a snapshot file "
                             "(publish one with "
                             "PCA_SPC_SNAPSHOT=<file>)\n";
                return 1;
            }
            const long polls = i + 2 < argc
                ? std::strtol(argv[i + 2], nullptr, 10)
                : -1;
            return runWatchMode(argv[i + 1], polls);
        }
    }
    std::cerr << "usage: " << argv[0]
              << " --studies|--interp|--chaos|--soak [output.json]\n"
                 "       "
              << argv[0]
              << " --e2e [output.json] [bench_dir ...]\n"
                 "       "
              << argv[0]
              << " --counters [file] | --watch <file> [polls]\n";
    return 2;
}
