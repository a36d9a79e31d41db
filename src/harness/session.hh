/**
 * @file
 * Reusable measurement sessions and the per-point run loop.
 *
 * A HarnessSession assembles and links the measurement program once
 * and replays runs by rebooting the machine (Machine::reboot: exact
 * power-on state, re-seeded stochastics), so every run after the
 * first skips harness assembly and linking (the kernel code is
 * emitted once per process: Kernel::boot). Most runs skip execution
 * too: a run no interrupt reaches is the same run for every seed, so
 * the session answers it from its first such run (result reuse, see
 * HarnessSession). A rebooted session's run is result-identical to a
 * fresh session's first run with the same seed (asserted by
 * tests/test_parallel.cc), so both kinds of reuse are invisible in
 * study output. A single measurement is one session and one run:
 * HarnessSession(cfg, bench).run().
 *
 * measurePoint() is the one per-point loop: it builds a session,
 * runs the point's seeds on it, and drops it — the paper's one
 * executable per factor combination, run repeatedly. The machine
 * under it outlives the session, as the paper's booted kernels
 * outlived each executable: a dropped session unloads its program
 * and leaves the machine idle for the next session of its kind on
 * the same thread (see HarnessSession). A session is not
 * thread-safe; the parallel study engine gives each point to exactly
 * one worker.
 */

#ifndef PCA_HARNESS_SESSION_HH
#define PCA_HARNESS_SESSION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "harness/harness.hh"
#include "support/retry.hh"

namespace pca::harness
{

/**
 * One assembled measurement program bound to one (rebootable)
 * machine. Build once, run many: each run() reboots the machine with
 * the given seed and executes the program from the top — setup,
 * pattern calls, benchmark, teardown — exactly as a freshly booted
 * machine would. The kernel text comes from the shared kernel image; only
 * the user program is the session's own. Sessions are pinned to one
 * address (the user program's host ops capture pointers into the
 * session), hence non-copyable and non-movable.
 *
 * Machine reuse: each thread keeps at most one idle machine. A
 * session takes it when the idle machine's MachineConfig equals its
 * own in every field but seed (sameMachine; machine_reuses SPC), and
 * boots a new machine otherwise, dropping the idle one first, so a
 * thread holds at most one machine more than it has live sessions.
 * The reused machine is exact because every executed run reboots it
 * with its own seed first, and reboot(s) leaves core, kernel,
 * modules, fault injector and profiler as a fresh boot at seed s
 * would; the program is the session's own. A destroyed session
 * unloads its program (its host ops point into the session) and
 * leaves the machine idle in its thread's slot.
 *
 * Result reuse: the session keeps its first successful run that took
 * no interrupt (PMIs included) as its reference. A later run whose
 * freshly rebooted machine cannot reach the reference's cycles
 * (Machine::seedHorizon: no fault injector, no profiler, and no
 * interrupt due at or before the reference's last cycle) would
 * follow the same interrupt-free trajectory, so it returns the
 * reference's reading instead of rebooting and executing (runs_reused
 * SPC; machine_reboots counts executed runs only). A later run
 * that executes although no injector or profiler forbids reuse counts
 * in runs_reuse_blocked_irq. The reference never leaves the session.
 *
 * A built session counts once in program_cache_misses, and each of
 * its later runs once in program_cache_hits.
 */
class HarnessSession
{
  public:
    /**
     * Validate @p cfg, then boot the machine and build the program.
     * A perf_event machine (usePerfEvent), a pattern the interface
     * lacks or more counters than the processor has is fatal before
     * anything boots.
     */
    HarnessSession(const HarnessConfig &cfg,
                   const MicroBenchmark &bench);

    HarnessSession(const HarnessSession &) = delete;
    HarnessSession &operator=(const HarnessSession &) = delete;

    /** Unload the program and leave the machine idle. */
    ~HarnessSession();

    /** Reboot with the config's seed and run the measurement once. */
    Measurement run();

    /** Reboot with @p seed and run the measurement once. */
    Measurement run(std::uint64_t seed);

    /**
     * Like run(), but failures surface as a Status. Transient
     * failures (Busy, Unavailable, DeadlineExceeded — injected
     * EBUSY, flaky reads, watchdog-killed hangs) are retried up to
     * the config's faults.retry.retries times, each attempt rebooting
     * with a fresh seed derived from @p seed — nanoBench's
     * retry-and-discard policy. Retries feed the session_retries SPC
     * and charge the policy's exponential backoff in virtual time
     * (retry_backoff_cycles SPC + backoffCycles(); never a sleep,
     * never simulated-machine cycles, so outcomes stay a pure
     * function of (config, benchmark, seed)). Non-transient failures
     * return immediately.
     */
    StatusOr<Measurement> tryRun(std::uint64_t seed);

    /**
     * tryRun with a retry budget, reporting the reading a session
     * counting in @p report would have taken.
     *
     * Each retry must claim a token from @p budget (null = unlimited)
     * before proceeding; a denied claim fails the run immediately
     * with a "retry budget exhausted" status — the quarantine path
     * for points that burned their allowance.
     *
     * A @p report other than the config's mode is derived
     * (readings_derived SPC). The PMU only observes: the counting
     * mode changes no instruction, cycle or interrupt of a run, only
     * what the counters add up. So a User+Kernel session answers
     * User and Kernel exactly from the mode x class split each read
     * latched: every value minus the excluded mode's rows, the
     * attribution from the included rows, and expected 0 for Kernel.
     * Deriving needs a User+Kernel session under an inert fault plan
     * (counter width and torn reads transform the values).
     */
    StatusOr<Measurement> tryRun(std::uint64_t seed, RetryBudget *budget,
                                 CountingMode report);

    /** Total virtual backoff charged by retries so far. */
    Cycles backoffCycles() const { return backoff; }

    const HarnessConfig &config() const { return cfg; }

  private:
    /** A run and its captures: what every reported mode derives from. */
    struct Capture
    {
        cpu::RunResult run;
        CaptureSink s0, s1;
    };

    /** @p c's reading in @p report mode (see tryRun). */
    Measurement reading(const Capture &c, CountingMode report) const;

    HarnessConfig cfg;
    std::unique_ptr<Machine> machine;
    Capture current; //!< the executing run's captures
    Count benchInstrs = 0; //!< the benchmark's analytical instructions
    Cycles backoff = 0;
    bool attempted = false; //!< a run was attempted already
    std::optional<Capture> reference;
};

/**
 * The shared per-point measurement loop: @p runs seeded runs of
 * @p bench at @p cfg on one HarnessSession, built for the point and
 * dropped when it returns. seed_for(r) supplies run r's machine seed
 * (studies and bench drivers differ only in that derivation).
 * Results are in run order; a run that still fails after the
 * session's transient-fault retries occupies its slot as an error
 * Status (with an inert fault plan every slot is ok()).
 *
 * All runs of the point share one RetryBudget limited to
 * @p retry_budget when given, else to
 * cfg.faults.retry.perPointBudget (the studies pass
 * RetryPolicy::effectivePointBudget, which also folds in the
 * deterministic per-study share). A point that exhausts its budget
 * is quarantined — counted in points_quarantined, its remaining
 * failed runs degrade without retrying — but never sinks the sweep.
 */
std::vector<StatusOr<Measurement>>
measurePoint(const HarnessConfig &cfg, const MicroBenchmark &bench,
             int runs,
             const std::function<std::uint64_t(int)> &seed_for,
             std::optional<long> retry_budget = std::nullopt);

/**
 * The same loop on a session built already, each run reported in
 * @p mode (HarnessSession::tryRun): how a study measures the points
 * that differ from the session's only in counting mode.
 */
std::vector<StatusOr<Measurement>>
measurePoint(HarnessSession &session, CountingMode mode, int runs,
             const std::function<std::uint64_t(int)> &seed_for,
             long retry_budget);

} // namespace pca::harness

#endif // PCA_HARNESS_SESSION_HH
