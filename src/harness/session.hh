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
 * HarnessSession(cfg, bench).run(cfg.seed).
 *
 * measurePoint() is the one per-point loop: it builds a session,
 * runs the point's seeds on it, and drops it — the paper's one
 * executable per factor combination, run repeatedly. A session is
 * not thread-safe; the parallel study engine gives each point to
 * exactly one worker.
 */

#ifndef PCA_HARNESS_SESSION_HH
#define PCA_HARNESS_SESSION_HH

#include <cstdint>
#include <functional>
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
 * Result reuse: the session keeps its first successful run that took
 * no interrupt (PMIs included) as its reference. A later run whose
 * freshly rebooted machine cannot reach the reference's cycles
 * (Machine::seedHorizon: no fault injector, no profiler, and no
 * interrupt due at or before the reference's last cycle) would
 * follow the same interrupt-free trajectory, so it returns a copy of
 * the reference instead of executing (runs_reused SPC). A later run
 * that executes although no injector or profiler forbids reuse counts
 * in runs_reuse_blocked_irq. The reference never leaves the session.
 */
class HarnessSession
{
  public:
    /**
     * Validate @p cfg, then boot the machine and build the program.
     * A pattern the interface lacks or more counters than the
     * processor has is fatal before anything boots.
     */
    HarnessSession(const HarnessConfig &cfg,
                   const MicroBenchmark &bench);

    HarnessSession(const HarnessSession &) = delete;
    HarnessSession &operator=(const HarnessSession &) = delete;

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
     * tryRun with a retry budget: each retry must claim a token from
     * @p budget (null = unlimited) before proceeding; a denied claim
     * fails the run immediately with a "retry budget exhausted"
     * status — the quarantine path for points that burned their
     * allowance.
     */
    StatusOr<Measurement> tryRun(std::uint64_t seed,
                                 RetryBudget *budget);

    /** Total virtual backoff charged by retries so far. */
    Cycles backoffCycles() const { return backoff; }

  private:
    HarnessConfig cfg;
    Machine machine;
    CaptureSink s0, s1;
    Count expected = 0;
    Cycles backoff = 0;
    bool attempted = false; //!< a run was attempted already
    std::optional<Measurement> reference;
};

/**
 * The shared per-point measurement loop: @p runs seeded runs of
 * @p bench at @p cfg on one HarnessSession, built for the point and
 * dropped when it returns. seed_for(r) supplies run r's machine seed
 * (studies and bench drivers differ only in that derivation).
 * Results are in run order; a run that still fails after the
 * session's transient-fault retries occupies its slot as an error
 * Status (with an inert fault plan every slot is ok()). The build
 * counts once in program_cache_misses and every later run once in
 * program_cache_hits.
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

} // namespace pca::harness

#endif // PCA_HARNESS_SESSION_HH
