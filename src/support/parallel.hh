/**
 * @file
 * Deterministic work partitioning for the study sweeps: a small
 * fork-join helper that fans an index range out over PCA_THREADS
 * workers with atomic index claiming. Callers write results into
 * pre-sized per-index slots and merge them in index order, so the
 * output is byte-identical no matter how the indices land on
 * workers (the "parallelism is invisible" guarantee the tests and
 * CI enforce).
 *
 * Cooperative cancellation: requestCancel() (called from a signal
 * handler, another thread, or a worker itself) makes every running
 * and future parallelFor stop claiming new indices, drain in-flight
 * items, join its workers, and throw StatusError(Cancelled) on the
 * calling thread — so a SIGINT or a fatal error unwinds through the
 * study engine with all per-item side effects (e.g. checkpoint
 * records) intact.
 */

#ifndef PCA_SUPPORT_PARALLEL_HH
#define PCA_SUPPORT_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace pca
{

/** std::thread::hardware_concurrency with a floor of 1. */
int hardwareThreads();

/**
 * Worker count for study sweeps: PCA_THREADS when set (clamped to
 * [1, 256]; unparsable values warn and fall back), otherwise the
 * hardware concurrency. Read from the environment on every call so
 * tests can flip it between sweeps.
 */
int defaultThreadCount();

/**
 * Ask every running (and future) parallelFor to stop claiming work.
 * Async-signal-safe (one relaxed atomic store): callable straight
 * from a SIGINT handler. Sticky until clearCancel().
 */
void requestCancel();

/** Has requestCancel() been called since the last clearCancel()? */
bool cancelRequested();

/** Re-arm after a handled cancellation (tests, REPL-style drivers). */
void clearCancel();

/**
 * Install a SIGINT handler that calls requestCancel(), once per
 * process. The first interrupt cancels cooperatively (drain, flush,
 * clean exit); a second interrupt restores the default disposition,
 * so a stuck process can still be killed interactively.
 */
void installSigintCancel();

/**
 * Run fn(index) for every index in [0, n).
 *
 * @param n        number of work items
 * @param threads  worker count; <= 0 means defaultThreadCount()
 * @param fn       receives the item index
 *
 * With one worker (or n <= 1) everything runs inline on the calling
 * thread as a plain loop, in index order — exactly today's serial
 * behavior. With more, workers claim indices from a shared atomic
 * cursor, so each index runs exactly once, on exactly one worker.
 * Indices are claimed in ascending order but may complete out of
 * order; any fn() may run concurrently with any other.
 *
 * If fn throws, every worker's error is captured (each worker stops
 * at its first), remaining unclaimed indices are abandoned, and all
 * workers are joined. The exception of the lowest-index failing item
 * is rethrown on the calling thread (deterministic: that index is
 * always claimed and run before abandonment kicks in); the other
 * workers' errors are reported through the log sink and counted in
 * the parallel_worker_errors SPC — a worker failure can never
 * terminate the process via an unhandled exception on a worker
 * thread, and never silently vanishes.
 *
 * If cancellation is requested (requestCancel()), workers stop
 * claiming new indices, in-flight items finish, and — when no item
 * error takes precedence — StatusError(StatusCode::Cancelled) is
 * thrown after the join.
 */
void parallelFor(std::size_t n,
                 const std::function<void(std::size_t)> &fn,
                 int threads = 0);

} // namespace pca

#endif // PCA_SUPPORT_PARALLEL_HH
