/**
 * @file
 * Retry policy and budgets for transient-fault recovery.
 *
 * nanoBench-style harnesses survive flaky counter infrastructure
 * with retry-and-discard: a failed measurement is thrown away
 * wholesale and re-attempted from a clean state. A RetryPolicy names
 * how much of that a study may do — attempts per run, exponential
 * backoff in *virtual* time (accounted, never slept: every attempt
 * reboots the machine, so outcomes stay a pure function of
 * (config, seed)), and retry budgets per point and per study. A
 * RetryBudget is the enforcement object: a thread-safe token pool
 * whose exhaustion quarantines the point instead of sinking the
 * study.
 */

#ifndef PCA_SUPPORT_RETRY_HH
#define PCA_SUPPORT_RETRY_HH

#include <atomic>
#include <cstddef>
#include <string>

#include "support/types.hh"

namespace pca
{

/**
 * How a session spends retries on transient faults. Defaults match
 * the pre-policy behavior exactly: 3 retries per run, unlimited
 * budgets. All backoff is virtual time: it feeds the
 * retry_backoff_cycles SPC and the session's accounting, but no
 * wall-clock sleep and no simulated-machine cycles — the fault model
 * charges what a real harness would wait without perturbing the
 * deterministic measurement stream.
 */
struct RetryPolicy
{
    /** Transient-fault retries per run (attempts = 1 + retries). */
    int retries = 3;

    /** Virtual cycles charged before the first retry. */
    Cycles backoffBase = 10000;

    /** Exponential backoff ceiling (doubling caps here). */
    Cycles backoffCap = 10'000'000;

    /**
     * Retries one factor point may spend across all its runs;
     * negative means unlimited. Exhaustion quarantines the point:
     * remaining failures degrade immediately instead of retrying.
     */
    long perPointBudget = -1;

    /**
     * Retries a whole study may spend; negative means unlimited.
     * Enforced deterministically: the budget is pre-partitioned
     * across points by pointShare(), so the outcome cannot depend on
     * which worker thread claims a point first.
     */
    long perStudyBudget = -1;

    /** All fields at their defaults? (Fingerprint shortcut.) */
    bool isDefault() const;

    bool operator==(const RetryPolicy &) const = default;

    /**
     * Virtual backoff before retry @p attempt (1-based): base
     * doubled per prior retry, capped at backoffCap.
     */
    Cycles backoffFor(int attempt) const;

    /**
     * Deterministic split of a per-study budget of @p study_budget
     * retries over @p points points: point @p index gets
     * floor(B/points) plus one of the B%points remainder tokens.
     * Negative budgets (unlimited) return -1. The shares sum to the
     * budget and depend only on (budget, points, index) — never on
     * scheduling — which is what keeps a binding study budget
     * compatible with the byte-identical-at-any-thread-count
     * contract.
     */
    static long pointShare(long study_budget, std::size_t points,
                           std::size_t index);

    /**
     * The retry budget point @p index of @p points gets under this
     * policy: the tighter of perPointBudget and its pointShare of
     * perStudyBudget (-1 = unlimited).
     */
    long effectivePointBudget(std::size_t points,
                              std::size_t index) const;

    /** Stable identity string ("r3,b10000,c10000000,p-1,s-1"). */
    std::string fingerprint() const;
};

/**
 * A thread-safe pool of retry tokens. Constructed with a limit
 * (negative = unlimited, the default); tryTake() claims one token
 * and reports whether the retry may proceed. Denials are counted so
 * callers can tell "ran out" from "never limited".
 */
class RetryBudget
{
  public:
    explicit RetryBudget(long limit = -1)
        : left(limit < 0 ? 0 : limit), unlimited(limit < 0)
    {
    }

    /** Claim one retry token; false once the budget is exhausted. */
    bool
    tryTake()
    {
        if (unlimited)
            return true;
        long cur = left.load(std::memory_order_relaxed);
        while (cur > 0) {
            if (left.compare_exchange_weak(cur, cur - 1,
                                           std::memory_order_relaxed))
                return true;
        }
        denials.fetch_add(1, std::memory_order_relaxed);
        return false;
    }

    /** Is the pool limited at all? */
    bool limited() const { return !unlimited; }

    /** Tokens still available (0 when unlimited: never consulted). */
    long remaining() const
    {
        return left.load(std::memory_order_relaxed);
    }

    /** tryTake() calls that were denied. */
    Count denied() const
    {
        return denials.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<long> left;
    std::atomic<Count> denials{0};
    bool unlimited;
};

} // namespace pca

#endif // PCA_SUPPORT_RETRY_HH
