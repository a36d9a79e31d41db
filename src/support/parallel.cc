#include "support/parallel.hh"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/spc.hh"
#include "support/logging.hh"
#include "support/status.hh"

namespace pca
{

int
hardwareThreads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
}

int
defaultThreadCount()
{
    const char *spec = std::getenv("PCA_THREADS");
    if (!spec || !*spec)
        return hardwareThreads();
    if (std::strcmp(spec, "auto") == 0)
        return hardwareThreads();
    char *end = nullptr;
    const long v = std::strtol(spec, &end, 10);
    if (end == spec || *end != '\0' || v < 1) {
        pca_warn("PCA_THREADS: ignoring unparsable value '", spec,
                 "'");
        return hardwareThreads();
    }
    return v > 256 ? 256 : static_cast<int>(v);
}

namespace
{

std::atomic<bool> cancelFlag{false};

extern "C" void
sigintCancelHandler(int)
{
    // One relaxed lock-free store: async-signal-safe. A second ^C
    // falls through to the default disposition (see install below).
    cancelFlag.store(true, std::memory_order_relaxed);
    std::signal(SIGINT, SIG_DFL);
}

std::string
describeError(const std::exception_ptr &err)
{
    try {
        std::rethrow_exception(err);
    } catch (const std::exception &e) {
        return e.what();
    } catch (...) {
        return "(non-std exception)";
    }
}

} // namespace

void
requestCancel()
{
    cancelFlag.store(true, std::memory_order_relaxed);
}

bool
cancelRequested()
{
    return cancelFlag.load(std::memory_order_relaxed);
}

void
clearCancel()
{
    cancelFlag.store(false, std::memory_order_relaxed);
}

void
installSigintCancel()
{
    static std::once_flag once;
    std::call_once(once,
                   [] { std::signal(SIGINT, sigintCancelHandler); });
}

void
parallelFor(std::size_t n,
            const std::function<void(std::size_t)> &fn,
            int threads)
{
    if (threads <= 0)
        threads = defaultThreadCount();
    if (static_cast<std::size_t>(threads) > n)
        threads = n == 0 ? 1 : static_cast<int>(n);

    if (threads == 1) {
        for (std::size_t i = 0; i < n; ++i) {
            if (cancelRequested())
                throw StatusError(Status(
                    StatusCode::Cancelled,
                    "parallelFor cancelled after " +
                        std::to_string(i) + " of " +
                        std::to_string(n) + " items"));
            fn(i);
        }
        if (cancelRequested() && n > 0)
            throw StatusError(Status(StatusCode::Cancelled,
                                     "parallelFor cancelled after " +
                                         std::to_string(n) + " of " +
                                         std::to_string(n) +
                                         " items"));
        return;
    }

    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> failed{false};
    std::vector<std::pair<std::size_t, std::exception_ptr>> errors;
    std::mutex error_mu;

    auto work = [&] {
        while (!failed.load(std::memory_order_relaxed) &&
               !cancelRequested()) {
            const std::size_t i =
                cursor.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                // Capture every worker's error (each worker stops at
                // its first). The lowest-index one is rethrown after
                // the join: indices are claimed in ascending order,
                // so the lowest throwing index always runs, making
                // the rethrown exception independent of worker
                // timing. The rest are logged, not dropped.
                const std::lock_guard<std::mutex> lock(error_mu);
                errors.emplace_back(i, std::current_exception());
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(threads) - 1);
    for (int w = 1; w < threads; ++w)
        pool.emplace_back(work);
    work();
    for (std::thread &t : pool)
        t.join();

    if (!errors.empty()) {
        PCA_SPC_ADD(ParallelWorkerErrors,
                    static_cast<Count>(errors.size()));
        std::size_t lowest = 0;
        for (std::size_t e = 1; e < errors.size(); ++e)
            if (errors[e].first < errors[lowest].first)
                lowest = e;
        for (std::size_t e = 0; e < errors.size(); ++e) {
            if (e == lowest)
                continue;
            pca_warn("parallelFor: additional worker error at item ",
                     errors[e].first, ": ",
                     describeError(errors[e].second));
        }
        std::rethrow_exception(errors[lowest].second);
    }

    if (cancelRequested())
        throw StatusError(Status(
            StatusCode::Cancelled,
            "parallelFor cancelled (workers drained and joined)"));
}

} // namespace pca
