/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: banner
 * printing and paper-vs-measured comparison rows.
 */

#ifndef PCA_BENCH_BENCH_UTIL_HH
#define PCA_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>
#include <vector>

#include "harness/harness.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "obs/env.hh"
#include "stats/descriptive.hh"
#include "support/random.hh"
#include "support/strutil.hh"

namespace pca::bench
{

/**
 * Print the standard exhibit banner. Every bench main calls this
 * first, so it doubles as the hook that arms the observability layer
 * from PCA_SPC / PCA_TRACE (a no-op with both unset).
 */
inline void
banner(const std::string &exhibit, const std::string &caption)
{
    obs::initObservabilityFromEnv();
    std::cout << std::string(72, '=') << '\n'
              << exhibit << " — " << caption << '\n'
              << std::string(72, '=') << "\n\n";
}

/** Print a paper-vs-measured line. */
inline void
paperRef(const std::string &what, double paper, double measured,
         int digits = 1)
{
    std::cout << "  " << padRight(what, 44) << " paper "
              << padLeft(fmtDouble(paper, digits), 9)
              << "   measured "
              << padLeft(fmtDouble(measured, digits), 9) << '\n';
}

/**
 * Null-benchmark errors of @p runs runs of @p cfg, measured by
 * measurePoint() like a study point: run r takes the seed
 * mixSeed(@p seed, r). Runs that fail are left out.
 */
inline std::vector<double>
nullErrors(harness::HarnessConfig cfg, int runs,
           std::uint64_t seed = 12345)
{
    const harness::NullBench bench;
    std::vector<double> errs;
    errs.reserve(static_cast<std::size_t>(runs));
    for (const StatusOr<harness::Measurement> &m :
         harness::measurePoint(
             cfg, bench, runs, [seed](int r) {
                 return mixSeed(seed,
                                static_cast<std::uint64_t>(r));
             }))
        if (m.ok())
            errs.push_back(static_cast<double>(m->error()));
    return errs;
}

} // namespace pca::bench

#endif // PCA_BENCH_BENCH_UTIL_HH
