#include "core/guidelines.hh"

#include <algorithm>

#include "core/factor_space.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "stats/descriptive.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/status.hh"
#include "support/strutil.hh"
#include "support/table.hh"

namespace pca::core
{

using harness::AccessPattern;
using harness::Interface;

void
Recommendation::print(std::ostream &os) const
{
    os << "Recommended configuration:\n"
       << "  interface: " << harness::interfaceCode(best.iface)
       << "\n  pattern:   " << harness::patternName(best.pattern)
       << "\n  TSC:       " << (best.tsc ? "on" : "off")
       << "\n  expected error: median "
       << fmtDouble(best.medianError, 1) << ", min "
       << fmtDouble(best.minError, 1) << " instructions\n\n";

    TextTable t({"rank", "interface", "pattern", "tsc", "median",
                 "min"});
    int rank = 1;
    for (const auto &c : ranking) {
        t.addRow({std::to_string(rank++),
                  harness::interfaceCode(c.iface),
                  harness::patternName(c.pattern),
                  c.tsc ? "on" : "off", fmtDouble(c.medianError, 1),
                  fmtDouble(c.minError, 1)});
    }
    t.print(os);

    os << "\nGuidelines (paper §8):\n";
    for (const auto &n : notes)
        os << "  - " << n << '\n';
}

Guidelines::Guidelines(int calibration_runs, std::uint64_t seed)
    : runs(calibration_runs), seed(seed)
{
    pca_assert(runs >= 3);
    // Run r of candidate k takes seed index k·100 + r, so a candidate
    // may have at most 100 runs before it replays the next one's.
    constexpr int maxRuns = 100;
    if (runs > maxRuns)
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            detail::cat("guidelines: at most ", maxRuns,
                        " calibration runs (got ", runs,
                        "); more would repeat the next candidate's "
                        "seeds")));
}

Recommendation
Guidelines::recommend(const GuidelineQuery &query) const
{
    // Candidate interfaces under the query's constraints.
    std::vector<Interface> candidates;
    for (Interface i : harness::allInterfaces()) {
        if (query.requireHighLevel && !harness::isPapiHigh(i))
            continue;
        if (query.requirePapi && !harness::isPapiHigh(i) &&
            !harness::isPapiLow(i))
            continue;
        candidates.push_back(i);
    }
    pca_assert(!candidates.empty());

    FactorSpace space;
    space.processors({query.processor})
        .interfaces(candidates)
        .modes({query.mode})
        .optLevels({2})
        .counterCounts({std::max(1, query.countersNeeded)})
        .tscSettings({true, false});

    const harness::NullBench bench;
    Recommendation rec;
    std::uint64_t point_id = 0;
    for (const FactorPoint &p : space.generate()) {
        ++point_id;
        std::vector<double> errors;
        for (const StatusOr<harness::Measurement> &m :
             harness::measurePoint(
                 p.toHarnessConfig(seed), bench, runs, [&](int r) {
                     return mixSeed(seed,
                                    point_id * 100 +
                                        static_cast<std::uint64_t>(r));
                 }))
            errors.push_back(static_cast<double>(m.value().error()));
        RankedChoice c;
        c.iface = p.iface;
        c.pattern = p.pattern;
        c.tsc = p.tsc;
        c.medianError = stats::median(errors);
        c.minError = stats::minOf(errors);
        rec.ranking.push_back(c);
    }

    std::stable_sort(rec.ranking.begin(), rec.ranking.end(),
                     [](const RankedChoice &a, const RankedChoice &b) {
                         return a.medianError < b.medianError;
                     });
    rec.best = rec.ranking.front();

    // Qualitative advice from §8.
    rec.notes.push_back(
        "Pin the clock frequency (Linux: \"performance\" or "
        "\"powersave\" governor) before measuring; frequency "
        "scaling perturbs cycle-denominated metrics.");
    if (!harness::usesPerfmon(rec.best.iface)) {
        rec.notes.push_back(
            "Keep the TSC enabled with perfctr: disabling it forces "
            "reads through a syscall and *increases* the error "
            "(paper §4.1).");
    }
    rec.notes.push_back(
        "Lower-level APIs are only more accurate when used with the "
        "best pattern for the tool; the ranking above is measured, "
        "not assumed.");
    if (query.mode == harness::CountingMode::UserKernel) {
        rec.notes.push_back(
            "User+kernel counts grow with measurement duration "
            "(~0.001-0.003 instructions per loop iteration from "
            "interrupt handlers); subtract a duration-proportional "
            "baseline for long measurements (paper §5).");
    }
    if (query.measuresCycles) {
        rec.notes.push_back(
            "Be suspicious of cycle counts (and other "
            "micro-architectural events): code placement changes "
            "them by integer factors, dwarfing infrastructure "
            "overhead (paper §6).");
    }
    if (query.shortSections) {
        rec.notes.push_back(
            "For short sections, prefer user-mode-only counting "
            "where possible: its fixed error is an order of "
            "magnitude smaller (Table 3).");
    }
    return rec;
}

} // namespace pca::core
