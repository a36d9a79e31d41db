/**
 * @file
 * The guidelines engine: operationalizes Section 8 of the paper.
 * Given what an analyst wants to measure, it runs a small
 * calibration study on the simulated platform and recommends the
 * most accurate interface, pattern, and configuration, along with
 * the paper's qualitative advice.
 */

#ifndef PCA_CORE_GUIDELINES_HH
#define PCA_CORE_GUIDELINES_HH

#include <ostream>
#include <string>
#include <vector>

#include "core/datatable.hh"
#include "harness/harness.hh"

namespace pca::core
{

/** What the analyst needs. */
struct GuidelineQuery
{
    cpu::Processor processor = cpu::Processor::Core2Duo;
    harness::CountingMode mode = harness::CountingMode::UserKernel;

    /** Number of events measured simultaneously. */
    int countersNeeded = 1;

    /** Restrict to PAPI (portability requirement). */
    bool requirePapi = false;

    /** Restrict to the simplest (high-level) API. */
    bool requireHighLevel = false;

    /** The measured code sections are short (amplifies fixed error). */
    bool shortSections = true;

    /** The analyst intends to measure cycles / µarch events. */
    bool measuresCycles = false;
};

/** A ranked candidate configuration. */
struct RankedChoice
{
    harness::Interface iface;
    harness::AccessPattern pattern;
    bool tsc = true;
    double medianError = 0;
    double minError = 0;
};

/** The recommendation plus the paper's §8 advice. */
struct Recommendation
{
    RankedChoice best;
    std::vector<RankedChoice> ranking; //!< all candidates, best first
    std::vector<std::string> notes;

    void print(std::ostream &os) const;
};

/** Calibrating recommender. */
class Guidelines
{
  public:
    /**
     * @param calibration_runs measurements per candidate config, 3 to
     *        100 (more throws StatusError(InvalidArgument))
     * @param seed RNG stream for the calibration runs
     */
    explicit Guidelines(int calibration_runs = 7,
                        std::uint64_t seed = 7);

    /** Run the calibration and produce a recommendation. */
    Recommendation recommend(const GuidelineQuery &query) const;

  private:
    int runs;
    std::uint64_t seed;
};

} // namespace pca::core

#endif // PCA_CORE_GUIDELINES_HH
