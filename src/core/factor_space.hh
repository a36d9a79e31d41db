/**
 * @file
 * Full-factorial enumeration of measurement configurations, with the
 * paper's constraints applied (PAPI high level lacks read patterns;
 * the TSC flag only exists on perfctr; a processor can only measure
 * as many counters as it has).
 */

#ifndef PCA_CORE_FACTOR_SPACE_HH
#define PCA_CORE_FACTOR_SPACE_HH

#include <vector>

#include "harness/harness.hh"

namespace pca::core
{

/** One fully specified configuration. */
struct FactorPoint
{
    cpu::Processor processor;
    harness::Interface iface;
    harness::AccessPattern pattern;
    harness::CountingMode mode;
    int optLevel;
    int numCounters; //!< total counters incl. the primary
    bool tsc;        //!< perfctr TSC flag (true for perfmon points)

    /** Instantiate a harness config (extras from defaultExtraEvents). */
    harness::HarnessConfig toHarnessConfig(std::uint64_t seed) const;
};

/** Menu of secondary events assigned to extra counters, in order. */
const std::vector<cpu::EventType> &defaultExtraEvents();

/**
 * Builder for the cross product of factor levels. Defaults cover
 * the paper's §3 space at one counter with the TSC enabled.
 */
class FactorSpace
{
  public:
    FactorSpace();

    FactorSpace &processors(std::vector<cpu::Processor> v);
    FactorSpace &interfaces(std::vector<harness::Interface> v);
    FactorSpace &patterns(std::vector<harness::AccessPattern> v);
    FactorSpace &modes(std::vector<harness::CountingMode> v);
    FactorSpace &optLevels(std::vector<int> v);
    FactorSpace &counterCounts(std::vector<int> v);
    FactorSpace &tscSettings(std::vector<bool> v);

    /**
     * Enumerate all valid points: unsupported (interface, pattern)
     * pairs are dropped, TSC=off applies only to perfctr-based
     * interfaces, and counter counts above a processor's resources
     * are dropped for that processor.
     */
    std::vector<FactorPoint> generate() const;

  private:
    std::vector<cpu::Processor> procs;
    std::vector<harness::Interface> ifaces;
    std::vector<harness::AccessPattern> pats;
    std::vector<harness::CountingMode> modeList;
    std::vector<int> opts;
    std::vector<int> nctrs;
    std::vector<bool> tscs;
};

} // namespace pca::core

#endif // PCA_CORE_FACTOR_SPACE_HH
