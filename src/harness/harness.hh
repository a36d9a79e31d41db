/**
 * @file
 * What the measurement harness measures and reports: one point of
 * the factor space (HarnessConfig: a MachineConfig plus the access
 * pattern, counting mode, opt level and events the harness measures
 * on that machine) and one run's result (Measurement), the measured
 * counts next to the benchmark's analytical ground truth (§3.5-3.6
 * of the paper). HarnessSession (harness/session.hh) builds and runs
 * the measurement program.
 */

#ifndef PCA_HARNESS_HARNESS_HH
#define PCA_HARNESS_HARNESS_HH

#include <vector>

#include "cpu/core.hh"
#include "harness/counter_api.hh"
#include "harness/interface.hh"
#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/pattern.hh"
#include "obs/attribution.hh"
#include "support/types.hh"

namespace pca::harness
{

/** Which privilege levels the measurement counts (§2.5). */
enum class CountingMode
{
    User,       //!< user-mode events only
    UserKernel, //!< user + kernel mode events
    Kernel,     //!< kernel-mode only (used for Figure 9)
};

const char *countingModeName(CountingMode m);
PlMask toPlMask(CountingMode m);

/**
 * One point in the experiment factor space: the machine the paper's
 * executable ran on (MachineConfig, whose seed is the one run()
 * uses) plus what the harness measures on it.
 */
struct HarnessConfig : MachineConfig
{
    AccessPattern pattern = AccessPattern::StartRead;
    CountingMode mode = CountingMode::UserKernel;

    /** gcc optimization level 0..3 (changes harness code layout). */
    int optLevel = 2;

    /** Event on the measured counter (slot 0). */
    cpu::EventType primaryEvent = cpu::EventType::InstrRetired;

    /** Events on additional counters (the #registers factor). */
    std::vector<cpu::EventType> extraEvents;

    /** perfctr only: enable the TSC (fast user-mode reads). */
    bool tsc = true;

    /**
     * Every field, the machine's included; without it a comparison
     * would convert to MachineConfig and ignore the harness fields.
     */
    bool operator==(const HarnessConfig &) const = default;
};

/** Result of one measurement run. */
struct Measurement
{
    Count c0 = 0;      //!< primary counter before the benchmark
    Count c1 = 0;      //!< primary counter after the benchmark
    Count tsc0 = 0, tsc1 = 0;
    std::vector<Count> c0All, c1All;

    /** Analytical expected count for the primary event (0 if none). */
    Count expected = 0;

    /** Whole-run totals from the simulator (ground truth). */
    cpu::RunResult run;

    /**
     * Decomposition of error() by cause, from the PMU's attribution
     * class tracking. In UserKernel mode attribution.total() equals
     * error() exactly (asserted by tests); in User mode the kernel
     * components are zero by construction.
     */
    obs::ErrorAttribution attribution;

    /** Measured event count c∆ = c1 - c0. */
    SCount delta() const
    {
        return static_cast<SCount>(c1) - static_cast<SCount>(c0);
    }

    /** Measurement error: c∆ - expected. */
    SCount error() const
    {
        return delta() - static_cast<SCount>(expected);
    }
};

} // namespace pca::harness

#endif // PCA_HARNESS_HARNESS_HH
