/**
 * @file
 * What the measurement harness measures and reports: one point of
 * the factor space (HarnessConfig) and one run's result
 * (Measurement), the measured counts next to the benchmark's
 * analytical ground truth (§3.5-3.6 of the paper). HarnessSession
 * (harness/session.hh) builds and runs the measurement program.
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
 * Process-wide default for HarnessConfig::decodeCache: true unless
 * the environment sets PCA_DECODE=0/off/false. Because the canned
 * studies build their HarnessConfigs from factor points (which do not
 * carry the toggle), this is the one switch that flips the whole
 * study pipeline to pure per-step interpretation — the lever the
 * byte-identity tests and the ablation bench pull.
 */
bool defaultDecodeCache();

/** One point in the experiment factor space. */
struct HarnessConfig
{
    cpu::Processor processor = cpu::Processor::Core2Duo;
    Interface iface = Interface::Pm;
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

    std::uint64_t seed = 1;
    bool interruptsEnabled = true;
    bool ioInterrupts = true;
    double preemptProb = 0.015;
    bool fastForward = true;
    /** Basic-block engine (results identical; see DESIGN §6). */
    bool decodeCache = defaultDecodeCache();
    /** Unused: nothing reads it; kept so old callers still build. */
    bool traceTier = true;

    /**
     * Fault-injection plan for the machines this config boots
     * (default: inert). Also carries the session's transient-fault
     * retry policy (FaultPlan::retry: attempts, virtual-time
     * backoff, retry budgets) and watchdog budgets.
     */
    kernel::FaultPlan faults;

    /**
     * Watchdog budgets per run (see MachineConfig::runInstrBudget /
     * runCycleBudget); 0 = unlimited, falling back to the fault
     * plan's watchdog fields.
     */
    Count runInstrBudget = 0;
    Cycles runCycleBudget = 0;

    /**
     * Sampling-profiler configuration for the machines this config
     * boots. Defaults from PCA_PROFILE so the canned studies can be
     * profiled without code changes; profiling never changes any
     * measured value (asserted by tests/test_profile.cc).
     */
    obs::ProfileConfig profile = obs::ProfileConfig::fromEnv();
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
