/**
 * @file
 * Software performance counters (SPCs) for the simulator itself,
 * modelled after Open MPI's SPC design: a fixed registry of named
 * counters instrumenting libpca's own operation (interrupts injected,
 * preemptions, kernel instructions attributed to the measured
 * thread, pattern-call overhead, runs, boots). Increments are
 * branch-on-enabled and atomic; with every counter disabled (the
 * default) the instrumentation reduces to one load + test.
 */

#ifndef PCA_OBS_SPC_HH
#define PCA_OBS_SPC_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/types.hh"

namespace pca::obs
{

/** The self-instrumentation counters libpca maintains. */
enum class Spc : std::uint8_t
{
    MachineBoots,       //!< simulated machines constructed
    RunsExecuted,       //!< Machine::run invocations (simulated runs)
    InterruptsTimer,    //!< timer interrupts delivered to a core
    InterruptsIo,       //!< I/O interrupts delivered to a core
    InterruptsPmi,      //!< counter-overflow interrupts delivered
    Preemptions,        //!< timer ticks that preempted the thread
    ContextSwitches,    //!< switch-out/in pairs of the measured thread
    KernelInstrs,       //!< kernel-mode instructions retired
    PatternCallsSetup,  //!< API setup calls emitted (open/init/program)
    PatternCallsStart,  //!< API start calls emitted
    PatternCallsRead,   //!< API read calls emitted
    PatternCallsStop,   //!< API stop(+read) calls emitted
    PatternOverheadInstrs, //!< measured-window overhead instructions
    FastForwardIters,   //!< loop iterations applied in bulk
    MachineReboots,     //!< reboots before executed session runs
    ProgramCacheHits,   //!< later runs on an already-built session
    ProgramCacheMisses, //!< sessions built
    FaultsInjected,     //!< faults the FaultInjector fired
    SessionRetries,     //!< transient-fault retries spent by sessions
    DegradedPoints,     //!< study rows recorded as degraded
    ProfileSamples,     //!< the configured profile sampler's samples
    BlockEscapeCallret,    //!< block-engine exits at call/ret
    BlockEscapeTimeread,   //!< block-engine exits at rdtsc/rdpmc
    BlockEscapeSyscall,    //!< block-engine exits at syscall/iret
    BlockEscapeOther,      //!< block-engine exits at hostop/halt/...
    ParallelWorkerErrors,  //!< worker errors captured by parallelFor
    DeadlineExceededRuns,  //!< runs killed by the watchdog budget
    RetryBackoffCycles,    //!< virtual backoff charged before retries
    RetryBudgetExhausted,  //!< retries denied by an exhausted budget
    PointsQuarantined,     //!< points that burned their retry budget
    CheckpointPointsWritten, //!< points recorded to a checkpoint
    CheckpointPointsResumed, //!< points skipped via a checkpoint
    KernelImagesBuilt,     //!< shared kernel images built (first boots)
    NopRunInstrs,          //!< 1-byte Nops retired a run at a time
    UserInstrsBlock,       //!< user instructions the block engine retired
    UserInstrsStep,        //!< user instructions retired one per step
    UserInstrsFolded,      //!< user instructions loop folding applied
    RunsForcedStepProfiler, //!< runs an attached profiler kept per-step
    RunsForcedStepSampling, //!< runs PMU sampling kept per-step
    RunsReused,            //!< session runs answered from a reference
    RunsReuseBlockedIrq,   //!< later session runs an interrupt could reach
    MachineReuses,         //!< sessions that took the idle machine
    ReadingsDerived,       //!< readings answered for a sibling mode
    NumSpcs,
};

constexpr std::size_t numSpcs = static_cast<std::size_t>(Spc::NumSpcs);

/** Canonical counter name ("interrupts_timer", ...). */
const char *spcName(Spc c);

/** All counters, in enum order. */
const std::vector<Spc> &allSpcs();

namespace detail
{

/** One bit per counter; increments are dropped while the bit is 0. */
extern std::atomic<std::uint64_t> spcEnabledMask;

extern std::atomic<Count> spcValues[numSpcs];

} // namespace detail

/** Is @p c currently enabled? */
inline bool
spcEnabled(Spc c)
{
    return (detail::spcEnabledMask.load(std::memory_order_relaxed) &
            (1ULL << static_cast<unsigned>(c))) != 0;
}

/** Are any counters enabled? (One relaxed load: the hot-path gate.) */
inline bool
spcAnyEnabled()
{
    return detail::spcEnabledMask.load(std::memory_order_relaxed) != 0;
}

/** Add @p n to counter @p c if it is enabled. */
inline void
spcAdd(Spc c, Count n)
{
    if (spcEnabled(c))
        detail::spcValues[static_cast<std::size_t>(c)].fetch_add(
            n, std::memory_order_relaxed);
}

/** Increment counter @p c by one if it is enabled. */
inline void
spcInc(Spc c)
{
    spcAdd(c, 1);
}

/** Current value of @p c (0 while it has never been enabled). */
Count spcValue(Spc c);

/**
 * Enable counters per an OMPI-style attach spec: "all", "none", or a
 * comma-separated list of counter names. Unknown names warn and are
 * skipped. Returns the number of counters now enabled.
 */
int spcAttach(const std::string &spec);

/** Disable every counter and zero all values. */
void spcReset();

/**
 * Write a dump of all enabled counters (name and value, one per
 * line) — the analogue of OMPI's mpi_spc_dump_enabled finalize dump.
 */
void spcDump(std::ostream &os);

} // namespace pca::obs

/**
 * Increment macros for instrumentation sites. They compile to a
 * relaxed load + branch when the counter is disabled, so they are
 * safe on interpreter hot paths.
 */
#define PCA_SPC_INC(counter) ::pca::obs::spcInc(::pca::obs::Spc::counter)
#define PCA_SPC_ADD(counter, n) \
    ::pca::obs::spcAdd(::pca::obs::Spc::counter, (n))

#endif // PCA_OBS_SPC_HH
