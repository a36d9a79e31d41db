/**
 * @file
 * Per-run measurement-error attribution. The paper's §5 explains
 * user+kernel error as timer/I-O interrupt handlers and scheduling
 * work executing while the counters run, plus the access pattern's
 * own overhead; BayesPerf makes the complementary point that
 * correcting counter error requires a model of its sources. Here
 * every event the PMU counts is tagged with the *cause* it executed
 * under (an AttrClass), so a measurement's error decomposes exactly:
 * the components sum to delta - expected by construction.
 */

#ifndef PCA_OBS_ATTRIBUTION_HH
#define PCA_OBS_ATTRIBUTION_HH

#include <array>
#include <ostream>

#include "support/types.hh"

namespace pca::obs
{

/**
 * Why an event was counted: the execution context the processor was
 * in when the PMU observed it. User code and syscall service both
 * belong to the measurement's own access pattern; the interrupt
 * classes and preemption are the asynchronous perturbations of §5.
 */
enum class AttrClass : std::uint8_t
{
    User,    //!< user-mode instructions of the measured program
    Syscall, //!< kernel syscall paths invoked by the pattern's calls
    Timer,   //!< timer-interrupt entry/handler/exit
    Io,      //!< I/O-interrupt entry/handler/exit
    Preempt, //!< scheduler switch-out, kernel thread, switch-in
    Pmi,     //!< counter-overflow (sampling) interrupt service
    NumClasses,
};

constexpr std::size_t numAttrClasses =
    static_cast<std::size_t>(AttrClass::NumClasses);

/** Human-readable class name ("user", "timer", ...). */
const char *attrClassName(AttrClass c);

/**
 * Attribution class for an interrupt vector, matching the platform's
 * vector assignment (kernel::Vector): 0 = timer, 1 = I/O, 2 = PMI.
 */
AttrClass attrClassForVector(int vector);

/** Event counts split by attribution class. */
using AttrCounts = std::array<Count, numAttrClasses>;

/**
 * Event counts split by the privilege mode they were counted in (the
 * row, indexed by Mode) and by attribution class. The class does not
 * imply the mode: `syscall` retires in user mode after the class has
 * switched to Syscall, and `iret` retires in kernel mode after the
 * class has been restored.
 */
using ModeAttrCounts = std::array<AttrCounts, 2>;

/** The events of the rows @p pl includes. */
Count modeTotal(const ModeAttrCounts &split, PlMask pl);

/** The class split of the rows @p pl includes. */
AttrCounts classSplit(const ModeAttrCounts &split, PlMask pl);

/**
 * Decomposition of one measurement's error into its causes. All
 * components are in units of the measured event (instructions for
 * the paper's main studies) and sum to the total error exactly.
 */
struct ErrorAttribution
{
    /**
     * Events added by the access pattern itself: user-mode library
     * code inside the measured window plus the kernel halves of the
     * pattern's own syscalls (read/stop paths, §4's per-pattern
     * overhead).
     */
    SCount patternOverhead = 0;

    /** Events retired inside timer-interrupt service (§5). */
    SCount timerInterrupts = 0;

    /** Events retired inside I/O-interrupt service (§5). */
    SCount ioInterrupts = 0;

    /** Events retired in scheduler/preemption work (switch + slice). */
    SCount preemption = 0;

    /** Anything else (PMI service during sampling sessions). */
    SCount other = 0;

    /** The decomposed total: equals Measurement::error() exactly. */
    SCount total() const
    {
        return patternOverhead + timerInterrupts + ioInterrupts +
            preemption + other;
    }
};

/**
 * Decompose a measurement from the per-class counter deltas.
 *
 * @param c0 class split latched at the first capture (all zero for
 *        start-read / start-stop patterns, which have no c0 read)
 * @param c1 class split latched at the final capture
 * @param expected the benchmark's analytical event count (attributed
 *        to the User class and subtracted out of patternOverhead)
 */
ErrorAttribution attributeError(const AttrCounts &c0,
                                const AttrCounts &c1, Count expected);

/** One-line rendering: "pattern=152 timer=1208 io=0 preempt=0". */
std::ostream &operator<<(std::ostream &os, const ErrorAttribution &a);

} // namespace pca::obs

#endif // PCA_OBS_ATTRIBUTION_HH
