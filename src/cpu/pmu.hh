/**
 * @file
 * Performance monitoring unit: programmable counters, fixed-function
 * counters, and the time stamp counter, with the IA32 MSR interface
 * (RDPMC/RDTSC/RDMSR/WRMSR) described in Section 2.2 of the paper.
 */

#ifndef PCA_CPU_PMU_HH
#define PCA_CPU_PMU_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "cpu/event.hh"
#include "cpu/microarch.hh"
#include "obs/attribution.hh"
#include "support/types.hh"

namespace pca::cpu
{

/**
 * The PMU of one core.
 *
 * Counters are configured through event-select MSRs using the real
 * IA32 bit layout (event id in bits 0-7, USR bit 16, OS bit 17,
 * enable bit 22), so the simulated kernel extensions program the PMU
 * the same way the real perfctr/perfmon2 do.
 *
 * A counter counts, or, armed by setSamplePeriod(), samples: every
 * period events it overflows, and the core delivers a performance
 * monitoring interrupt (PMI) to the kernel, whose perfmon2 module
 * records the interrupted address (bench/ext_sampling,
 * examples/phase_profiler). The paper's measurements only count.
 */
class Pmu
{
  public:
    // MSR numbers (IA32).
    static constexpr std::uint32_t msrTsc = 0x10;
    static constexpr std::uint32_t msrPmcBase = 0xc1;       // PMC0..
    static constexpr std::uint32_t msrEvtSelBase = 0x186;   // PERFEVTSEL0..
    static constexpr std::uint32_t msrFixedCtrBase = 0x309; // FIXED_CTR0..
    static constexpr std::uint32_t msrFixedCtrCtrl = 0x38d;

    // Event-select bit layout.
    static constexpr std::uint64_t selUsrBit = 1ULL << 16;
    static constexpr std::uint64_t selOsBit = 1ULL << 17;
    static constexpr std::uint64_t selEnableBit = 1ULL << 22;

    /** RDPMC index bit selecting the fixed-counter bank. */
    static constexpr std::uint64_t rdpmcFixedBit = 1ULL << 30;

    explicit Pmu(const MicroArch &arch);

    /** Build an event-select MSR value. */
    static std::uint64_t encodeEvtSel(EventType ev, PlMask pl,
                                      bool enable);

    /** Decode the event id field of an event-select value. */
    static EventType decodeEvent(std::uint64_t sel);

    // --- MSR interface (kernel-mode instructions) ---
    void wrmsr(std::uint32_t msr, std::uint64_t value);
    std::uint64_t rdmsr(std::uint32_t msr) const;

    // --- User-visible reads ---
    /** RDPMC: select < numProg(), or rdpmcFixedBit | fixed index. */
    std::uint64_t rdpmc(std::uint64_t select) const;
    std::uint64_t rdtsc() const { return tsc; }

    // --- Simulation-side event feed ---
    /**
     * Record @p n occurrences of @p ev at privilege mode @p mode.
     * Inline early-out: the interpreter feeds every µarch event
     * through here, and most (event, mode) pairs have no enabled
     * counter — one bit test dismisses them.
     */
    void count(EventType ev, Mode mode, Count n)
    {
        if ((activeAnyMask[static_cast<std::size_t>(mode)] >>
                 static_cast<std::size_t>(ev) &
             1) != 0)
            countSlow(ev, mode, n);
    }

    /** Advance time: TSC and cycle-event counters. */
    void addCycles(Cycles n, Mode mode)
    {
        tsc += n;
        count(EventType::CpuClkUnhalted, mode, n);
    }

    // --- Introspection (used by kernel modules and tests) ---
    int numProg() const { return static_cast<int>(prog.size()); }
    int numFixed() const { return static_cast<int>(fixed.size()); }

    struct Counter
    {
        EventType event = EventType::InstrRetired;
        PlMask pl = PlMask::None;
        bool enabled = false;
        Count value = 0;
        Count samplePeriod = 0; //!< 0 = counting mode, else sampling

        /**
         * The counter's value split by the attribution class active
         * when each event was counted. Writing the counter value
         * (counter reset) zeroes the split, so sum(byClass) always
         * equals value - last-written-value: the error-attribution
         * invariant.
         */
        obs::AttrCounts byClass{};
    };

    const Counter &progCounter(int i) const;
    const Counter &fixedCounter(int i) const;

    /** Directly set a programmable counter value (context restore). */
    void setProgValue(int i, Count v);

    // --- Error attribution (pca::obs) ---

    /**
     * Execution context subsequent events are charged to. The core
     * switches it on trap entry/exit; the kernel switches it when the
     * scheduler preempts the measured thread.
     */
    void setAttrClass(obs::AttrClass c) { attrCls = c; }
    obs::AttrClass attrClass() const { return attrCls; }

    /**
     * Class split latched by the most recent rdpmc() of programmable
     * counter @p i — the split that is *value-consistent* with what
     * that read returned (events counted between the RDPMC and any
     * later capture point are excluded, exactly as they are excluded
     * from the read value itself).
     */
    const obs::AttrCounts &attrLatch(int i) const;

    // --- Sampling (overflow interrupt) support ---

    /**
     * Arm counter @p i for sampling: every @p period events the
     * counter raises a PMI (modelled after the kernel writing
     * -period into the PMC so it overflows after period events).
     * A period of 0 disarms.
     */
    void setSamplePeriod(int i, Count period);

    /** Is any counter armed for sampling? */
    bool samplingActive() const { return armedMask != 0; }

    /** Is a PMI pending? */
    bool overflowPending() const { return pendingMask != 0; }

    /**
     * Consume one pending overflow; returns the counter index or -1.
     */
    int takeOverflow();
    /** Directly set the TSC (context restore / virtualization). */
    void setTsc(Count v) { tsc = v; }

    // --- Fault modelling (installed by harness::Machine) ---

    /**
     * Hardware width of the counters: reads return the stored value
     * modulo 2^bits, reproducing the 40/48-bit wraparound of real
     * PMCs. 64 (the default) reads values unmasked. Survives
     * reset(): the width is a property of the modelled hardware, not
     * of a boot.
     */
    void setCounterWidth(int bits);
    int counterWidth() const { return widthBits; }

    /**
     * Optional read-tamper hook: every rdpmc() result is passed
     * through it (after width masking), so a fault injector can model
     * torn reads. Null (the default) reads untampered. Survives
     * reset() for the same reason as the width.
     */
    void setReadTamper(std::function<Count(Count)> hook)
    {
        readTamper = std::move(hook);
    }

    /** Disable and zero everything (power-on state). */
    void reset();

  private:
    void rebuildActive();
    void countSlow(EventType ev, Mode mode, Count n);

    std::vector<Counter> prog;
    std::vector<Counter> fixed;
    obs::AttrClass attrCls = obs::AttrClass::User;
    /** Per-prog-counter class split latched at rdpmc time. */
    mutable std::vector<obs::AttrCounts> readLatch;
    Count tsc = 0;
    std::uint64_t armedMask = 0;   //!< counters armed for sampling
    std::uint64_t pendingMask = 0; //!< counters with pending PMIs
    int widthBits = 64;            //!< counter wrap width
    Count widthMask = ~Count{0};   //!< 2^widthBits - 1
    std::function<Count(Count)> readTamper; //!< torn-read hook

    /**
     * Cache of enabled counters per (event, mode): counting is on the
     * interpreter's hot path and PD has 18 programmable counters.
     * Entries are indexes into prog (fixed handled separately).
     */
    std::array<std::array<std::vector<int>, 2>, numEvents> active;
    std::array<std::array<std::vector<int>, 2>, numEvents> activeFixed;
    /** Per-mode bitmask over events: any enabled counter at all? */
    std::array<std::uint64_t, 2> activeAnyMask{};
};

} // namespace pca::cpu

#endif // PCA_CPU_PMU_HH
