/**
 * @file
 * Interrupt sources: the periodic timer tick (HZ=1000, the kernel the
 * paper used) and rare I/O interrupts. Section 5 of the paper
 * attributes the duration-dependent error in user+kernel counts to
 * exactly these handlers.
 */

#ifndef PCA_KERNEL_INTERRUPTS_HH
#define PCA_KERNEL_INTERRUPTS_HH

#include "cpu/core.hh"
#include "kernel/faults.hh"
#include "support/random.hh"
#include "support/types.hh"

namespace pca::kernel
{

/** Interrupt vector numbers used by the simulated platform. */
enum Vector : int
{
    VecTimer = 0,
    VecIo = 1,
    VecPmi = 2, //!< counter overflow (raised by the PMU, not timed)
};

/**
 * Schedules timer and I/O interrupts for one core.
 *
 * The timer fires every MicroArch::timerPeriodCycles() with a random
 * initial phase (a measurement starts at an arbitrary point in the
 * tick period). I/O interrupts arrive as a Poisson process.
 */
class InterruptController : public cpu::InterruptClient
{
  public:
    /**
     * @param timer_period cycles between ticks (0 disables the timer)
     * @param io_mean_interval mean cycles between I/O interrupts
     *        (0 disables I/O interrupts)
     * @param seed RNG stream for phase / arrival draws
     */
    InterruptController(Cycles timer_period, Cycles io_mean_interval,
                        std::uint64_t seed);

    /**
     * Return to the just-constructed state for @p seed: re-seeded
     * RNG, fresh timer phase and I/O arrival, zeroed delivery
     * counts. A reset controller is indistinguishable from one newly
     * constructed with the same arguments (the machine-reboot
     * equivalence the harness reuse path relies on).
     */
    void reset(std::uint64_t seed);

    /**
     * The first cycle an interrupt is due after reset(@p seed): the
     * same draws, without touching this controller.
     */
    Cycles firstInterruptCycle(std::uint64_t seed) const;

    Cycles nextInterruptCycle() const override;
    int pollInterrupt(Cycles now) override;

    Count timerDelivered() const { return timerCount; }
    Count ioDelivered() const { return ioCount; }

    /**
     * Let @p injector drop scheduled ticks (lost interrupts) or
     * insert unscheduled ones (spurious interrupts). Null disables
     * injection. The injector outlives the controller (both owned by
     * the Machine).
     */
    void setFaultInjector(FaultInjector *injector)
    {
        faults = injector;
    }

  private:
    static constexpr Cycles never = ~Cycles{0};

    void maybeScheduleSpurious(Cycles now);
    /** The timer's first tick and I/O arrival drawn from @p r. */
    void firstDraws(Rng &r, Cycles &timer, Cycles &io) const;

    Rng rng;
    Cycles timerPeriod;
    Cycles ioMeanInterval;
    Cycles nextTimer = never;
    Cycles nextIo = never;
    Cycles nextSpurious = never;
    Count timerCount = 0;
    Count ioCount = 0;
    FaultInjector *faults = nullptr;
};

} // namespace pca::kernel

#endif // PCA_KERNEL_INTERRUPTS_HH
