#include "kernel/interrupts.hh"

#include <algorithm>

namespace pca::kernel
{

InterruptController::InterruptController(Cycles timer_period,
                                         Cycles io_mean_interval,
                                         std::uint64_t seed)
    : timerPeriod(timer_period), ioMeanInterval(io_mean_interval)
{
    reset(seed);
}

void
InterruptController::reset(std::uint64_t seed)
{
    rng = Rng(seed);
    timerCount = 0;
    ioCount = 0;
    nextSpurious = never;
    firstDraws(rng, nextTimer, nextIo);
}

void
InterruptController::firstDraws(Rng &r, Cycles &timer, Cycles &io) const
{
    timer = never;
    io = never;
    if (timerPeriod > 0) {
        // Random phase: measurements start anywhere in a tick period.
        timer = r.nextBelow(timerPeriod) + 1;
    }
    if (ioMeanInterval > 0) {
        io = static_cast<Cycles>(
                 r.nextExponential(static_cast<double>(ioMeanInterval)))
            + 1;
    }
}

Cycles
InterruptController::firstInterruptCycle(std::uint64_t seed) const
{
    Rng r(seed);
    Cycles timer, io;
    firstDraws(r, timer, io);
    return std::min(timer, io);
}

Cycles
InterruptController::nextInterruptCycle() const
{
    return std::min({nextTimer, nextIo, nextSpurious});
}

void
InterruptController::maybeScheduleSpurious(Cycles now)
{
    if (!faults || timerPeriod == 0 ||
        !faults->fire(FaultKind::SpuriousInterrupt))
        return;
    // An unscheduled extra tick lands partway into the next period;
    // the phase draws from the injector-independent RNG would shift
    // the legitimate schedule, so use a fixed fraction.
    nextSpurious = now + timerPeriod / 3 + 1;
}

int
InterruptController::pollInterrupt(Cycles now)
{
    if (nextSpurious <= now && nextSpurious <= nextTimer &&
        nextSpurious <= nextIo) {
        // Spurious tick: the kernel services a timer interrupt that
        // was never scheduled (extra handler work, extra phase).
        nextSpurious = never;
        ++timerCount;
        return VecTimer;
    }
    if (nextTimer <= now && nextTimer <= nextIo) {
        // One tick per delivery; skip ticks lost to long kernel
        // sections (the real kernel's lost-tick accounting).
        while (nextTimer <= now)
            nextTimer += timerPeriod;
        if (faults && faults->fire(FaultKind::DroppedInterrupt)) {
            // Lost interrupt: the tick never reaches the kernel, so
            // neither its handler work nor its per-tick module
            // bookkeeping (e.g. multiplex rotation) happens.
            return -1;
        }
        ++timerCount;
        maybeScheduleSpurious(now);
        return VecTimer;
    }
    if (nextIo <= now) {
        nextIo = now + static_cast<Cycles>(rng.nextExponential(
                     static_cast<double>(ioMeanInterval))) + 1;
        ++ioCount;
        return VecIo;
    }
    return -1;
}

} // namespace pca::kernel
