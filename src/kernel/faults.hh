/**
 * @file
 * Deterministic fault injection for the counter infrastructure.
 *
 * The simulator reproduces the paper's *systematic* measurement
 * errors; real infrastructures additionally exhibit outright failure
 * modes — transient EBUSY on counter allocation, counters wrapping at
 * their hardware width, lost or spurious timer interrupts, module
 * attach/read failures, torn reads — which BayesPerf models as noisy
 * sensors and nanoBench guards against with retry-and-discard run
 * policies. A FaultPlan names the rates of those faults; a
 * FaultInjector, seeded from (plan seed, machine seed), decides
 * deterministically at each fault site whether the fault fires. With
 * an inert plan (all rates zero, full counter width) nothing is ever
 * injected and every code path is bit-for-bit the pre-fault one.
 */

#ifndef PCA_KERNEL_FAULTS_HH
#define PCA_KERNEL_FAULTS_HH

#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "support/random.hh"
#include "support/retry.hh"
#include "support/types.hh"

namespace pca::kernel
{

/** The failure modes the injector can produce. */
enum class FaultKind : std::uint8_t
{
    CounterBusy,      //!< EBUSY from counter allocation (transient)
    DroppedInterrupt, //!< scheduled timer tick silently lost
    SpuriousInterrupt,//!< extra, unscheduled timer tick delivered
    AttachFail,       //!< module open/attach syscall fails
    ReadFail,         //!< module counter-read syscall fails
    TornRead,         //!< counter read torn across halves (silent)
    Hang,             //!< read syscall wedges in a stuck poll loop
    NumKinds,
};

constexpr std::size_t numFaultKinds =
    static_cast<std::size_t>(FaultKind::NumKinds);

/**
 * Canonical fault name ("counter_busy", ...). Constexpr with an
 * exhaustive switch and a nullptr fallthrough so the static_assert
 * below turns "added a FaultKind but forgot its name" into a compile
 * error instead of garbage in logs and fingerprints.
 */
constexpr const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::CounterBusy: return "counter_busy";
      case FaultKind::DroppedInterrupt: return "dropped_interrupt";
      case FaultKind::SpuriousInterrupt:
        return "spurious_interrupt";
      case FaultKind::AttachFail: return "attach_fail";
      case FaultKind::ReadFail: return "read_fail";
      case FaultKind::TornRead: return "torn_read";
      case FaultKind::Hang: return "hang";
      case FaultKind::NumKinds: break;
    }
    return nullptr;
}

namespace detail
{

template <std::size_t... I>
constexpr bool
allFaultKindsNamed(std::index_sequence<I...>)
{
    return ((faultKindName(static_cast<FaultKind>(I)) != nullptr) &&
            ...);
}

} // namespace detail

static_assert(
    detail::allFaultKindsNamed(
        std::make_index_sequence<numFaultKinds>{}),
    "every FaultKind before NumKinds needs a name in "
    "faultKindName()");

/**
 * Configuration of the injector: per-kind fault probabilities, the
 * counter width (wraparound), the retry budget the harness session
 * may spend on transient faults, and the plan seed that makes every
 * injection decision reproducible. Defaults are fully inert.
 */
struct FaultPlan
{
    double busyRate = 0.0;     //!< CounterBusy per allocation syscall
    double dropRate = 0.0;     //!< DroppedInterrupt per timer tick
    double spuriousRate = 0.0; //!< SpuriousInterrupt per timer tick
    double attachRate = 0.0;   //!< AttachFail per open syscall
    double readFailRate = 0.0; //!< ReadFail per read syscall
    double tornRate = 0.0;     //!< TornRead per counter read
    double hangRate = 0.0;     //!< Hang per read syscall

    /**
     * Bits of the programmable counters; values wrap modulo
     * 2^width on read. 64 (the default) means no wrap — real PMCs
     * are 40- or 48-bit (§2.2), so width=40 reproduces hardware
     * wraparound on long measurements.
     */
    int counterWidthBits = 64;

    /**
     * Watchdog: retired-instruction budget per Machine::run; the run
     * aborts with DeadlineExceeded once exceeded. 0 = unlimited
     * (only the interpreter's 500M runaway backstop applies). A plan
     * with hangRate > 0 needs a budget, or every hang falls through
     * to that backstop and panics.
     */
    Count watchdogInstrs = 0;

    /** Watchdog: virtual-cycle budget per run; 0 = unlimited. */
    Cycles watchdogCycles = 0;

    /**
     * How the harness session spends transient-fault retries
     * (attempts, virtual-time backoff, per-point and per-study
     * budgets) — nanoBench's retry-and-discard, with budgets.
     */
    RetryPolicy retry;

    /** Stream seed; mixed with the machine seed per boot/reboot. */
    std::uint64_t seed = 0;

    /** Any fault possible? (Inert plans skip all injection work.) */
    bool enabled() const;

    double rate(FaultKind k) const;

    /**
     * Parse a "key=value,key=value" spec. Keys: seed, rate (sets the
     * six original fault rates at once — hang stays opt-in because
     * it needs a budget), busy, drop, spurious, attach, read, torn,
     * hang, width, budget (watchdog instructions), cbudget (watchdog
     * cycles), retries, backoff, bcap, pbudget, sbudget. Unknown
     * keys warn and are skipped; an empty spec is the inert plan.
     */
    static FaultPlan parse(const std::string &spec);

    /** parse(getenv("PCA_FAULTS")); inert when unset/empty. */
    static FaultPlan fromEnv();

    /**
     * Stable identity string covering every field that can change
     * simulated behavior — part of a study checkpoint's identity, so
     * a checkpoint written under one plan never resumes under
     * another.
     */
    std::string fingerprint() const;
};

/**
 * Draws fault decisions for one machine. Each FaultKind has its own
 * RNG stream (seeded from the plan seed, the machine seed, and the
 * kind), so firing one kind of fault never perturbs the decision
 * sequence of another. reset(machine_seed) restores the exact
 * power-on decision stream for that seed — Machine::reboot's
 * result-identity contract extends to fault injection.
 */
class FaultInjector
{
  public:
    FaultInjector(const FaultPlan &plan, std::uint64_t machine_seed);

    /** Reseed all streams and zero the counts (machine reboot). */
    void reset(std::uint64_t machine_seed);

    /**
     * Should the fault fire at this site? Draws from the kind's
     * stream (unless its rate is zero, which never draws), counts
     * the injection, and feeds the faults_injected SPC.
     */
    bool fire(FaultKind k);

    /** Injections of @p k since the last reset. */
    Count injected(FaultKind k) const;

    /** All injections since the last reset. */
    Count totalInjected() const;

    const FaultPlan &plan() const { return planVal; }

  private:
    FaultPlan planVal;
    std::array<Rng, numFaultKinds> streams;
    std::array<Count, numFaultKinds> counts{};
};

} // namespace pca::kernel

#endif // PCA_KERNEL_FAULTS_HH
