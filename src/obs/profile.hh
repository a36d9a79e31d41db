/**
 * @file
 * Virtual-time sampling profiler. The simulated kernel already
 * fields a periodic timer interrupt; the profiler rides it — every
 * Nth tick it attributes one sample to a simulated user PC, exactly
 * like an OS profiler driven by the timer (or by PMU-overflow PMIs
 * on real hardware). Because the interpreter retires instructions
 * one at a time while profiling is armed, the profiler also records
 * the *exact* retired-PC histogram of the same run — the ground
 * truth a real profiler never has — so it can report its own bias:
 * estimated vs. true hotspot shares and the misattribution
 * introduced by a configurable interrupt-skid model.
 *
 * Skid model: on real hardware the PC latched by a sampling
 * interrupt trails the architecturally interrupted instruction by a
 * few retirement slots (the paper's §2 overhead discussion; Intel
 * PEBS/AMD IBS exist precisely to shrink this). Here skid=k latches
 * the PC of the k-th user instruction retired *after* the
 * interrupted one (k=0: the interrupted instruction itself, i.e. a
 * precise sampler).
 *
 * The profiler only records (the ground truth, and per timer tick
 * the retires before it, the interrupted PC, its callers and the PCs
 * of the next skid + 1 retires); every (period, skid) sampler up to
 * the configured skid is a pure function of that record.
 *
 * Two ground truths, two biases. A timer-driven sampler estimates
 * *time* shares: ticks land every N cycles, so expensive instructions
 * draw proportionally more samples. The retired-PC histogram weights
 * every instruction equally. Both are recorded exactly — per-PC
 * retire counts and per-PC attributed cycles — so the bias report
 * can separate the sampler's statistical/skid error (vs. the cycle
 * truth it actually estimates) from the CPI-induced gap between
 * time shares and instruction shares that no precise sampler can
 * close.
 *
 * The profiler is plain data on the obs layer: it sees addresses and
 * symbol ranges only, never cpu/isa types.
 */

#ifndef PCA_OBS_PROFILE_HH
#define PCA_OBS_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/types.hh"

namespace pca::obs
{

/** Sampling-profiler configuration (inert by default). */
struct ProfileConfig
{
    bool enabled = false;
    /** Take one sample every N timer ticks (>= 1). */
    Count periodTicks = 1;
    /** Latch the PC k retired user instructions after the tick. */
    Count skidInstrs = 0;

    /**
     * Parse PCA_PROFILE: unset/""/"off"/"0" disabled; "on"/"1"
     * enabled with defaults; otherwise a comma list of "period=N"
     * and "skid=K".
     */
    static ProfileConfig fromEnv();

    bool operator==(const ProfileConfig &) const = default;
};

/** One symbol (function) range in the simulated address space. */
struct ProfileSymbol
{
    std::string name;
    Addr base = 0;
    Count size = 0; //!< bytes
};

/** What one (period, skid) sampler makes of a recorded run. */
struct ProfileSamples
{
    Count samples = 0;       //!< latched samples
    Count dropped = 0;       //!< sampled ticks dropped while latching
    Count misattributed = 0; //!< latched outside the tick PC's symbol
    /** Latched-PC histogram (what a profiler estimates from). */
    std::map<Addr, Count> sampleHist;
    /** Interrupted PCs of the accepted ticks; sampleHist at skid 0. */
    std::map<Addr, Count> tickHist;
    /** Collapsed call stacks ("main;hot" -> 42) for flamegraph.pl. */
    std::map<std::string, Count> stacks;

    bool operator==(const ProfileSamples &) const = default;
};

/** Per-symbol row of the bias report. */
struct ProfileBiasRow
{
    std::string symbol;
    Count samples = 0;     //!< samples attributed to the symbol
    Count trueInstrs = 0;  //!< user instructions actually retired
    Count trueCycles = 0;  //!< cycles attributed to those retires
    double estShare = 0;   //!< samples / total samples
    double trueShare = 0;  //!< trueInstrs / total user instructions
    double trueCycleShare = 0; //!< trueCycles / total user cycles
};

/**
 * One profiler instance per Machine (single-threaded, like the
 * machine itself). The core calls onUserRetire for every retired
 * user instruction; the kernel calls onTimerTick from the timer
 * handler. Both only record; everything else is derived from the
 * record.
 */
class Profiler
{
  public:
    explicit Profiler(const ProfileConfig &cfg);

    /** Install the symbol table (any order; sorted internally). */
    void setSymbols(std::vector<ProfileSymbol> symbols);

    /**
     * Ground-truth hook: one user instruction retired at @p pc,
     * charged @p cycles of simulated time (fetch + execute).
     */
    void onUserRetire(Addr pc, Cycles cycles);

    /**
     * Sampling hook: a timer tick interrupted the user instruction
     * at @p interrupted_pc with the given user call chain
     * (outermost-first return sites, excluding the leaf).
     */
    void onTimerTick(Addr interrupted_pc,
                     const std::vector<Addr> &call_chain);

    /** Return to the power-on state (Machine::reboot contract). */
    void reset();

    // --- results ---

    Count ticks() const { return tickLog.size(); }
    Count retiredUserInstrs() const { return retiredCount; }
    /** Total cycles charged to retired user instructions. */
    Count retiredUserCycles() const { return retiredCycles; }

    /** Exact retired-PC histogram (instruction-count truth). */
    std::map<Addr, Count> trueHist() const;

    /** Symbol containing @p pc, or "?" when none matches. */
    const std::string &symbolFor(Addr pc) const;

    /**
     * What a sampler with @p period and @p skid (at most the
     * configured one) takes of the record. Every @p period-th tick is
     * sampled. Skid 0 latches the interrupted PC; skid k > 0 the PC
     * of the (k+1)-th user retire after the tick, or nothing if the
     * run ends first (the tick still counts in tickHist). A sampled
     * tick at most k retires after the last accepted one is dropped
     * (a PMI-in-PMI drop) and still counts toward the period.
     */
    ProfileSamples sample(Count period, Count skid) const;
    /** The configured sampler's samples. */
    ProfileSamples sample() const
    {
        return sample(cfg.periodTicks, cfg.skidInstrs);
    }

    /**
     * Per-symbol estimated (from @p samples) vs. true hotspot
     * shares, sorted by descending true share (ties by name).
     */
    std::vector<ProfileBiasRow>
    biasReport(const ProfileSamples &samples) const;

  private:
    /** One timer tick of the record. */
    struct Tick
    {
        Count retiredBefore = 0; //!< user retires before the tick
        Addr pc = 0;             //!< the interrupted user PC
        std::string callers;     //!< caller symbols, ';'-joined
        std::vector<Addr> next;  //!< PCs of the next skid + 1 retires
    };

    ProfileConfig cfg;
    std::vector<ProfileSymbol> syms; //!< sorted by base

    Count retiredCount = 0;
    Count retiredCycles = 0;
    std::unordered_map<Addr, Count> truePcHist;
    std::unordered_map<Addr, Count> truePcCycles;

    std::vector<Tick> tickLog;
    /** First tick whose next-retire window is still filling. */
    std::size_t openTick = 0;
};

} // namespace pca::obs

#endif // PCA_OBS_PROFILE_HH
