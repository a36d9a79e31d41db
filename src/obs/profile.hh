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
#include <ostream>
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
};

/** One symbol (function) range in the simulated address space. */
struct ProfileSymbol
{
    std::string name;
    Addr base = 0;
    Count size = 0; //!< bytes
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
 * handler. Everything else is result extraction.
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

    Count ticks() const { return tickCount; }
    Count samples() const { return sampleCount; }
    /** Samples requested while a skid latch was still pending. */
    Count droppedSamples() const { return droppedCount; }
    Count retiredUserInstrs() const { return retiredCount; }
    /** Total cycles charged to retired user instructions. */
    Count retiredUserCycles() const { return retiredCycles; }

    /** Sampled-PC histogram (what a profiler estimates from). */
    std::map<Addr, Count> sampleHist() const;
    /**
     * Interrupted-PC histogram over the *sampled* ticks: where a
     * zero-skid sampler would have attributed the same samples. With
     * skid=0, sampleHist() equals this map exactly.
     */
    std::map<Addr, Count> tickHist() const;
    /** Exact retired-PC histogram (instruction-count truth). */
    std::map<Addr, Count> trueHist() const;
    /** Exact per-PC attributed-cycle histogram (time truth). */
    std::map<Addr, Count> trueCycleHist() const;

    /** Symbol containing @p pc, or "?" when none matches. */
    const std::string &symbolFor(Addr pc) const;

    /**
     * Per-symbol estimated vs. true hotspot shares, sorted by
     * descending true share (ties by name).
     */
    std::vector<ProfileBiasRow> biasReport() const;

    /**
     * Total attribution error, 0.5 * sum |estShare - truth|, where
     * truth is the instruction share by default or the cycle share
     * (what tick sampling actually estimates) when @p cycle_truth.
     */
    double hotspotShareError(bool cycle_truth = false) const;

    /**
     * Samples whose latched PC landed in a different symbol than the
     * interrupted PC — the skid-induced misattributions.
     */
    Count skidMisattributed() const { return misattributedCount; }

    /**
     * Bias report as CSV: symbol,samples,true_instrs,true_cycles,
     * est_share,true_share,true_cycle_share,abs_err,abs_err_cycle
     */
    void writeBiasCsv(std::ostream &os) const;

    /**
     * Collapsed call stacks ("main;hot 42" — one line per unique
     * stack), the flamegraph.pl / speedscope input format.
     */
    void writeCollapsedStacks(std::ostream &os) const;

  private:
    void latchSample(Addr pc);

    ProfileConfig cfg;
    std::vector<ProfileSymbol> syms; //!< sorted by base

    Count tickCount = 0;
    Count sampleCount = 0;
    Count droppedCount = 0;
    Count retiredCount = 0;
    Count retiredCycles = 0;
    Count misattributedCount = 0;
    Count ticksToSample = 0;

    // Pending skid latch: armed at the tick, resolved in retire.
    bool pending = false;
    Count pendingSkipLeft = 0;
    Addr pendingTickPc = 0;
    std::string pendingStack;

    std::unordered_map<Addr, Count> samplePcHist;
    std::unordered_map<Addr, Count> tickPcHist;
    std::unordered_map<Addr, Count> truePcHist;
    std::unordered_map<Addr, Count> truePcCycles;
    std::map<std::string, Count> stacks; //!< collapsed stack -> count
};

} // namespace pca::obs

#endif // PCA_OBS_PROFILE_HH
