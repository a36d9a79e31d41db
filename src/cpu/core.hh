/**
 * @file
 * The simulated processor core: an interpreter for the pca ISA that
 * drives the PMU, front-end, caches and branch predictor, takes
 * syscall traps and external interrupts, and fast-forwards
 * counted loops whose per-iteration cost repeats.
 */

#ifndef PCA_CPU_CORE_HH
#define PCA_CPU_CORE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/event.hh"
#include "cpu/frontend.hh"
#include "cpu/microarch.hh"
#include "cpu/pmu.hh"
#include "cpu/predictor.hh"
#include "isa/context.hh"
#include "isa/program.hh"
#include "support/types.hh"

namespace pca::obs
{
class Profiler;
} // namespace pca::obs

namespace pca::cpu
{

/**
 * Interface the kernel implements to inject hardware interrupts.
 * @see pca::kernel::InterruptController
 */
class InterruptClient
{
  public:
    virtual ~InterruptClient() = default;

    /** Cycle at which the next interrupt is due (max if none). */
    virtual Cycles nextInterruptCycle() const = 0;

    /**
     * Called when the core is willing to take an interrupt at cycle
     * @p now. Returns the vector to deliver, or -1 for none. The
     * controller advances its own schedule on delivery.
     */
    virtual int pollInterrupt(Cycles now) = 0;
};

/** Aggregate results of one Core::run. */
struct RunResult
{
    Count userInstr = 0;
    Count kernelInstr = 0;
    Cycles cycles = 0;
    Count interrupts = 0;
    Count fastForwardedIters = 0; //!< iterations applied in bulk
};

/**
 * One simulated core.
 *
 * Not reusable across programs: create a fresh Core (or call reset())
 * per measurement run, mirroring the paper's process-per-measurement
 * methodology.
 */
class Core : public isa::CpuContext
{
  public:
    explicit Core(const MicroArch &arch);

    /** The program to execute (must stay alive during run()). */
    void setProgram(const isa::Program *prog);

    /**
     * The host state HostOp callbacks reach through hostEnv() (the
     * kernel; must stay alive during run()). Kept across reset().
     */
    void setHostEnv(isa::HostEnv *env) { hostState = env; }

    /** Kernel entry points (set by the Machine after linking). */
    void setSyscallEntry(isa::CodePtr entry) { syscallEntry = entry; }
    void setInterruptEntry(isa::CodePtr entry)
    {
        interruptEntry = entry;
    }

    /** Attach the interrupt source (may be null: no interrupts). */
    void setInterruptClient(InterruptClient *client)
    {
        intClient = client;
    }

    /**
     * Enable/disable loop fast-forwarding (default on). Disabling
     * forces pure interpretation; architectural and PMU results are
     * identical either way (asserted by tests, measured by the
     * ablation bench).
     */
    void setFastForwardEnabled(bool on) { ffEnabled = on; }

    /**
     * Enable/disable the basic-block engine (default on). When
     * enabled, straight-line runs of instructions (Inst::runEnd, set
     * at link time) execute in one dispatch with batched retire
     * accounting; when disabled (or whenever PMU sampling is armed),
     * every instruction goes through the per-step interpreter.
     * Architectural state, PMU counts, interrupt delivery points and
     * fault schedules are identical either way (asserted by tests,
     * measured by the ablation bench).
     */
    void setDecodeCacheEnabled(bool on) { decodeOn = on; }

    /**
     * Watchdog budgets for run(): abort with
     * StatusError(DeadlineExceeded) once the run has retired more
     * than @p instrs instructions or accumulated more than
     * @p cycles virtual cycles (0 = that budget is unlimited). The
     * check sits in run()'s outer dispatch loop, so both engines
     * trip it within one dispatch chunk of the budget — including a
     * handler wedged in kernel mode, where interrupts are never
     * polled and nothing else could regain control. Persists across
     * reset(): like the engine toggles, it models the harness, not
     * machine state.
     */
    void
    setRunDeadline(Count instrs, Cycles cycles)
    {
        deadlineInstrs = instrs;
        deadlineCycles = cycles;
    }

    /**
     * Attach the sampling profiler (null detaches, the default).
     * While attached the core reports every retired user instruction
     * to it, which requires exact per-retire interpretation: the
     * basic-block engine and loop fast-forward are bypassed, both
     * of which are result-invisible (asserted by tests), so runs
     * with and without a profiler retire identical instruction
     * streams — zero observer effect by construction.
     */
    void setProfiler(obs::Profiler *p) { prof = p; }

    /**
     * Addresses of the return sites on the user call stack,
     * outermost first (for the profiler's collapsed stacks).
     */
    std::vector<Addr> callChainAddrs() const;

    /** CR4.PCE: whether RDPMC is legal in user mode. */
    void allowUserRdpmc(bool allow) { userRdpmcOk = allow; }
    /** CR4.TSD is off by default: RDTSC legal in user mode. */
    void allowUserRdtsc(bool allow) { userRdtscOk = allow; }

    /**
     * Execute from @p entry until a Halt instruction retires.
     *
     * @param entry first instruction
     * @param max_instr runaway guard: throws
     *        StatusError(ResourceExhausted) once exceeded
     */
    RunResult run(isa::CodePtr entry,
                  Count max_instr = 500'000'000ULL);

    Pmu &pmu() { return pmuUnit; }
    const Pmu &pmu() const { return pmuUnit; }
    const MicroArch &arch() const { return archRef; }

    /** Raw occurrence totals per event and mode (ground truth). */
    Count rawEvents(EventType ev, Mode m) const;

    /** Total cycles attributed to @p m so far. */
    Cycles modeCycles(Mode m) const;

    /** Vector of the interrupt currently being serviced (-1 none). */
    int currentVector() const { return activeVector; }

    /** PMI vector number (counter overflow). */
    static constexpr int pmiVector = 2;

    /** Address of the instruction the last interrupt preempted. */
    Addr lastInterruptedAddr() const { return interruptedAddr; }

    /**
     * Switch the attribution class events are charged to (see
     * pca::obs::AttrClass). The core switches it itself on trap
     * entry/exit; the kernel calls this when the scheduler path
     * diverges from plain interrupt service (preemption).
     */
    void setAttrClass(obs::AttrClass c) { pmuUnit.setAttrClass(c); }

    /** Counter index of the PMI being serviced (-1 none). */
    int overflowedCounter() const { return pmiCounter; }

    /** Clear architectural and micro-architectural state. */
    void reset();

    // --- isa::CpuContext ---
    std::uint64_t getReg(isa::Reg r) const override;
    void setReg(isa::Reg r, std::uint64_t v) override;
    void jumpTo(const std::string &symbol) override;
    isa::HostEnv *hostEnv() const override { return hostState; }
    Mode mode() const override { return curMode; }
    Cycles cycles() const override { return cycleCount; }

  private:
    /**
     * Context pushed on trap entry. Includes the flags: interrupts
     * and int-style syscalls push EFLAGS and iret restores it —
     * without this, a handler's last compare would leak into the
     * interrupted code's next conditional branch.
     */
    struct SavedContext
    {
        isa::CodePtr pc;
        Mode mode;
        bool fromInterrupt;
        bool zeroFlag;
        bool lessFlag;
        obs::AttrClass attrCls;
    };

    /**
     * What one loop iteration (back-edge to back-edge) added to the
     * user-mode counts, and the one register it stepped.
     */
    struct IterDelta
    {
        Count instr = 0;
        Cycles cycles = 0;
        std::array<Count, numEvents> events{};
        int reg = -1;
        std::int64_t step = 0;

        bool operator==(const IterDelta &) const = default;
    };

    /**
     * Longest period of per-iteration deltas loop fast-forward
     * detects. NetBurst's trace-cache replay gives the paper's loops
     * period 2.
     */
    static constexpr std::size_t maxFfPeriod = 16;

    /** Per-branch loop fast-forward bookkeeping. */
    struct LoopFf
    {
        bool headTaken = false; //!< head* hold the last back-edge
        bool unsafe = false;

        std::array<std::uint64_t, isa::numRegs> headRegs{};
        Count headInstr = 0;
        Cycles headCycles = 0;
        std::array<Count, numEvents> headEvents{};

        /** The last deltas, a ring: newest at histNext - 1. */
        std::array<IterDelta, 2 * maxFfPeriod> hist{};
        std::size_t histLen = 0;
        std::size_t histNext = 0;
    };

    void step();
    Count stepDecodedBlock();
    void execute(const isa::Inst &in);
    void deliverInterrupt(int vector);
    void chargeCycles(Cycles c);
    void countEvent(EventType ev, Count n = 1);
    void fetchCosts(const isa::Inst &in);
    Cycles fetchNewLine(Addr addr, Addr &fetch_page);
    Cycles nopRunCostBound(Addr addr, Count n) const;
    void doTakenBranch(const isa::Inst &in);
    void dataAccess(Addr addr);
    void maybeFastForwardKeyed(std::uint64_t key,
                               const isa::Inst &branch,
                               int branch_index);
    std::uint64_t &reg(isa::Reg r);

    const MicroArch &archRef;
    Pmu pmuUnit;
    FrontEnd frontEnd;
    BranchPredictor predictor;
    CacheModel icache;
    CacheModel itlb;
    CacheModel dcache;
    CacheModel l2;
    CacheModel dtlb;

    const isa::Program *program = nullptr;
    isa::HostEnv *hostState = nullptr;
    obs::Profiler *prof = nullptr;
    isa::CodePtr pc;
    isa::CodePtr syscallEntry;
    isa::CodePtr interruptEntry;
    InterruptClient *intClient = nullptr;

    std::array<std::uint64_t, isa::numRegs> regs{};
    bool zeroFlag = false;
    bool lessFlag = false;
    Mode curMode = Mode::User;
    bool userRdpmcOk = false;
    bool userRdtscOk = true;

    std::vector<isa::CodePtr> callStack;
    std::vector<SavedContext> trapStack;
    std::unordered_map<Addr, std::uint64_t> memory;

    Cycles cycleCount = 0;
    std::array<Cycles, 2> cyclesPerMode{};
    std::array<Count, 2> instrPerMode{};
    std::array<std::array<Count, 2>, numEvents> rawEv{};
    Count interruptCount = 0;
    Count ffIters = 0;

    bool halted = false;
    bool pcRedirected = false; //!< set when execute() changed pc
    int activeVector = -1;
    Addr interruptedAddr = 0;
    int pmiCounter = -1;

    // Fast-forward state.
    bool ffEnabled = true;
    std::unordered_map<std::uint64_t, LoopFf> loops;
    bool poisonSinceBackward = true;

    // Basic-block engine state. The last-fetched icache line / iTLB
    // page let the block engine skip redundant lookups for
    // consecutive fetches within one line: a repeat access is a
    // guaranteed hit and, with a strictly monotonic per-model LRU
    // clock, skipping it cannot change any future victim choice — so
    // misses, penalties and cycles are identical.
    bool decodeOn = true;
    int icLineShift = 0;
    int itlbPageShift = 0;
    int dcLineShift = 0;
    int dtlbPageShift = 0;
    Addr lastFetchLine = ~Addr{0};
    Addr lastFetchPage = ~Addr{0};

    // Run-deadline watchdog budgets (0 = unlimited). Survive
    // reset(): they model harness policy, not machine state.
    Count deadlineInstrs = 0;
    Cycles deadlineCycles = 0;
};

} // namespace pca::cpu

#endif // PCA_CPU_CORE_HH
