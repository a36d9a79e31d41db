/**
 * @file
 * The simulated operating system kernel: trap entry/exit paths,
 * syscall dispatch, the timer tick with optional preemption by a
 * kernel thread, and the hooks of its one kernel extension.
 */

#ifndef PCA_KERNEL_KERNEL_HH
#define PCA_KERNEL_KERNEL_HH

#include <map>
#include <memory>
#include <string>

#include "cpu/core.hh"
#include "isa/program.hh"
#include "kernel/costs.hh"
#include "kernel/faults.hh"
#include "kernel/interrupts.hh"
#include "kernel/module.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/status.hh"

namespace pca::kernel
{

/** Well-known syscall numbers. */
namespace sysno
{
constexpr int getpid = 20;
// perfctr extension.
constexpr int vperfctrOpen = 300;
constexpr int vperfctrControl = 301;
constexpr int vperfctrRead = 302;
constexpr int vperfctrStop = 303;
// perfmon2 extension.
constexpr int pfmCreate = 350;
constexpr int pfmWritePmcs = 351;
constexpr int pfmWritePmds = 352;
constexpr int pfmStart = 353;
constexpr int pfmStop = 354;
constexpr int pfmReadPmds = 355;
// perfmon2 event-set multiplexing (PFM_CREATE_EVTSETS family).
constexpr int pfmCreateEvtsets = 356;
constexpr int pfmStartMpx = 357;
constexpr int pfmReadMpx = 358;
constexpr int pfmStopMpx = 359;
constexpr int pfmSetSmpl = 360;
} // namespace sysno

/**
 * Kernel text linked at 0xc0000000 plus its syscall table: what
 * Kernel::buildInto emits for one (processor, extension, hang block)
 * combination. Immutable once built and shared by every machine that
 * boots that combination; its host ops capture no state and act on
 * the kernel of the core that runs them.
 */
struct KernelImage
{
    isa::Program text;

    /** A syscall's handler block, named for injected-fault messages. */
    struct Syscall
    {
        int block = -1;
        std::string name;
    };
    std::map<int, Syscall> syscalls; //!< by syscall number

    /**
     * Blocks the dispatch host ops jump to, resolved once the text
     * is built: no run looks a block up by name (k_hang is -1 when
     * the image has none).
     */
    int intExit = -1, timer = -1, io = -1, pmi = -1, preempt = -1,
        hang = -1;
};

/**
 * A Linux-2.6.22-like kernel for one core, patched with one
 * extension (perfctr, perfmon2 or the perf_event analogue).
 *
 * Usage (normally done by harness::Machine):
 *  1. construct with the extension, setFaultInjector();
 *  2. boot() for the shared kernel image (built on first use);
 *  3. link a Program over the image's text with the user blocks;
 *  4. attach(core) to install trap entries, the interrupt source
 *     and this kernel as the core's host environment.
 */
class Kernel : public isa::HostEnv
{
  public:
    /**
     * @param arch processor descriptor (scales kernel path lengths)
     * @param ext the loaded extension; it outlives the kernel
     * @param seed RNG stream for interrupt phases and scheduling
     * @param enable_io_interrupts model rare disk/net interrupts
     * @param timer_period_override nonzero: cycles between timer
     *        ticks instead of the arch's HZ=1000 period (a raised
     *        tick rate for sampling-profiler studies)
     */
    Kernel(const cpu::MicroArch &arch, KernelModule &ext,
           std::uint64_t seed, bool enable_io_interrupts = true,
           Cycles timer_period_override = 0);

    /**
     * The linked kernel image for this kernel's processor, extension
     * and fault plan (whether it can fire a Hang). The first boot of
     * a combination builds the image with buildInto() (counted in
     * the kernel_images_built SPC); every later boot, on any thread,
     * gets the same pointer. Images live until exit.
     */
    std::shared_ptr<const KernelImage> boot();

    /** Emit kernel code blocks into @p prog (before linking). */
    void buildInto(isa::Program &prog);

    /**
     * Install trap entries + interrupt client and make this kernel
     * the core's host environment. Fails with FailedPrecondition
     * unless boot() ran.
     */
    Status attach(cpu::Core &core);

    /**
     * The kernel of the core running a host op. attach() is the only
     * caller of Core::setHostEnv, so the environment is a Kernel.
     */
    static Kernel &
    of(isa::CpuContext &ctx)
    {
        isa::HostEnv *env = ctx.hostEnv();
        pca_assert(env != nullptr);
        return *static_cast<Kernel *>(env);
    }

    /** The core this kernel is attached to (see attach). */
    cpu::Core &
    core()
    {
        pca_assert(attachedCore);
        return *attachedCore;
    }

    /**
     * The loaded extension as its type @p M. Only @p M's own blocks
     * ask, and those exist only in images whose key holds @p M's
     * name, so the extension is an @p M.
     */
    template <class M>
    M &
    extension()
    {
        return static_cast<M &>(ext);
    }

    /**
     * Return the kernel and its extension to the freshly booted
     * state for @p seed: re-seeded scheduler RNG, fresh interrupt
     * phases, zeroed context-switch count, reset extension state. The
     * kernel image and the attached core are kept. With the same seed
     * the kernel's subsequent behavior is identical to a newly
     * constructed kernel's (Machine::reboot's contract).
     */
    void reset(std::uint64_t seed);

    /**
     * Map a syscall number to a handler block (extension API, while
     * the kernel emits its blocks; boot() resolves the name to the
     * block's id).
     */
    void registerSyscall(int nr, const std::string &block_name);

    const KernelCosts &costs() const { return kcosts; }
    const cpu::MicroArch &arch() const { return archRef; }

    /** Probability a timer tick preempts the measured thread. */
    void setPreemptProbability(double p) { preemptProb = p; }

    InterruptController &interrupts() { return intCtrl; }

    /**
     * The first cycle an interrupt is due after reset(@p seed),
     * computed without resetting anything.
     */
    Cycles
    firstInterruptCycle(std::uint64_t seed) const
    {
        return intCtrl.firstInterruptCycle(interruptSeed(seed));
    }

    /** Number of context switches the measured thread suffered. */
    Count contextSwitches() const { return ctxswCount; }

    /**
     * Thread the fault injector into the syscall dispatch path (EBUSY
     * on allocation, attach/read failures) and the interrupt queue
     * (dropped/spurious ticks). Null disables injection; the injector
     * is owned by the Machine and outlives the kernel.
     */
    void setFaultInjector(FaultInjector *injector);

    /**
     * Attach the sampling profiler to the timer-tick path (null
     * detaches). On every tick the kernel hands it the interrupted
     * user PC and call chain — the simulated analogue of a sampling
     * interrupt handler reading the trap frame. The profiler is
     * owned by the Machine and outlives the kernel.
     */
    void setProfiler(obs::Profiler *p) { profiler = p; }

  private:
    /** The interrupt controller's stream for kernel seed @p seed. */
    static std::uint64_t
    interruptSeed(std::uint64_t seed)
    {
        return mixSeed(seed, 0x1234ULL);
    }

    void dispatchSyscall(isa::CpuContext &ctx);
    void dispatchInterrupt(isa::CpuContext &ctx);
    void decidePreemption(isa::CpuContext &ctx);
    /** The measured thread is switched out for a kernel thread. */
    void doSwitchOut();
    /** Whether the fault plan can fire a Hang (emits k_hang). */
    bool canHang() const;

    const cpu::MicroArch &archRef;
    KernelCosts kcosts;
    Rng schedRng;
    InterruptController intCtrl;
    KernelModule &ext;
    /** Filled by registerSyscall while buildInto emits. */
    std::map<int, std::string> syscallTable;
    std::shared_ptr<const KernelImage> image;
    cpu::Core *attachedCore = nullptr;
    FaultInjector *faults = nullptr;
    obs::Profiler *profiler = nullptr;
    double preemptProb = 0.015;
    Count ctxswCount = 0;
    bool built = false;
};

} // namespace pca::kernel

#endif // PCA_KERNEL_KERNEL_HH
