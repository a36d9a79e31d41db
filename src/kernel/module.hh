/**
 * @file
 * Kernel extension interface. perfctr and perfmon2 are loadable
 * kernel extensions in the paper's setup (patched 2.6.22 kernels);
 * here they are KernelModules that contribute syscall handler blocks
 * and context-switch hooks. A kernel loads exactly one.
 */

#ifndef PCA_KERNEL_MODULE_HH
#define PCA_KERNEL_MODULE_HH

#include "cpu/core.hh"
#include "isa/program.hh"

namespace pca::kernel
{

class Kernel;

/** A kernel extension (perfctr or perfmon2). */
class KernelModule
{
  public:
    virtual ~KernelModule() = default;

    /** Short name for diagnostics. */
    virtual const char *name() const = 0;

    /**
     * Emit this module's handler blocks into the program and
     * register their syscall numbers with the kernel. Called once
     * per kernel image, by whichever machine boots it first: the
     * blocks are shared by every machine that loads this extension,
     * so their host ops capture nothing and reach the running
     * machine's module as Kernel::of(ctx).extension<M>() and its
     * core as Kernel::of(ctx).core(). Emission may depend only on
     * what the image key holds (processor, extension name, whether
     * k_hang exists).
     */
    virtual void buildBlocks(isa::Program &prog, Kernel &kernel) = 0;

    /** Measured thread is being switched out (save/stop counters). */
    virtual void onSwitchOut(cpu::Core &core) { (void)core; }

    /** Measured thread is being switched back in. */
    virtual void onSwitchIn(cpu::Core &core) { (void)core; }

    /**
     * Timer tick while the measured thread runs (per-thread
     * bookkeeping, event-set multiplex switching). Instruction cost
     * is modelled by tickExtraInstrs().
     */
    virtual void onTick(cpu::Core &core) { (void)core; }

    /**
     * Counter-overflow interrupt (sampling mode): record a sample
     * for the counter in Core::overflowedCounter().
     */
    virtual void onPmi(cpu::Core &core) { (void)core; }

    /**
     * Extra instructions this module adds to every timer tick
     * (per-thread counter bookkeeping in the tick path).
     */
    virtual int tickExtraInstrs() const { return 0; }

    /**
     * Drop all run-time state (sessions, staged syscall arguments,
     * read buffers) and return to the just-loaded state. Emitted
     * code blocks are untouched: they belong to the shared kernel
     * image, not to the module. A reset module must be
     * indistinguishable from a freshly constructed one as far as
     * program execution is concerned — the harness reuse path
     * (Machine::reboot) depends on it.
     */
    virtual void reset() {}
};

} // namespace pca::kernel

#endif // PCA_KERNEL_MODULE_HH
