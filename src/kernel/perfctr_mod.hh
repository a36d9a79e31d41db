/**
 * @file
 * The perfctr kernel extension (Pettersson's perfctr 2.6.29 patch in
 * the paper's setup).
 *
 * perfctr's defining feature is its *fast user-mode read path*: a
 * task's virtualized counters are exposed through an mmap'd state
 * page, and user code reads them with RDPMC plus a resume-count
 * consistency loop — no syscall. The fast path requires the TSC to
 * be enabled in the control (the protocol uses the TSC to detect
 * descheduling); with the TSC disabled the library must fall back to
 * a much slower read syscall. Section 4.1 / Figure 4 of the paper
 * hinge on exactly this behaviour.
 */

#ifndef PCA_KERNEL_PERFCTR_MOD_HH
#define PCA_KERNEL_PERFCTR_MOD_HH

#include <vector>

#include "cpu/event.hh"
#include "kernel/kernel.hh"
#include "kernel/module.hh"

namespace pca::kernel
{

/** Counter configuration requested through vperfctr_control. */
struct PerfctrControl
{
    std::vector<cpu::EventType> events; //!< one per counter, 0 first
    PlMask pl = PlMask::UserKernel;
    bool tscOn = true; //!< map the TSC into the state page
};

/**
 * Kernel half of perfctr. The user-space library (pca::perfctr)
 * communicates with it through the syscall ABI (control requests
 * staged in #pendingControl) and through the mmap'd state page
 * (resumeCount(), counter start values).
 */
class PerfctrModule : public KernelModule
{
  public:
    explicit PerfctrModule(const cpu::MicroArch &arch);

    const char *name() const override { return "perfctr"; }
    void buildBlocks(isa::Program &prog, Kernel &kernel) override;
    void onSwitchOut(cpu::Core &core) override;
    void onSwitchIn(cpu::Core &core) override;
    int tickExtraInstrs() const override { return 40; }
    void reset() override;

    // --- syscall ABI staging (set by libperfctr before the trap) ---
    PerfctrControl pendingControl;

    // --- results of the slow read syscall ---
    std::vector<Count> readBuf;
    Count readTsc = 0;

    // --- mmap'd state page (read by the fast user-mode path) ---
    std::uint32_t resumeCount() const { return resumes; }
    bool sessionActive() const { return active; }

  private:
    const cpu::MicroArch &archRef;

    PerfctrControl control;
    bool active = false;
    std::uint32_t resumes = 0;
    std::vector<bool> suspendedEnables; //!< enables saved at switch-out
};

} // namespace pca::kernel

#endif // PCA_KERNEL_PERFCTR_MOD_HH
