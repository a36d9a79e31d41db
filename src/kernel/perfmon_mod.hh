/**
 * @file
 * The perfmon2 kernel extension (Eranian's perfmon2 patch, version
 * 2.6.22-070725 in the paper's setup).
 *
 * perfmon2 is entirely syscall-based: creating a context, writing
 * PMC (config) and PMD (data) registers, starting, stopping, and —
 * crucially — *reading* all go through the kernel. Its read path
 * copies the requested PMDs one at a time, which is why Figure 5 of
 * the paper sees roughly +100 instructions of user+kernel error per
 * additional measured counter.
 */

#ifndef PCA_KERNEL_PERFMON_MOD_HH
#define PCA_KERNEL_PERFMON_MOD_HH

#include <vector>

#include "cpu/event.hh"
#include "kernel/kernel.hh"
#include "kernel/module.hh"

namespace pca::kernel
{

/** PMC programming requested through pfm_write_pmcs. */
struct PerfmonConfig
{
    std::vector<cpu::EventType> events; //!< one per PMC, PMC0 first
    PlMask pl = PlMask::UserKernel;
};

/**
 * Event-set multiplexing request (pfm_create_evtsets): groups of
 * events rotated through the physical counters on timer ticks. The
 * reported value of each event is its raw count scaled by the
 * inverse of the fraction of ticks its group was live — the
 * "time interpolation" whose accuracy Mytkowicz et al. (paper §9)
 * study.
 */
struct PerfmonMpxSpec
{
    std::vector<std::vector<cpu::EventType>> groups;
    PlMask pl = PlMask::UserKernel;
};

/**
 * Sampling setup (pfm_set_smpl-style): counter 0 counts @p event and
 * raises a PMI every @p period occurrences; the handler records the
 * interrupted instruction address into the sample buffer — the
 * "sampling" usage model Moore contrasts with counting (paper §9).
 */
struct PerfmonSamplingSpec
{
    cpu::EventType event = cpu::EventType::InstrRetired;
    PlMask pl = PlMask::User;
    Count period = 10000;
};

/** Kernel half of perfmon2. */
class PerfmonModule : public KernelModule
{
  public:
    explicit PerfmonModule(const cpu::MicroArch &arch);

    const char *name() const override { return "perfmon2"; }
    void buildBlocks(isa::Program &prog, Kernel &kernel) override;
    void onSwitchOut(cpu::Core &core) override;
    void onSwitchIn(cpu::Core &core) override;
    void onTick(cpu::Core &core) override;
    void onPmi(cpu::Core &core) override;
    int tickExtraInstrs() const override { return 90; }
    void reset() override;

    // --- syscall ABI staging (set by libpfm before the trap) ---
    PerfmonConfig pendingConfig;
    PerfmonMpxSpec pendingMpx;
    PerfmonSamplingSpec pendingSampling;

    // --- results of pfm_read_pmds ---
    std::vector<Count> readBuf;

    /**
     * Results of pfm_read_mpx: scaled per-event estimates in group
     * order (group 0 slot 0, group 0 slot 1, ..., group 1 slot 0,
     * ...). Events whose group never got a tick report 0.
     */
    std::vector<double> mpxReadBuf;

    bool contextLoaded() const { return loaded; }
    bool started() const { return running; }
    bool multiplexing() const { return mpxOn; }
    bool sampling() const { return samplingOn; }

    /** Recorded sample addresses (the mmap'd sampling buffer). */
    const std::vector<Addr> &samples() const { return sampleBuf; }
    Count mpxTicks() const { return mpxTotalTicks; }

  private:
    /** Events live on the PMU right now. */
    const std::vector<cpu::EventType> &activeEvents() const;
    void programGroup(cpu::Core &core, int group, bool zero_values);

    const cpu::MicroArch &archRef;

    PerfmonConfig config;
    bool loaded = false;
    bool running = false;
    std::vector<bool> suspendedEnables;

    // Sampling state.
    bool samplingOn = false;
    PerfmonSamplingSpec smpl;
    std::vector<Addr> sampleBuf;

    // Multiplexing state.
    PerfmonMpxSpec mpx;
    bool mpxOn = false;
    bool mpxRunning = false;
    int mpxCurGroup = 0;
    Count mpxTotalTicks = 0;
    std::vector<Count> mpxGroupTicks;       //!< ticks each group ran
    std::vector<std::vector<Count>> mpxSoft; //!< accumulated counts
};

} // namespace pca::kernel

#endif // PCA_KERNEL_PERFMON_MOD_HH
