/**
 * @file
 * A perf_event-style kernel interface (forward-looking extension).
 *
 * Neither perfctr nor perfmon2 was ever merged: Linux 2.6.31 replaced
 * both with perf_event, the interface a modern reproduction of the
 * paper would have to use (see the repro notes in DESIGN.md). Its
 * design differs from both studied extensions in ways that matter
 * for measurement accuracy:
 *
 *  - one file descriptor *per event* (perf_event_open), configured
 *    by a heavyweight syscall;
 *  - enable/disable via ioctl (optionally for a whole event group);
 *  - counter values read with a read() syscall *per fd* — so the
 *    per-counter read cost is a whole syscall, worse than perfmon2's
 *    per-PMD copy loop;
 *  - a per-event mmap'd page with a seqlock that enables an
 *    RDPMC-based user-space read — the modern descendant of
 *    perfctr's fast read path.
 *
 * bench/ext_perf_event re-runs the paper's Table 3/Figure 5 questions
 * against this interface.
 */

#ifndef PCA_KERNEL_PERFEVENT_MOD_HH
#define PCA_KERNEL_PERFEVENT_MOD_HH

#include <vector>

#include "cpu/event.hh"
#include "kernel/kernel.hh"
#include "kernel/module.hh"

namespace pca::kernel
{

namespace sysno_pe
{
constexpr int perfEventOpen = 400;
constexpr int ioctlEnable = 401;  //!< PERF_EVENT_IOC_ENABLE (group)
constexpr int ioctlDisable = 402; //!< PERF_EVENT_IOC_DISABLE (group)
constexpr int readFd = 403;       //!< read(fd): one counter value
} // namespace sysno_pe

/** One open perf event ("file descriptor"). */
struct PerfEventFd
{
    cpu::EventType event = cpu::EventType::InstrRetired;
    PlMask pl = PlMask::UserKernel;
    int counter = -1; //!< PMU counter index backing this event
    bool enabled = false;
    std::uint32_t mmapSeq = 0; //!< seqlock in the mmap'd page
};

/** Kernel half of the perf_event analogue. */
class PerfEventModule : public KernelModule
{
  public:
    explicit PerfEventModule(const cpu::MicroArch &arch);

    const char *name() const override { return "perf_event"; }
    void buildBlocks(isa::Program &prog, Kernel &kernel) override;
    void onSwitchOut(cpu::Core &core) override;
    void onSwitchIn(cpu::Core &core) override;
    int tickExtraInstrs() const override { return 120; }
    void reset() override;

    // --- syscall ABI staging ---
    /** Attributes for the next perf_event_open call. */
    cpu::EventType pendingEvent = cpu::EventType::InstrRetired;
    PlMask pendingPl = PlMask::UserKernel;
    /** fd argument for ioctl/read calls. */
    int argFd = -1;

    /** Result of the last read(fd). */
    Count readValue = 0;

    int openFds() const { return static_cast<int>(fds.size()); }
    const PerfEventFd &fd(int i) const
    {
        return fds.at(static_cast<std::size_t>(i));
    }

  private:
    const cpu::MicroArch &archRef;
    std::vector<PerfEventFd> fds;
    std::vector<bool> suspendedEnables;
};

} // namespace pca::kernel

#endif // PCA_KERNEL_PERFEVENT_MOD_HH
