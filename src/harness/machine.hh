/**
 * @file
 * A complete simulated platform: one processor core, a kernel with
 * the appropriate extension loaded, and the user-space measurement
 * library stack — one of the two "patched kernels" of the paper's
 * §3.3, booted fresh for every measurement run. The kernel's code is
 * one immutable image per (processor, extension, hang plan), shared
 * by every machine that boots it; each machine owns its kernel and
 * module state, its core, and its user program.
 */

#ifndef PCA_HARNESS_MACHINE_HH
#define PCA_HARNESS_MACHINE_HH

#include <memory>
#include <string>

#include "cpu/core.hh"
#include "harness/interface.hh"
#include "isa/program.hh"
#include "kernel/kernel.hh"
#include "kernel/perfctr_mod.hh"
#include "kernel/perfevent_mod.hh"
#include "kernel/perfmon_mod.hh"
#include "obs/profile.hh"
#include "perfctr/libperfctr.hh"
#include "perfevent/libperf.hh"
#include "perfmon/libpfm.hh"

namespace pca::harness
{

/** Platform configuration for one measurement run. */
struct MachineConfig
{
    cpu::Processor processor = cpu::Processor::Core2Duo;
    Interface iface = Interface::Pm;
    std::uint64_t seed = 1;

    /** Model timer + I/O interrupts (off = idealized machine). */
    bool interruptsEnabled = true;
    /** Model rare I/O interrupts in addition to the timer. */
    bool ioInterrupts = true;
    /** Per-tick probability of preemption by a kernel thread. */
    double preemptProb = 0.015;
    /** Loop fast-forwarding in the interpreter (results identical). */
    bool fastForward = true;
    /** Basic-block execution engine (results identical). */
    bool decodeCache = true;
    /** Unused: nothing reads it; kept so old callers still build. */
    bool traceTier = true;

    /**
     * Load the perf_event analogue instead of the interface's
     * perfctr/perfmon2 extension (the forward-looking study in
     * bench/ext_perf_event). The six-interface API surface does not
     * apply; drive libPerf() directly.
     */
    bool usePerfEvent = false;

    /**
     * Fault-injection plan (default: inert). When enabled() the
     * machine boots a FaultInjector seeded from (faults.seed, seed)
     * and threads it into the kernel's syscall dispatch, the
     * interrupt queue, and the PMU read path.
     */
    kernel::FaultPlan faults;

    /**
     * Sampling-profiler configuration (default: inert). When enabled
     * the machine boots an obs::Profiler wired into the core's
     * retire path and the kernel's timer tick; the run itself is
     * unperturbed (samples ride existing interrupts and cost no
     * simulated cycles), but execution drops to exact per-step
     * interpretation.
     */
    obs::ProfileConfig profile;

    /**
     * Nonzero: cycles between timer ticks instead of the processor's
     * HZ=1000 period. A profiling study's lever for sample density
     * on short benchmarks; changes the simulated machine, so it is
     * deliberately absent from HarnessConfig.
     */
    Cycles timerPeriodOverride = 0;

    /**
     * Watchdog: retired-instruction budget per run(); exceeding it
     * aborts the run with a DeadlineExceeded status instead of
     * wedging (or hitting the interpreter's 500M-step runaway guard,
     * a ResourceExhausted status that is never retried). 0 =
     * unlimited. When 0, faults.watchdogInstrs applies instead, so a
     * fault plan with hangs carries its own watchdog.
     */
    Count runInstrBudget = 0;

    /** Watchdog: virtual-cycle budget per run(); 0 = unlimited. */
    Cycles runCycleBudget = 0;
};

/**
 * One booted machine. The paper ran each measurement in a fresh
 * process on a quiet machine; correspondingly a Machine is built,
 * runs one measurement program, and is discarded.
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    const cpu::MicroArch &arch() const { return archRef; }
    Interface iface() const { return cfg.iface; }
    cpu::Core &core() { return *coreImpl; }
    kernel::Kernel &kernel() { return *kernelImpl; }
    isa::Program &program() { return prog; }

    /** Kernel module handles (null when not loaded). */
    kernel::PerfctrModule *perfctrModule() { return pcMod.get(); }
    kernel::PerfmonModule *perfmonModule() { return pmMod.get(); }
    kernel::PerfEventModule *perfEventModule()
    {
        return peMod.get();
    }

    /** User library handles (null when the substrate is absent). */
    perfctr::LibPerfctr *libPerfctr() { return pcLib.get(); }
    perfmon::LibPfm *libPfm() { return pmLib.get(); }
    perfevent::LibPerf *libPerf() { return peLib.get(); }

    /**
     * Add a user code block (before finalize). Its id follows the
     * kernel image's blocks; its name must not be a kernel block's.
     */
    int addUserBlock(isa::CodeBlock block);

    /**
     * Link and attach everything. @p user_text_offset shifts the
     * user text base, modelling a differently laid out executable.
     */
    void finalize(Addr user_text_offset = 0);

    /** Execute from the named user block until Halt. */
    cpu::RunResult run(const std::string &entry = "main");

    /**
     * Like run(), but a StatusError raised on the kernel's fallible
     * boundaries (syscall dispatch, module preconditions, injected
     * faults) is returned as a Status instead of propagating, and an
     * @p entry that names no linked block returns NotFound.
     */
    StatusOr<cpu::RunResult> tryRun(const std::string &entry = "main");

    /** The machine's fault injector (null when the plan is inert). */
    kernel::FaultInjector *faultInjector() { return injector.get(); }

    /** The machine's profiler (null when profiling is disabled). */
    obs::Profiler *profiler() { return prof.get(); }

    /**
     * Re-boot the machine for another run without re-assembling or
     * re-linking: core, kernel, and module state return to the
     * power-on defaults, and every seed input (see seedHorizon) is
     * re-seeded from @p seed. After reboot(s), run() produces
     * results identical to those of a freshly constructed Machine
     * with seed s running the same program — the equivalence
     * HarnessSession's session reuse is built on, asserted by
     * tests/test_parallel.cc. Only valid once finalized.
     */
    void reboot(std::uint64_t seed);

    /**
     * The first cycle at which the current boot's seed can reach a
     * run. The seed has exactly four inputs:
     *  - the interrupt controller's schedule (timer phase, I/O
     *    arrivals);
     *  - the kernel's scheduler RNG, drawn only in the timer handler;
     *  - the fault injector;
     *  - the profiler, whose samples ride the timer ticks.
     * The core polls interrupts only in user mode, at cycles no later
     * than the run's end. So this is 0 with a fault injector or a
     * profiler attached, the kernel's next interrupt cycle with
     * interrupts on, and never (the maximum) otherwise. A run that
     * ends before it takes no interrupt and is the same run for every
     * seed: HarnessSession's result reuse (DESIGN §6.6).
     */
    Cycles seedHorizon() const;

  private:
    MachineConfig cfg;
    const cpu::MicroArch &archRef;
    std::unique_ptr<cpu::Core> coreImpl;
    std::unique_ptr<kernel::Kernel> kernelImpl;
    std::unique_ptr<kernel::PerfctrModule> pcMod;
    std::unique_ptr<kernel::PerfmonModule> pmMod;
    std::unique_ptr<kernel::PerfEventModule> peMod;
    std::unique_ptr<perfctr::LibPerfctr> pcLib;
    std::unique_ptr<perfmon::LibPfm> pmLib;
    std::unique_ptr<perfevent::LibPerf> peLib;
    std::unique_ptr<kernel::FaultInjector> injector;
    std::unique_ptr<obs::Profiler> prof;
    isa::Program prog; //!< user blocks over the shared kernel text
    bool finalized = false;
};

} // namespace pca::harness

#endif // PCA_HARNESS_MACHINE_HH
