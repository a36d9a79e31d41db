/**
 * @file
 * A complete simulated platform: one processor core, a kernel with
 * the appropriate extension loaded, and the user-space measurement
 * library stack — one of the two "patched kernels" of the paper's
 * §3.3, which stayed booted while each factor combination ran as a
 * new executable on it. The kernel's code is one immutable image per
 * (processor, extension, hang plan), shared by every machine that
 * boots it; each machine owns its kernel and module state, its core,
 * and its user program, which it can unload to link another.
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

/**
 * Process-wide default for MachineConfig::decodeCache: true unless
 * the environment sets PCA_DECODE=0/off/false. Every machine, raw or
 * built by a session, reads it through that default, so this is the
 * one switch that flips every run to pure per-step interpretation —
 * the lever CI's engine byte-identity diff pulls.
 */
bool defaultDecodeCache();

/**
 * Platform configuration for one measurement run. The environment
 * defaults (PCA_DECODE, PCA_PROFILE) are read here, so they reach
 * every machine.
 */
struct MachineConfig
{
    cpu::Processor processor = cpu::Processor::Core2Duo;
    Interface iface = Interface::Pm;
    /**
     * Seed of the first boot, and the seed HarnessSession::run()
     * runs with; every run reboots with its own (Machine::reboot).
     */
    std::uint64_t seed = 1;

    /** Model timer + I/O interrupts (off = idealized machine). */
    bool interruptsEnabled = true;
    /** Model rare I/O interrupts in addition to the timer. */
    bool ioInterrupts = true;
    /** Per-tick probability of preemption by a kernel thread. */
    double preemptProb = 0.015;
    /** Loop fast-forwarding in the interpreter (results identical). */
    bool fastForward = true;
    /** Basic-block execution engine (results identical; PCA_DECODE). */
    bool decodeCache = defaultDecodeCache();
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
     * interrupt queue, and the PMU read path. Its retry policy
     * (FaultPlan::retry) is what HarnessSession::tryRun retries by.
     */
    kernel::FaultPlan faults;

    /**
     * Sampling-profiler configuration (default: PCA_PROFILE, inert
     * when unset). When enabled the machine boots an obs::Profiler
     * wired into the core's retire path and the kernel's timer tick;
     * the run itself is unperturbed (samples ride existing
     * interrupts and cost no simulated cycles; asserted by
     * tests/test_profile.cc), but execution drops to exact per-step
     * interpretation.
     */
    obs::ProfileConfig profile = obs::ProfileConfig::fromEnv();

    /**
     * Nonzero: cycles between timer ticks instead of the processor's
     * HZ=1000 period. A profiling study's lever for sample density
     * on short benchmarks; it changes the simulated machine.
     */
    Cycles timerPeriodOverride = 0;

    /**
     * Watchdog: retired-instruction budget per run(); exceeding it
     * aborts the run with a DeadlineExceeded status instead of
     * wedging (or hitting the interpreter's 1G-instruction runaway
     * guard, a ResourceExhausted status that is never retried). 0 =
     * unlimited. When 0, faults.watchdogInstrs applies instead, so a
     * fault plan with hangs carries its own watchdog.
     */
    Count runInstrBudget = 0;

    /** Watchdog: virtual-cycle budget per run(); 0 = unlimited. */
    Cycles runCycleBudget = 0;

    bool operator==(const MachineConfig &) const = default;
};

/**
 * Whether a machine booted for @p a serves @p b: the configs are
 * equal in every field but seed. The seed only picks what
 * reboot(seed) replaces, so after reboot(s) either machine runs a
 * program exactly as one freshly booted for @p b with seed s.
 */
bool sameMachine(const MachineConfig &a, const MachineConfig &b);

/**
 * One booted machine. The paper ran each measurement in a fresh
 * process on a quiet, booted machine; correspondingly a Machine
 * links one user program, reboots before each of its runs, and can
 * unload() the program to link the next one over the same kernel
 * text (HarnessSession keeps one idle machine per thread for that).
 */
class Machine
{
  public:
    explicit Machine(const MachineConfig &cfg);

    const cpu::MicroArch &arch() const { return archRef; }
    /** The config it booted with (its seed is the first boot's). */
    const MachineConfig &config() const { return cfg; }
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

    /**
     * Drop the user program, whose host ops may point into its
     * caller, so that addUserBlock() and finalize() can link another
     * over the same kernel text. Core, kernel, modules and libraries
     * stay booted; the next program's runs start with reboot().
     */
    void unload();

    /** Execute from the named user block until Halt. */
    cpu::RunResult run(const std::string &entry = "main");

    /**
     * Like run(), but a StatusError raised on the kernel's fallible
     * boundaries (syscall dispatch, module preconditions, injected
     * faults) is returned as a Status instead of propagating, and an
     * @p entry that names no linked block returns NotFound.
     */
    StatusOr<cpu::RunResult> tryRun(const std::string &entry = "main");

    /** The machine's profiler (null when profiling is disabled). */
    obs::Profiler *profiler() { return prof.get(); }

    /**
     * Re-boot the machine for another run without re-assembling or
     * re-linking: core, kernel, and module state return to the
     * power-on defaults, and every seed input (see seedHorizon) is
     * re-seeded from @p seed. After reboot(s), run() produces
     * results identical to those of a freshly constructed Machine
     * with seed s running the same program, also after unload() and
     * a new program — the equivalence HarnessSession's session and
     * machine reuse are built on, asserted by tests/test_parallel.cc
     * and tests/test_machine_reuse.cc. Only valid once finalized.
     */
    void reboot(std::uint64_t seed);

    /**
     * The first cycle at which a boot with @p seed can reach a run,
     * computed without rebooting: what reboot(@p seed) would leave
     * due. The seed has exactly four inputs:
     *  - the interrupt controller's schedule (timer phase, I/O
     *    arrivals);
     *  - the kernel's scheduler RNG, drawn only in the timer handler;
     *  - the fault injector;
     *  - the profiler, whose samples ride the timer ticks.
     * The core polls interrupts only in user mode, at cycles no later
     * than the run's end. So this is 0 with a fault injector or a
     * profiler attached, the kernel's first interrupt cycle for
     * @p seed with interrupts on, and never (the maximum) otherwise.
     * A run that ends before it takes no interrupt and is the same
     * run for every seed: HarnessSession's result reuse (DESIGN
     * §6.6).
     */
    Cycles seedHorizon(std::uint64_t seed) const;

  private:
    /** The configured sampler's samples; 0 unless counted. */
    Count profileSamples() const;

    MachineConfig cfg;
    const cpu::MicroArch &archRef;
    std::unique_ptr<cpu::Core> coreImpl;
    std::unique_ptr<kernel::PerfctrModule> pcMod;
    std::unique_ptr<kernel::PerfmonModule> pmMod;
    std::unique_ptr<kernel::PerfEventModule> peMod;
    std::unique_ptr<kernel::Kernel> kernelImpl; //!< refers to a module
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
