#include "harness/machine.hh"

#include <cstdlib>
#include <cstring>

#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace pca::harness
{

bool
defaultDecodeCache()
{
    const char *spec = std::getenv("PCA_DECODE");
    if (!spec || !*spec)
        return true;
    return !(std::strcmp(spec, "0") == 0 ||
             std::strcmp(spec, "off") == 0 ||
             std::strcmp(spec, "false") == 0);
}

Machine::Machine(const MachineConfig &cfg)
    : cfg(cfg), archRef(cpu::microArch(cfg.processor))
{
    PCA_SPC_INC(MachineBoots);
    coreImpl = std::make_unique<cpu::Core>(archRef);
    if (cfg.profile.enabled)
        prof = std::make_unique<obs::Profiler>(cfg.profile);

    // Load exactly one extension, mirroring the paper's two patched
    // kernels (a perfctr kernel and a perfmon2 kernel) — or the
    // modern perf_event replacement for the forward-looking study.
    kernel::KernelModule *ext;
    if (cfg.usePerfEvent) {
        peMod = std::make_unique<kernel::PerfEventModule>(archRef);
        peLib = std::make_unique<perfevent::LibPerf>(*peMod);
        ext = peMod.get();
    } else if (usesPerfmon(cfg.iface)) {
        pmMod = std::make_unique<kernel::PerfmonModule>(archRef);
        pmLib = std::make_unique<perfmon::LibPfm>(*pmMod);
        ext = pmMod.get();
    } else {
        pcMod = std::make_unique<kernel::PerfctrModule>(archRef);
        pcLib = std::make_unique<perfctr::LibPerfctr>(*pcMod);
        ext = pcMod.get();
    }
    kernelImpl = std::make_unique<kernel::Kernel>(
        archRef, *ext, cfg.seed, cfg.ioInterrupts,
        cfg.timerPeriodOverride);
    kernelImpl->setPreemptProbability(cfg.preemptProb);

    if (cfg.faults.enabled()) {
        injector = std::make_unique<kernel::FaultInjector>(cfg.faults,
                                                           cfg.seed);
        kernelImpl->setFaultInjector(injector.get());
        coreImpl->pmu().setCounterWidth(cfg.faults.counterWidthBits);
        if (cfg.faults.tornRate > 0) {
            // Torn read: the two 32-bit halves of the counter come
            // from different instants, so the value is off by 2^32 —
            // the classic unsynchronized 64-bit read failure.
            coreImpl->pmu().setReadTamper(
                [inj = injector.get()](Count v) {
                    if (!inj->fire(kernel::FaultKind::TornRead))
                        return v;
                    const Count carry = Count{1} << 32;
                    return v >= carry ? v - carry : v + carry;
                });
        }
    }

    // The kernel text is shared with every machine of this
    // processor, extension and hang plan; user blocks follow it.
    const std::shared_ptr<const kernel::KernelImage> image =
        kernelImpl->boot();
    prog = isa::Program(
        std::shared_ptr<const isa::Program>(image, &image->text));
}

bool
sameMachine(const MachineConfig &a, const MachineConfig &b)
{
    MachineConfig reseeded = b;
    reseeded.seed = a.seed;
    return a == reseeded;
}

int
Machine::addUserBlock(isa::CodeBlock block)
{
    pca_assert(!finalized);
    return prog.add(std::move(block));
}

void
Machine::finalize(Addr user_text_offset)
{
    pca_assert(!finalized);
    // Byte-granular user-text placement: the paper's placement
    // effects move the loop by single bytes (different executables),
    // so user blocks must not be re-aligned away from the offset.
    // The kernel image is already linked at 0xc0000000.
    prog.link(0x08048000ULL + user_text_offset, /*align=*/1);
    coreImpl->setProgram(&prog);
    coreImpl->setFastForwardEnabled(cfg.fastForward);
    coreImpl->setBlockEngineEnabled(cfg.decodeCache);
    coreImpl->setRunDeadline(
        cfg.runInstrBudget != 0 ? cfg.runInstrBudget
                                : cfg.faults.watchdogInstrs,
        cfg.runCycleBudget != 0 ? cfg.runCycleBudget
                                : cfg.faults.watchdogCycles);
    const Status attach_status = kernelImpl->attach(*coreImpl);
    pca_assert(attach_status.ok());
    if (!cfg.interruptsEnabled)
        coreImpl->setInterruptClient(nullptr);
    if (prof) {
        // Every linked code block is one symbol — the function
        // granularity the assembler works at.
        std::vector<obs::ProfileSymbol> symbols;
        symbols.reserve(prog.blockCount());
        for (std::size_t b = 0; b < prog.blockCount(); ++b) {
            const isa::CodeBlock &blk =
                prog.block(static_cast<int>(b));
            symbols.push_back({blk.name(), blk.baseAddr(),
                               static_cast<Count>(blk.bytes())});
        }
        prof->setSymbols(std::move(symbols));
        coreImpl->setProfiler(prof.get());
        kernelImpl->setProfiler(prof.get());
    }
    finalized = true;
}

void
Machine::unload()
{
    prog.clear();
    finalized = false;
}

void
Machine::reboot(std::uint64_t seed)
{
    pca_assert(finalized);
    PCA_SPC_INC(MachineReboots);
    // Core::reset keeps what finalize() installed: the program, trap
    // entries, interrupt client (or its interrupts-off absence),
    // engine toggles and watchdog deadline.
    coreImpl->reset();
    kernelImpl->reset(seed);
    // Re-seed the injector so runs after reboot(s) replay the same
    // fault schedule as a fresh boot with seed s (the reboot
    // equivalence extends to chaos runs). The Pmu width/tamper hooks
    // survive Core::reset by design — they model hardware, not state.
    if (injector)
        injector->reset(seed);
    if (prof)
        prof->reset();
}

Cycles
Machine::seedHorizon(std::uint64_t seed) const
{
    if (injector || prof)
        return 0;
    if (!cfg.interruptsEnabled)
        return ~Cycles{0};
    return kernelImpl->firstInterruptCycle(seed);
}

Count
Machine::profileSamples() const
{
    return prof && obs::spcEnabled(obs::Spc::ProfileSamples)
        ? prof->sample().samples
        : 0;
}

cpu::RunResult
Machine::run(const std::string &entry)
{
    return tryRun(entry).value();
}

StatusOr<cpu::RunResult>
Machine::tryRun(const std::string &entry)
{
    pca_assert(finalized);
    const int entry_block = prog.find(entry);
    if (entry_block < 0)
        return Status(StatusCode::NotFound,
                      "no block named '" + entry + "'");
    PCA_SPC_INC(RunsExecuted);
    // profile_samples counts what a run adds to the profiler's record
    // (a run without a reboot before it extends the last one's).
    const Count samples_before = profileSamples();
    const Cycles t0 = coreImpl->cycles();
    cpu::RunResult res;
    try {
        res = coreImpl->run(isa::CodePtr{entry_block, 0});
    } catch (const StatusError &e) {
        PCA_SPC_ADD(ProfileSamples, profileSamples() - samples_before);
        // A fallible kernel boundary refused mid-run (bad syscall,
        // module precondition, injected fault), or the run-deadline
        // watchdog fired. The machine state is torn; the caller
        // reboots before reusing it.
        if (e.status().code() == StatusCode::DeadlineExceeded)
            PCA_SPC_INC(DeadlineExceededRuns);
        if (obs::traceEnabled())
            obs::tracer().instant("run-error:" + e.status().toString(),
                                  "machine", coreImpl->cycles());
        return e.status();
    }
    PCA_SPC_ADD(ProfileSamples, profileSamples() - samples_before);
    if (obs::traceEnabled())
        obs::tracer().complete("run:" + entry, "machine", t0,
                               coreImpl->cycles() - t0);
    return res;
}

} // namespace pca::harness
