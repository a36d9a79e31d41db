#include "kernel/kernel.hh"

#include <mutex>
#include <tuple>

#include "isa/assembler.hh"
#include "kernel/perfevent_mod.hh"
#include "obs/profile.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace pca::kernel
{

using isa::Assembler;
using isa::CpuContext;
using isa::Reg;

namespace
{

/** Mean cycles between I/O interrupts (~40 ms: rare). */
Cycles
ioMeanCycles(const cpu::MicroArch &arch)
{
    return static_cast<Cycles>(arch.ghz * 1e9 * 0.040);
}

} // namespace

Kernel::Kernel(const cpu::MicroArch &arch, KernelModule &ext,
               std::uint64_t seed, bool enable_io_interrupts,
               Cycles timer_period_override)
    : archRef(arch),
      schedRng(mixSeed(seed, 0x5eedULL)),
      intCtrl(timer_period_override != 0 ? timer_period_override
                                         : arch.timerPeriodCycles(),
              enable_io_interrupts ? ioMeanCycles(arch) : 0,
              interruptSeed(seed)),
      ext(ext)
{
}

void
Kernel::setFaultInjector(FaultInjector *injector)
{
    faults = injector;
    intCtrl.setFaultInjector(injector);
}

void
Kernel::registerSyscall(int nr, const std::string &block_name)
{
    if (syscallTable.count(nr))
        pca_panic("syscall ", nr, " registered twice");
    syscallTable[nr] = block_name;
}

void
Kernel::dispatchSyscall(CpuContext &ctx)
{
    const auto nr = static_cast<int>(ctx.getReg(Reg::Eax));
    auto it = image->syscalls.find(nr);
    if (it == image->syscalls.end())
        throw StatusError(Status(StatusCode::InvalidArgument,
                                 "unknown syscall " +
                                     std::to_string(nr)));
    if (faults) {
        // Central fault site: the dispatcher models the failure modes
        // a real counter syscall can hit, keyed by what the call does
        // rather than which API it belongs to.
        const bool is_open = nr == sysno::vperfctrOpen ||
                             nr == sysno::pfmCreate ||
                             nr == sysno_pe::perfEventOpen;
        const bool is_alloc = nr == sysno::vperfctrControl ||
                              nr == sysno::pfmWritePmcs;
        const bool is_read = nr == sysno::vperfctrRead ||
                             nr == sysno::pfmReadPmds ||
                             nr == sysno::pfmReadMpx ||
                             nr == sysno_pe::readFd;
        if (is_open && faults->fire(FaultKind::AttachFail))
            throw StatusError(Status(StatusCode::Unavailable,
                                     "injected: attach failed (" +
                                         it->second.name + ")"));
        if (is_alloc && faults->fire(FaultKind::CounterBusy))
            throw StatusError(Status(StatusCode::Busy,
                                     "injected: counters busy "
                                     "(EBUSY)"));
        if (is_read && faults->fire(FaultKind::ReadFail))
            throw StatusError(Status(StatusCode::Unavailable,
                                     "injected: counter read failed"));
        if (is_read && faults->fire(FaultKind::Hang)) {
            // The handler wedges instead of failing: control enters
            // the stuck poll loop and never returns. The watchdog
            // (Core run deadline) is the only way out.
            ctx.jumpTo(image->hang);
            return;
        }
    }
    ctx.jumpTo(it->second.block);
}

void
Kernel::dispatchInterrupt(CpuContext &ctx)
{
    const int vec = core().currentVector();
    if (vec == VecTimer)
        ctx.jumpTo(image->timer);
    else if (vec == VecIo)
        ctx.jumpTo(image->io);
    else if (vec == VecPmi)
        ctx.jumpTo(image->pmi);
    else
        pca_panic("interrupt dispatch with no active vector");
}

void
Kernel::decidePreemption(CpuContext &ctx)
{
    // Per-tick extension bookkeeping (e.g. perfmon2 event-set
    // multiplex switching) happens in the tick path.
    cpu::Core &c = core();
    if (profiler != nullptr)
        profiler->onTimerTick(c.lastInterruptedAddr(),
                              c.callChainAddrs());
    ext.onTick(c);
    if (schedRng.nextBool(preemptProb)) {
        // Give the kernel thread a short timeslice. From here until
        // iret the measured thread is descheduled, so the work is a
        // scheduling artifact, not timer service: re-class it.
        c.setAttrClass(obs::AttrClass::Preempt);
        PCA_SPC_INC(Preemptions);
        if (obs::traceEnabled())
            obs::tracer().instant("preempt", "sched", ctx.cycles());
        ctx.setReg(Reg::Ecx, 500 + schedRng.nextBelow(2500));
        ctx.jumpTo(image->preempt);
    } else {
        ctx.jumpTo(image->intExit);
    }
}

void
Kernel::doSwitchOut()
{
    ++ctxswCount;
    PCA_SPC_INC(ContextSwitches);
    ext.onSwitchOut(core());
}

void
Kernel::buildInto(isa::Program &prog)
{
    pca_assert(!built);
    const KernelCosts &kc = kcosts;
    auto scaled = [&](int n) { return kc.scaled(n, archRef); };

    {
        Assembler a("k_syscall_entry");
        a.push(Reg::Ebp)
            .push(Reg::Ebx)
            .push(Reg::Esi)
            .push(Reg::Edi)
            .work(scaled(kc.syscallEntryWork) - 4)
            .host([](CpuContext &ctx) { of(ctx).dispatchSyscall(ctx); });
        prog.add(a.take());
    }
    int sysexit;
    {
        Assembler a("k_sysexit");
        a.work(scaled(kc.syscallExitWork) - 4)
            .pop(Reg::Edi)
            .pop(Reg::Esi)
            .pop(Reg::Ebx)
            .pop(Reg::Ebp)
            .iret();
        sysexit = prog.add(a.take());
    }
    {
        Assembler a("k_int_entry");
        a.push(Reg::Eax)
            .push(Reg::Ecx)
            .push(Reg::Edx)
            .work(scaled(kc.intEntryWork) - 3)
            .host([](CpuContext &ctx) {
                of(ctx).dispatchInterrupt(ctx);
            });
        prog.add(a.take());
    }
    // Host ops capture the ids of blocks emitted before them; the
    // dispatchers reach later ones through the image (boot()).
    int int_exit;
    {
        Assembler a("k_int_exit");
        a.work(scaled(kc.intExitWork) - 3)
            .pop(Reg::Edx)
            .pop(Reg::Ecx)
            .pop(Reg::Eax)
            .iret();
        int_exit = prog.add(a.take());
    }
    {
        Assembler a("k_timer");
        // timerHandlerInstrs is already per-arch; no extra scaling.
        a.work(archRef.timerHandlerInstrs + ext.tickExtraInstrs())
            .host([](CpuContext &ctx) {
                of(ctx).decidePreemption(ctx);
            });
        prog.add(a.take());
    }
    {
        Assembler a("k_pmi");
        // PMI handler: acknowledge the overflow, hand it to the
        // extension that armed the counter (sample recording).
        a.work(scaled(160)).host([int_exit](CpuContext &ctx) {
            Kernel &k = of(ctx);
            k.ext.onPmi(k.core());
            ctx.jumpTo(int_exit);
        });
        prog.add(a.take());
    }
    {
        Assembler a("k_io");
        a.work(scaled(kc.ioHandlerWork))
            .host([int_exit](CpuContext &ctx) { ctx.jumpTo(int_exit); });
        prog.add(a.take());
    }
    {
        Assembler a("k_preempt");
        a.work(scaled(kc.ctxswOutWork) * 3 / 5)
            .host([](CpuContext &ctx) { of(ctx).doSwitchOut(); })
            .work(scaled(kc.ctxswOutWork) * 2 / 5);
        // Kernel-thread timeslice: ecx iterations of bookkeeping.
        a.movImm(Reg::Edx, 0);
        int loop = a.label();
        a.work(6)
            .addImm(Reg::Edx, 1)
            .cmpReg(Reg::Edx, Reg::Ecx)
            .jl(loop);
        a.work(scaled(kc.ctxswInWork) / 2)
            .host([](CpuContext &ctx) {
                Kernel &k = of(ctx);
                k.ext.onSwitchIn(k.core());
            })
            .work(scaled(kc.ctxswInWork) / 2)
            .host([int_exit](CpuContext &ctx) { ctx.jumpTo(int_exit); });
        prog.add(a.take());
    }
    {
        Assembler a("k_sys_getpid");
        a.work(scaled(120)).host(
            [sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }
    registerSyscall(sysno::getpid, "k_sys_getpid");

    if (canHang()) {
        // A wedged read handler: the classic stuck counter poll —
        // edx never becomes 1, the loop never exits, no iret is ever
        // reached, and (kernel mode) interrupts are never polled, so
        // only the core's run-deadline watchdog can end the run.
        // Emitted only when the plan can fire a Hang: an extra
        // kernel block shifts every later block's address, which
        // must not happen to machines that can never take this path.
        Assembler a("k_hang");
        a.movImm(Reg::Edx, 0);
        const int spin = a.label();
        a.work(4).cmpImm(Reg::Edx, 1).jne(spin);
        prog.add(a.take());
    }

    ext.buildBlocks(prog, *this);

    built = true;
}

bool
Kernel::canHang() const
{
    return faults && faults->plan().hangRate > 0;
}

std::shared_ptr<const KernelImage>
Kernel::boot()
{
    pca_assert(!built);
    // Everything buildInto reads: the processor (cost scale, timer
    // handler length), the extension (its blocks and tick cost) and
    // whether k_hang is emitted. Never evicted: at most
    // 3 processors x 3 extensions x 2 = 18 images.
    using Key = std::tuple<cpu::Processor, std::string, bool>;
    const Key key{archRef.processor, ext.name(), canHang()};

    static std::mutex mu;
    static std::map<Key, std::shared_ptr<const KernelImage>> images;
    const std::lock_guard<std::mutex> lock(mu);
    std::shared_ptr<const KernelImage> &slot = images[key];
    if (!slot) {
        auto img = std::make_shared<KernelImage>();
        buildInto(img->text);
        // Kernel text only, byte-granular like the user text that
        // Machine::finalize links over it.
        img->text.link(0xc0000000ULL, /*align=*/1);
        for (const auto &[nr, name] : syscallTable)
            img->syscalls[nr] = {img->text.entry(name).block, name};
        syscallTable.clear();
        const isa::Program &t = img->text;
        img->intExit = t.entry("k_int_exit").block;
        img->timer = t.entry("k_timer").block;
        img->io = t.entry("k_io").block;
        img->pmi = t.entry("k_pmi").block;
        img->preempt = t.entry("k_preempt").block;
        img->hang = t.find("k_hang");
        slot = std::move(img);
        PCA_SPC_INC(KernelImagesBuilt);
    }
    built = true;
    image = slot;
    return image;
}

void
Kernel::reset(std::uint64_t seed)
{
    // Mirror the constructor's seed derivations exactly: a reset
    // kernel replays the same interrupt phases and scheduling
    // decisions as one freshly constructed with this seed.
    schedRng = Rng(mixSeed(seed, 0x5eedULL));
    intCtrl.reset(interruptSeed(seed));
    ctxswCount = 0;
    ext.reset();
}

Status
Kernel::attach(cpu::Core &core)
{
    if (!image)
        return Status(StatusCode::FailedPrecondition,
                      "attach before boot");
    attachedCore = &core;
    core.setSyscallEntry(image->text.entry("k_syscall_entry"));
    core.setInterruptEntry(image->text.entry("k_int_entry"));
    core.setInterruptClient(&intCtrl);
    core.setHostEnv(this);
    return OkStatus();
}

} // namespace pca::kernel
