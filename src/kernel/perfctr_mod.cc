#include "kernel/perfctr_mod.hh"

#include "cpu/pmu.hh"
#include "isa/assembler.hh"
#include "support/logging.hh"
#include "support/status.hh"

namespace pca::kernel
{

using cpu::Pmu;
using isa::Assembler;
using isa::CpuContext;
using isa::Reg;

namespace
{

/** The perfctr module of the kernel a HostOp runs under. */
PerfctrModule &
modOf(CpuContext &ctx)
{
    return Kernel::of(ctx).extension<PerfctrModule>();
}

} // namespace

PerfctrModule::PerfctrModule(const cpu::MicroArch &arch)
    : archRef(arch)
{
}

void
PerfctrModule::buildBlocks(isa::Program &prog, Kernel &kernel)
{
    const KernelCosts &kc = kernel.costs();
    auto scaled = [&](int n) { return kc.scaled(n, archRef); };
    // Handlers leave through the kernel's exit path, emitted before
    // any module block.
    const int sysexit = prog.entry("k_sysexit").block;

    // --- vperfctr open: create the per-task state, map the state
    // page, and set CR4.PCE so RDPMC works from user mode. ---
    {
        Assembler a("pc_sys_open");
        a.work(scaled(kc.pcOpenWork)).host([sysexit](CpuContext &ctx) {
            // Mapping the state page sets CR4.PCE for this task.
            Kernel::of(ctx).core().allowUserRdpmc(true);
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    // --- vperfctr control: reset + program + start the counters.
    // Counter 0 is configured last so that almost no kernel work is
    // counted once the primary counter is live (perfctr's control
    // path enables on its way out). ---
    {
        Assembler a("pc_sys_control");
        a.work(scaled(kc.pcControlPre));
        a.host([](CpuContext &ctx) {
            PerfctrModule &m = modOf(ctx);
            if (m.pendingControl.events.empty())
                throw StatusError(
                    Status(StatusCode::InvalidArgument,
                           "vperfctr control: no events"));
            m.control = m.pendingControl;
            m.readBuf.assign(m.control.events.size(), 0);
            ctx.setReg(Reg::Edx, m.control.events.size());
        });
        int loop = a.label();
        a.subImm(Reg::Edx, 1);
        a.work(scaled(kc.pcControlPerCtr));
        // Zero the counter value (the "reset" half).
        a.host([](CpuContext &ctx) {
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrPmcBase + i);
            ctx.setReg(Reg::Eax, 0);
        });
        a.wrmsr();
        // Program + enable (the "start" half).
        a.host([](CpuContext &ctx) {
            const PerfctrModule &m = modOf(ctx);
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax,
                       Pmu::encodeEvtSel(m.control.events[i],
                                         m.control.pl, true));
        });
        a.wrmsr();
        a.cmpImm(Reg::Edx, 0);
        a.jne(loop);
        a.host([](CpuContext &ctx) { modOf(ctx).active = true; });
        a.work(scaled(kc.pcControlPost));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- vperfctr stop: disable counting. Counter 0 is disabled
    // first, so the rest of the path is invisible to it. ---
    {
        Assembler a("pc_sys_stop");
        a.work(scaled(kc.pcStopPre));
        a.host([](CpuContext &ctx) {
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, modOf(ctx).control.events.size());
        });
        int loop = a.label();
        a.work(2);
        a.host([](CpuContext &ctx) {
            const PerfctrModule &m = modOf(ctx);
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax,
                       Pmu::encodeEvtSel(m.control.events[i],
                                         m.control.pl, false));
        });
        a.wrmsr();
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.host([](CpuContext &ctx) { modOf(ctx).active = false; });
        a.work(scaled(kc.pcStopPost));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- vperfctr read (slow syscall path, used when the control
    // has the TSC disabled): copy the full per-counter state. ---
    {
        Assembler a("pc_sys_read");
        a.work(scaled(kc.pcSlowReadPre));
        a.host([](CpuContext &ctx) {
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, modOf(ctx).control.events.size());
        });
        int loop = a.label();
        a.work(scaled(kc.pcSlowReadPerCtr));
        a.host([](CpuContext &ctx) {
            const auto i = ctx.getReg(Reg::Edx);
            modOf(ctx).readBuf.at(i) =
                Kernel::of(ctx).core().pmu().rdpmc(i);
        });
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.host([](CpuContext &ctx) {
            modOf(ctx).readTsc =
                Kernel::of(ctx).core().pmu().rdtsc();
        });
        a.work(scaled(kc.pcSlowReadPost));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    kernel.registerSyscall(sysno::vperfctrOpen, "pc_sys_open");
    kernel.registerSyscall(sysno::vperfctrControl, "pc_sys_control");
    kernel.registerSyscall(sysno::vperfctrRead, "pc_sys_read");
    kernel.registerSyscall(sysno::vperfctrStop, "pc_sys_stop");
}

void
PerfctrModule::reset()
{
    pendingControl = PerfctrControl{};
    readBuf.clear();
    readTsc = 0;
    control = PerfctrControl{};
    active = false;
    resumes = 0;
    suspendedEnables.clear();
}

void
PerfctrModule::onSwitchOut(cpu::Core &core)
{
    if (!active)
        return;
    Pmu &pmu = core.pmu();
    suspendedEnables.assign(control.events.size(), false);
    for (std::size_t i = 0; i < control.events.size(); ++i) {
        const auto idx = static_cast<int>(i);
        suspendedEnables[i] = pmu.progCounter(idx).enabled;
        if (suspendedEnables[i]) {
            pmu.wrmsr(Pmu::msrEvtSelBase + static_cast<std::uint32_t>(i),
                      Pmu::encodeEvtSel(control.events[i], control.pl,
                                        false));
        }
    }
}

void
PerfctrModule::onSwitchIn(cpu::Core &core)
{
    if (!active)
        return;
    Pmu &pmu = core.pmu();
    for (std::size_t i = 0; i < control.events.size(); ++i) {
        if (i < suspendedEnables.size() && suspendedEnables[i]) {
            pmu.wrmsr(Pmu::msrEvtSelBase + static_cast<std::uint32_t>(i),
                      Pmu::encodeEvtSel(control.events[i], control.pl,
                                        true));
        }
    }
    ++resumes;
}

} // namespace pca::kernel
