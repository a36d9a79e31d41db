#include "kernel/perfevent_mod.hh"

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

/** The perf_event module of the kernel a HostOp runs under. */
PerfEventModule &
modOf(CpuContext &ctx)
{
    return Kernel::of(ctx).extension<PerfEventModule>();
}

} // namespace

PerfEventModule::PerfEventModule(const cpu::MicroArch &arch)
    : archRef(arch)
{
}

void
PerfEventModule::buildBlocks(isa::Program &prog, Kernel &kernel)
{
    const KernelCosts &kc = kernel.costs();
    auto scaled = [&](int n) { return kc.scaled(n, archRef); };
    // Handlers leave through the kernel's exit path, emitted before
    // any module block.
    const int sysexit = prog.entry("k_sysexit").block;

    // --- perf_event_open: allocate a counter and an fd. The call is
    // heavyweight (attr validation, context allocation, mmap setup),
    // true to its reputation. Counting starts disabled. ---
    {
        Assembler a("pe_sys_open");
        a.work(scaled(1100));
        a.host([sysexit](CpuContext &ctx) {
            PerfEventModule &m = modOf(ctx);
            const int idx = static_cast<int>(m.fds.size());
            if (idx >= m.archRef.progCounters)
                throw StatusError(
                    Status(StatusCode::ResourceExhausted,
                           "perf_event_open: out of counters"));
            PerfEventFd f;
            f.event = m.pendingEvent;
            f.pl = m.pendingPl;
            f.counter = idx;
            m.fds.push_back(f);
            cpu::Core &core = Kernel::of(ctx).core();
            core.pmu().wrmsr(Pmu::msrPmcBase +
                                 static_cast<std::uint32_t>(idx),
                             0);
            core.pmu().wrmsr(
                Pmu::msrEvtSelBase + static_cast<std::uint32_t>(idx),
                Pmu::encodeEvtSel(f.event, f.pl, false));
            // rdpmc from user space for the mmap self-monitoring
            // page (perf's cap_user_rdpmc).
            core.allowUserRdpmc(true);
            ctx.setReg(Reg::Eax, static_cast<std::uint64_t>(idx));
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    // --- ioctl(PERF_EVENT_IOC_ENABLE, GROUP): enable everything.
    // The fd-0 counter is enabled last (the group leader's enable
    // commits the group), keeping the measured tail small. ---
    {
        Assembler a("pe_sys_ioctl_enable");
        a.work(scaled(140));
        a.host([](CpuContext &ctx) {
            ctx.setReg(Reg::Edx, modOf(ctx).fds.size());
        });
        int loop = a.label();
        a.subImm(Reg::Edx, 1);
        a.work(6);
        a.host([](CpuContext &ctx) {
            const auto i = ctx.getReg(Reg::Edx);
            PerfEventFd &f = modOf(ctx).fds.at(i);
            f.enabled = true;
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax, Pmu::encodeEvtSel(f.event, f.pl, true));
        });
        a.wrmsr();
        a.cmpImm(Reg::Edx, 0);
        a.jne(loop);
        a.work(scaled(60));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- ioctl(PERF_EVENT_IOC_DISABLE, GROUP): fd 0 first. ---
    {
        Assembler a("pe_sys_ioctl_disable");
        a.work(scaled(110));
        a.host([](CpuContext &ctx) {
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, modOf(ctx).fds.size());
        });
        int loop = a.label();
        a.host([](CpuContext &ctx) {
            const auto i = ctx.getReg(Reg::Edx);
            PerfEventFd &f = modOf(ctx).fds.at(i);
            f.enabled = false;
            ++f.mmapSeq; // seqlock bump: page update
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax, Pmu::encodeEvtSel(f.event, f.pl, false));
        });
        a.wrmsr();
        a.work(4);
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.work(scaled(130));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- read(fd): copy ONE counter value to user space. Modern
    // perf has no batch read for independent fds: every extra event
    // costs a whole syscall. ---
    {
        Assembler a("pe_sys_read");
        a.work(scaled(210)); // vfs path + perf_read
        a.host([](CpuContext &ctx) {
            PerfEventModule &m = modOf(ctx);
            if (m.argFd < 0 || m.argFd >= static_cast<int>(m.fds.size()))
                throw StatusError(
                    Status(StatusCode::InvalidArgument,
                           "read: bad perf_event fd " +
                               std::to_string(m.argFd)));
            m.readValue = Kernel::of(ctx).core().pmu().rdpmc(
                static_cast<std::uint64_t>(
                    m.fds[static_cast<std::size_t>(m.argFd)].counter));
        });
        a.work(scaled(140));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    kernel.registerSyscall(sysno_pe::perfEventOpen, "pe_sys_open");
    kernel.registerSyscall(sysno_pe::ioctlEnable,
                           "pe_sys_ioctl_enable");
    kernel.registerSyscall(sysno_pe::ioctlDisable,
                           "pe_sys_ioctl_disable");
    kernel.registerSyscall(sysno_pe::readFd, "pe_sys_read");
}

void
PerfEventModule::reset()
{
    pendingEvent = cpu::EventType::InstrRetired;
    pendingPl = PlMask::UserKernel;
    argFd = -1;
    readValue = 0;
    fds.clear();
    suspendedEnables.clear();
}

void
PerfEventModule::onSwitchOut(cpu::Core &core)
{
    suspendedEnables.assign(fds.size(), false);
    for (std::size_t i = 0; i < fds.size(); ++i) {
        suspendedEnables[i] = fds[i].enabled &&
            core.pmu()
                .progCounter(fds[i].counter)
                .enabled;
        if (suspendedEnables[i]) {
            core.pmu().wrmsr(
                Pmu::msrEvtSelBase +
                    static_cast<std::uint32_t>(fds[i].counter),
                Pmu::encodeEvtSel(fds[i].event, fds[i].pl, false));
            ++fds[i].mmapSeq;
        }
    }
}

void
PerfEventModule::onSwitchIn(cpu::Core &core)
{
    for (std::size_t i = 0; i < fds.size(); ++i) {
        if (i < suspendedEnables.size() && suspendedEnables[i]) {
            core.pmu().wrmsr(
                Pmu::msrEvtSelBase +
                    static_cast<std::uint32_t>(fds[i].counter),
                Pmu::encodeEvtSel(fds[i].event, fds[i].pl, true));
            ++fds[i].mmapSeq;
        }
    }
}

} // namespace pca::kernel
