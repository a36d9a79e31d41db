#include "kernel/perfmon_mod.hh"

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

/** The perfmon2 module of the kernel a HostOp runs under. */
PerfmonModule &
modOf(CpuContext &ctx)
{
    return Kernel::of(ctx).extension<PerfmonModule>();
}

} // namespace

PerfmonModule::PerfmonModule(const cpu::MicroArch &arch)
    : archRef(arch)
{
}

void
PerfmonModule::buildBlocks(isa::Program &prog, Kernel &kernel)
{
    const KernelCosts &kc = kernel.costs();
    auto scaled = [&](int n) { return kc.scaled(n, archRef); };
    // Handlers leave through the kernel's exit path, emitted before
    // any module block.
    const int sysexit = prog.entry("k_sysexit").block;

    // --- pfm_create_context ---
    {
        Assembler a("pm_sys_create");
        a.work(scaled(kc.pmCreateWork));
        a.host([sysexit](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            m.loaded = true;
            m.running = false;
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    // --- pfm_write_pmcs: program event selects, leave disabled ---
    {
        Assembler a("pm_sys_write_pmcs");
        a.work(scaled(kc.pmWritePmcsWork));
        a.host([](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            if (!m.loaded)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "perfmon: context not loaded"));
            if (m.pendingConfig.events.empty())
                throw StatusError(
                    Status(StatusCode::InvalidArgument,
                           "pfm_write_pmcs: no events"));
            m.config = m.pendingConfig;
            m.readBuf.assign(m.config.events.size(), 0);
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, m.config.events.size());
        });
        int loop = a.label();
        a.work(8);
        a.host([](CpuContext &ctx) {
            const PerfmonModule &m = modOf(ctx);
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax,
                       Pmu::encodeEvtSel(m.config.events[i],
                                         m.config.pl, false));
        });
        a.wrmsr();
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- pfm_write_pmds: set counter values (reset to 0) ---
    {
        Assembler a("pm_sys_write_pmds");
        a.work(scaled(kc.pmWritePmdsWork));
        a.host([](CpuContext &ctx) {
            const PerfmonModule &m = modOf(ctx);
            if (!m.loaded)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "perfmon: context not loaded"));
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, m.config.events.size());
        });
        int loop = a.label();
        a.work(6);
        a.host([](CpuContext &ctx) {
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrPmcBase + i);
            ctx.setReg(Reg::Eax, 0);
        });
        a.wrmsr();
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- pfm_start: enable counting. PMD0 is enabled first, so the
    // whole tail of the start path is measured error on the primary
    // counter (perfmon restarts the PMU early in the call). ---
    {
        Assembler a("pm_sys_start");
        a.work(scaled(kc.pmStartPre));
        a.host([](CpuContext &ctx) {
            const PerfmonModule &m = modOf(ctx);
            if (!m.loaded)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "perfmon: context not loaded"));
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, m.config.events.size());
        });
        int loop = a.label();
        a.host([](CpuContext &ctx) {
            const PerfmonModule &m = modOf(ctx);
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax,
                       Pmu::encodeEvtSel(m.config.events[i],
                                         m.config.pl, true));
        });
        a.wrmsr();
        a.work(scaled(kc.pmStartPerCtr));
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.host([](CpuContext &ctx) { modOf(ctx).running = true; });
        a.work(scaled(kc.pmStartPost));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- pfm_stop: disable counting, PMD0 first ---
    {
        Assembler a("pm_sys_stop");
        a.work(scaled(kc.pmStopPre));
        a.host([](CpuContext &ctx) {
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, modOf(ctx).config.events.size());
        });
        int loop = a.label();
        a.host([](CpuContext &ctx) {
            const PerfmonModule &m = modOf(ctx);
            const auto i = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Ecx, Pmu::msrEvtSelBase + i);
            ctx.setReg(Reg::Eax,
                       Pmu::encodeEvtSel(m.config.events[i],
                                         m.config.pl, false));
        });
        a.wrmsr();
        a.work(4);
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.host([](CpuContext &ctx) { modOf(ctx).running = false; });
        a.work(scaled(kc.pmStopPost));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- pfm_read_pmds: copy each requested PMD to the user buffer,
    // one at a time (the per-counter cost of Figure 5) ---
    {
        Assembler a("pm_sys_read_pmds");
        a.work(scaled(kc.pmReadPre));
        a.host([](CpuContext &ctx) {
            const PerfmonModule &m = modOf(ctx);
            if (!m.loaded)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "perfmon: context not loaded"));
            ctx.setReg(Reg::Edx, 0);
            ctx.setReg(Reg::Esi, m.config.events.size());
        });
        int loop = a.label();
        a.work(scaled(kc.pmReadPerCtr));
        a.host([](CpuContext &ctx) {
            const auto i = ctx.getReg(Reg::Edx);
            modOf(ctx).readBuf.at(i) =
                Kernel::of(ctx).core().pmu().rdpmc(i);
        });
        a.addImm(Reg::Edx, 1);
        a.cmpReg(Reg::Edx, Reg::Esi);
        a.jl(loop);
        a.work(scaled(kc.pmReadPost));
        a.host([sysexit](CpuContext &ctx) { ctx.jumpTo(sysexit); });
        prog.add(a.take());
    }

    // --- pfm_create_evtsets: stage multiplex groups, load group 0 ---
    {
        Assembler a("pm_sys_create_evtsets");
        a.work(scaled(600));
        a.host([sysexit](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            if (!m.loaded)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "perfmon: context not loaded"));
            if (m.pendingMpx.groups.empty())
                throw StatusError(
                    Status(StatusCode::InvalidArgument,
                           "pfm_create_evtsets: no groups"));
            for (const auto &g : m.pendingMpx.groups) {
                if (g.empty() || static_cast<int>(g.size()) >
                        m.archRef.progCounters)
                    throw StatusError(Status(
                        StatusCode::InvalidArgument,
                        "pfm_create_evtsets: bad group size"));
            }
            m.mpx = m.pendingMpx;
            m.mpxOn = true;
            m.mpxRunning = false;
            m.mpxCurGroup = 0;
            m.mpxTotalTicks = 0;
            m.mpxGroupTicks.assign(m.mpx.groups.size(), 0);
            m.mpxSoft.clear();
            for (const auto &g : m.mpx.groups)
                m.mpxSoft.emplace_back(g.size(), 0);
            m.mpxReadBuf.clear();
            m.programGroup(Kernel::of(ctx).core(), 0, true);
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    // --- pfm_start (multiplexed) ---
    {
        Assembler a("pm_sys_start_mpx");
        a.work(scaled(300));
        a.host([sysexit](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            if (!m.mpxOn)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "pfm_start: no event sets"));
            m.programGroup(Kernel::of(ctx).core(), m.mpxCurGroup, true);
            m.mpxRunning = true;
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    // --- pfm_stop (multiplexed) ---
    {
        Assembler a("pm_sys_stop_mpx");
        a.work(scaled(250));
        a.host([sysexit](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            if (!m.mpxOn)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "pfm_stop: no event sets"));
            cpu::Core &core = Kernel::of(ctx).core();
            // Bank the current group's counts before stopping.
            const auto &g = m.mpx.groups[static_cast<std::size_t>(
                m.mpxCurGroup)];
            for (std::size_t i = 0; i < g.size(); ++i)
                m.mpxSoft[static_cast<std::size_t>(m.mpxCurGroup)][i] +=
                    core.pmu().rdpmc(i);
            for (std::size_t i = 0; i < g.size(); ++i) {
                core.pmu().wrmsr(
                    cpu::Pmu::msrEvtSelBase +
                        static_cast<std::uint32_t>(i),
                    cpu::Pmu::encodeEvtSel(g[i], m.mpx.pl, false));
                core.pmu().wrmsr(cpu::Pmu::msrPmcBase +
                                     static_cast<std::uint32_t>(i),
                                 0);
            }
            m.mpxRunning = false;
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    // --- pfm_read (multiplexed): scaled estimates ---
    {
        Assembler a("pm_sys_read_mpx");
        a.work(scaled(220));
        a.host([sysexit](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            if (!m.mpxOn)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "pfm_read: no event sets"));
            cpu::Core &core = Kernel::of(ctx).core();
            m.mpxReadBuf.clear();
            for (std::size_t g = 0; g < m.mpx.groups.size(); ++g) {
                const bool live = m.mpxRunning &&
                    static_cast<int>(g) == m.mpxCurGroup;
                // Fraction of ticks this group was counting. Before
                // the first switch only the current group has data
                // (banked at stop time or still live) and it has run
                // the whole time.
                double fraction;
                if (m.mpxTotalTicks == 0)
                    fraction = static_cast<int>(g) == m.mpxCurGroup
                        ? 1.0
                        : 0.0;
                else
                    fraction =
                        static_cast<double>(m.mpxGroupTicks[g]) /
                        static_cast<double>(m.mpxTotalTicks);
                for (std::size_t i = 0; i < m.mpx.groups[g].size();
                     ++i) {
                    const double raw =
                        static_cast<double>(m.mpxSoft[g][i]) +
                        (live ? static_cast<double>(
                                    core.pmu().rdpmc(i))
                              : 0.0);
                    m.mpxReadBuf.push_back(
                        fraction > 0 ? raw / fraction : 0.0);
                }
            }
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    kernel.registerSyscall(sysno::pfmCreate, "pm_sys_create");
    kernel.registerSyscall(sysno::pfmWritePmcs, "pm_sys_write_pmcs");
    kernel.registerSyscall(sysno::pfmWritePmds, "pm_sys_write_pmds");
    kernel.registerSyscall(sysno::pfmStart, "pm_sys_start");
    kernel.registerSyscall(sysno::pfmStop, "pm_sys_stop");
    kernel.registerSyscall(sysno::pfmReadPmds, "pm_sys_read_pmds");
    // --- pfm_set_smpl: arm counter 0 for sampling ---
    {
        Assembler a("pm_sys_set_smpl");
        a.work(scaled(520)); // sampling buffer setup + remap
        a.host([sysexit](CpuContext &ctx) {
            PerfmonModule &m = modOf(ctx);
            if (!m.loaded)
                throw StatusError(
                    Status(StatusCode::FailedPrecondition,
                           "perfmon: context not loaded"));
            if (m.pendingSampling.period < 100)
                throw StatusError(
                    Status(StatusCode::InvalidArgument,
                           "pfm_set_smpl: period too small"));
            m.smpl = m.pendingSampling;
            m.samplingOn = true;
            m.sampleBuf.clear();
            // The sampling counter doubles as config (stop reuses it).
            m.config.events = {m.smpl.event};
            m.config.pl = m.smpl.pl;
            cpu::Core &core = Kernel::of(ctx).core();
            core.pmu().setSamplePeriod(0, m.smpl.period);
            core.pmu().wrmsr(
                cpu::Pmu::msrEvtSelBase,
                cpu::Pmu::encodeEvtSel(m.smpl.event, m.smpl.pl, true));
            ctx.jumpTo(sysexit);
        });
        prog.add(a.take());
    }

    kernel.registerSyscall(sysno::pfmCreateEvtsets,
                           "pm_sys_create_evtsets");
    kernel.registerSyscall(sysno::pfmStartMpx, "pm_sys_start_mpx");
    kernel.registerSyscall(sysno::pfmReadMpx, "pm_sys_read_mpx");
    kernel.registerSyscall(sysno::pfmStopMpx, "pm_sys_stop_mpx");
    kernel.registerSyscall(sysno::pfmSetSmpl, "pm_sys_set_smpl");
}

void
PerfmonModule::reset()
{
    pendingConfig = PerfmonConfig{};
    pendingMpx = PerfmonMpxSpec{};
    pendingSampling = PerfmonSamplingSpec{};
    readBuf.clear();
    mpxReadBuf.clear();
    config = PerfmonConfig{};
    loaded = false;
    running = false;
    suspendedEnables.clear();
    samplingOn = false;
    smpl = PerfmonSamplingSpec{};
    sampleBuf.clear();
    mpx = PerfmonMpxSpec{};
    mpxOn = false;
    mpxRunning = false;
    mpxCurGroup = 0;
    mpxTotalTicks = 0;
    mpxGroupTicks.clear();
    mpxSoft.clear();
}

void
PerfmonModule::onPmi(cpu::Core &core)
{
    if (!samplingOn)
        return;
    sampleBuf.push_back(core.lastInterruptedAddr());
}

const std::vector<cpu::EventType> &
PerfmonModule::activeEvents() const
{
    if (mpxOn)
        return mpx.groups[static_cast<std::size_t>(mpxCurGroup)];
    return config.events;
}

void
PerfmonModule::programGroup(cpu::Core &core, int group,
                            bool zero_values)
{
    const auto &g = mpx.groups[static_cast<std::size_t>(group)];
    Pmu &pmu = core.pmu();
    // Disable everything the previous group had live.
    for (int i = 0; i < pmu.numProg(); ++i) {
        if (pmu.progCounter(i).enabled) {
            pmu.wrmsr(Pmu::msrEvtSelBase +
                          static_cast<std::uint32_t>(i),
                      Pmu::encodeEvtSel(pmu.progCounter(i).event,
                                        mpx.pl, false));
        }
    }
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (zero_values)
            pmu.wrmsr(Pmu::msrPmcBase +
                          static_cast<std::uint32_t>(i),
                      0);
        pmu.wrmsr(Pmu::msrEvtSelBase + static_cast<std::uint32_t>(i),
                  Pmu::encodeEvtSel(g[i], mpx.pl, true));
    }
    mpxCurGroup = group;
}

void
PerfmonModule::onTick(cpu::Core &core)
{
    if (!mpxOn || !mpxRunning)
        return;
    const auto cur = static_cast<std::size_t>(mpxCurGroup);
    // Bank the expiring group's counts.
    for (std::size_t i = 0; i < mpx.groups[cur].size(); ++i)
        mpxSoft[cur][i] += core.pmu().rdpmc(i);
    ++mpxGroupTicks[cur];
    ++mpxTotalTicks;
    // Rotate to the next group.
    const int next = (mpxCurGroup + 1) %
        static_cast<int>(mpx.groups.size());
    programGroup(core, next, true);
}

void
PerfmonModule::onSwitchOut(cpu::Core &core)
{
    if (!loaded)
        return;
    const auto &events = activeEvents();
    const PlMask pl = mpxOn ? mpx.pl : config.pl;
    Pmu &pmu = core.pmu();
    suspendedEnables.assign(events.size(), false);
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto idx = static_cast<int>(i);
        suspendedEnables[i] = pmu.progCounter(idx).enabled;
        if (suspendedEnables[i]) {
            pmu.wrmsr(Pmu::msrEvtSelBase + static_cast<std::uint32_t>(i),
                      Pmu::encodeEvtSel(events[i], pl, false));
        }
    }
}

void
PerfmonModule::onSwitchIn(cpu::Core &core)
{
    if (!loaded)
        return;
    const auto &events = activeEvents();
    const PlMask pl = mpxOn ? mpx.pl : config.pl;
    Pmu &pmu = core.pmu();
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i < suspendedEnables.size() && suspendedEnables[i]) {
            pmu.wrmsr(Pmu::msrEvtSelBase + static_cast<std::uint32_t>(i),
                      Pmu::encodeEvtSel(events[i], pl, true));
        }
    }
}

} // namespace pca::kernel
