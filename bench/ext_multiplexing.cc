/**
 * @file
 * Extension study (paper §9, Mytkowicz et al. "Time Interpolation:
 * So many metrics, so few registers"): accuracy of event-set
 * multiplexing. When more events are requested than there are
 * physical counters, perfmon2 rotates event groups on timer ticks
 * and the per-event result is interpolated from the fraction of
 * time its group was live. The estimate converges for long
 * measurements and is useless for short ones.
 */

#include <cmath>
#include <iostream>

#include "bench_util.hh"
#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "perfmon/libpfm.hh"
#include "support/table.hh"

namespace
{

using namespace pca;
using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

/** Multiplexed estimate of INSTR_RETIRED for a loop benchmark. */
double
mpxInstrEstimate(Count iters, std::uint64_t seed)
{
    MachineConfig mc;
    mc.processor = cpu::Processor::AthlonX2;
    mc.iface = Interface::Pm;
    mc.ioInterrupts = false;
    mc.preemptProb = 0.0;
    mc.seed = seed;
    Machine m(mc);
    perfmon::LibPfm &lib = *m.libPfm();

    kernel::PerfmonMpxSpec spec;
    spec.groups = {
        {cpu::EventType::InstrRetired,
         cpu::EventType::BrInstRetired},
        {cpu::EventType::CpuClkUnhalted,
         cpu::EventType::BrMispRetired},
        {cpu::EventType::IcacheMiss, cpu::EventType::ItlbMiss},
    };
    spec.pl = PlMask::User;

    std::vector<double> estimates;
    Assembler a("main");
    lib.emitInitialize(a);
    lib.emitCreateContext(a);
    lib.emitCreateEventSets(a, spec);
    lib.emitStartMpx(a);
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, static_cast<std::int64_t>(iters))
        .jne(loop);
    lib.emitStopMpx(a);
    lib.emitReadMpx(a, [&estimates](const std::vector<double> &v) {
        estimates = v;
    });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    return estimates.at(0);
}

} // namespace

int
main()
{
    bench::banner("Extension (multiplexing)",
                  "Accuracy of time-interpolated event counts");

    std::cout << "6 events multiplexed over 3 groups on K8's 4 "
                 "counters; estimating the\nloop's instruction "
                 "count (truth = 1 + 3*iters):\n\n";

    TextTable t({"iterations", "~ticks", "truth", "estimate",
                 "rel. error"});
    for (Count iters :
         {100000u, 1000000u, 5000000u, 20000000u, 80000000u}) {
        const double truth = 1.0 + 3.0 * static_cast<double>(iters);
        // Average over seeds: the interpolation error depends on
        // which part of the run each group observes.
        double err_sum = 0;
        double est_last = 0;
        constexpr int reps = 5;
        for (int r = 0; r < reps; ++r) {
            est_last = mpxInstrEstimate(iters, 33 + r);
            err_sum += std::abs(est_last - truth) / truth;
        }
        // ~2.5 cycles/iter at 2.2 GHz, HZ=1000.
        const double ticks = 2.5 * static_cast<double>(iters) /
            2.2e6;
        t.addRow({fmtCount(static_cast<long long>(iters)),
                  fmtDouble(ticks, 1),
                  fmtCount(static_cast<long long>(truth)),
                  fmtCount(static_cast<long long>(est_last)),
                  fmtDouble(100.0 * err_sum / reps, 2) + "%"});
    }
    t.print(std::cout);

    std::cout
        << "\nReading (matches Mytkowicz et al.'s findings):\n"
        << "  - below ~1 tick of runtime the estimate collapses "
           "(only the live\n    group has data);\n"
        << "  - with tens of rotations the interpolation error "
           "drops to a few\n    percent;\n"
        << "  - dedicated counting of the same event has only the "
           "fixed\n    measurement error (Table 3), orders of "
           "magnitude smaller.\n";
    return 0;
}
