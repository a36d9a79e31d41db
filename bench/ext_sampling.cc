/**
 * @file
 * Extension study (paper §9, Moore's counting-vs-sampling
 * distinction): overflow-driven sampling. A two-phase program (a hot
 * loop and a cold loop) is profiled by instruction-overflow PMIs;
 * the bench reports how well the sample histogram recovers the true
 * time split, and what the sampling overhead costs, as a function of
 * the sampling period.
 */

#include <algorithm>
#include <iostream>
#include <map>

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

struct ProfileResult
{
    double hot_fraction = 0;  //!< samples attributed to the hot loop
    std::size_t samples = 0;
    Count kernelInstr = 0;
    Cycles cycles = 0;
};

/**
 * Two phases: hot loop (3 x hot_iters instructions) and cold loop
 * (3 x cold_iters). True instruction split is hot/(hot+cold).
 */
ProfileResult
profileTwoPhase(Count hot_iters, Count cold_iters, Count period,
                std::uint64_t seed)
{
    MachineConfig mc;
    mc.processor = cpu::Processor::AthlonX2;
    mc.iface = Interface::Pm;
    mc.ioInterrupts = false;
    mc.preemptProb = 0.0;
    mc.seed = seed;
    Machine m(mc);
    perfmon::LibPfm &lib = *m.libPfm();

    kernel::PerfmonSamplingSpec spec;
    spec.event = cpu::EventType::InstrRetired;
    spec.pl = PlMask::User;
    spec.period = period;

    std::vector<Addr> samples;
    Assembler a("main");
    lib.emitInitialize(a);
    lib.emitCreateContext(a);
    lib.emitSetSampling(a, spec);
    // Phase 1: hot loop.
    a.movImm(Reg::Eax, 0);
    int hot = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, static_cast<std::int64_t>(hot_iters))
        .jne(hot);
    // A marker so the phases sit at distinct addresses.
    a.nop(32);
    // Phase 2: cold loop.
    a.movImm(Reg::Ebx, 0);
    int cold = a.label();
    a.addImm(Reg::Ebx, 1)
        .cmpImm(Reg::Ebx, static_cast<std::int64_t>(cold_iters))
        .jne(cold);
    lib.emitStop(a);
    lib.emitReadSamples(a, [&samples](const std::vector<Addr> &s) {
        samples = s;
    });
    a.halt();
    const int block = m.addUserBlock(a.take());
    m.finalize();
    const auto run = m.run();

    // The cold loop starts after the hot loop + 32-byte marker; use
    // the block's instruction addresses to split samples.
    const auto &blk = m.program().block(block);
    Addr split = 0;
    for (std::size_t i = 0; i < blk.size(); ++i) {
        if (blk.inst(i).op == isa::Opcode::MovImm &&
            blk.inst(i).r1 == Reg::Ebx) {
            split = blk.inst(i).addr;
            break;
        }
    }

    ProfileResult r;
    r.samples = samples.size();
    if (!samples.empty()) {
        const auto hot_samples = static_cast<double>(
            std::count_if(samples.begin(), samples.end(),
                          [split](Addr s) { return s < split; }));
        r.hot_fraction = hot_samples /
            static_cast<double>(samples.size());
    }
    r.kernelInstr = run.kernelInstr;
    r.cycles = run.cycles;
    return r;
}

} // namespace

int
main()
{
    bench::banner("Extension (sampling)",
                  "Overflow-driven profiling accuracy and overhead");

    const Count hot = 700000, cold = 300000; // 70% / 30% split
    std::cout << "two-phase program: 70% of instructions in the hot "
                 "loop, 30% in the cold\nloop; instruction-overflow "
                 "sampling on K8 (perfmon2 PMIs):\n\n";

    TextTable t({"period", "samples", "hot share (true 70%)",
                 "PMI kernel instrs", "overhead"});
    const auto baseline =
        profileTwoPhase(hot, cold, 1u << 30, 5); // ~no samples
    for (Count period : {200000u, 50000u, 10000u, 2000u, 500u}) {
        const auto r = profileTwoPhase(hot, cold, period, 5);
        const double overhead =
            100.0 *
            (static_cast<double>(r.cycles) -
             static_cast<double>(baseline.cycles)) /
            static_cast<double>(baseline.cycles);
        t.addRow({fmtCount(static_cast<long long>(period)),
                  std::to_string(r.samples),
                  fmtDouble(100.0 * r.hot_fraction, 1) + "%",
                  fmtCount(static_cast<long long>(r.kernelInstr)),
                  fmtDouble(overhead, 2) + "%"});
    }
    t.print(std::cout);

    std::cout
        << "\nReading (Moore's counting-vs-sampling tradeoff, "
           "paper Sec. 9):\n"
        << "  - attribution converges to the true 70/30 split as "
           "the period shrinks;\n"
        << "  - every sample costs a PMI + kernel handler: overhead "
           "grows inversely\n    with the period;\n"
        << "  - counting (the paper's subject) gives exact totals "
           "at fixed cost but\n    no attribution; sampling buys "
           "attribution with perturbation.\n";
    return 0;
}
