/**
 * @file
 * Sampling-based phase profiling: use the PMU's overflow interrupts
 * (perfmon2 sampling) to find out *where* a program spends its
 * instructions, then verify the profile against counting-mode
 * measurements of each phase — combining the paper's counting
 * accuracy results with the sampling usage model its related work
 * discusses.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "obs/env.hh"
#include "obs/trace.hh"
#include "perfmon/libpfm.hh"
#include "support/strutil.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::Interface;
    using harness::Machine;
    using harness::MachineConfig;
    using isa::Assembler;
    using isa::Reg;

    // A program with three phases of different weights.
    const Count iters_a = 500000; // 1.5M instructions
    const Count iters_b = 200000; // 0.6M
    const Count iters_c = 300000; // 0.9M

    MachineConfig mc;
    mc.processor = cpu::Processor::AthlonX2;
    mc.iface = Interface::Pm;
    mc.ioInterrupts = false;
    mc.preemptProb = 0.0;
    mc.seed = 20260705;
    Machine m(mc);
    perfmon::LibPfm &lib = *m.libPfm();

    kernel::PerfmonSamplingSpec spec;
    spec.event = cpu::EventType::InstrRetired;
    spec.pl = PlMask::User;
    spec.period = 5000;

    std::vector<Addr> samples;
    std::vector<Addr> phase_starts;

    Assembler a("main");
    lib.emitInitialize(a);
    lib.emitCreateContext(a);
    lib.emitSetSampling(a, spec);

    // With PCA_TRACE set, each phase also becomes a span in the
    // virtual-time trace (the marker host-ops are only emitted while
    // tracing is on, so the untraced program is unchanged).
    obs::initObservabilityFromEnv();
    auto emit_phase = [&](Reg counter, Count iters,
                          const char *name) {
        if (obs::traceEnabled()) {
            const std::string n(name);
            a.host([n](isa::CpuContext &ctx) {
                obs::tracer().begin(n, "phase", ctx.cycles());
            });
        }
        a.movImm(counter, 0);
        int loop = a.label();
        a.addImm(counter, 1)
            .cmpImm(counter, static_cast<std::int64_t>(iters))
            .jne(loop);
        if (obs::traceEnabled())
            a.host([](isa::CpuContext &ctx) {
                obs::tracer().end(ctx.cycles());
            });
    };
    emit_phase(Reg::Eax, iters_a, "phase A");
    emit_phase(Reg::Ebx, iters_b, "phase B");
    emit_phase(Reg::Esi, iters_c, "phase C");

    lib.emitStop(a);
    lib.emitReadSamples(a, [&samples](const std::vector<Addr> &s) {
        samples = s;
    });
    a.halt();
    const int block = m.addUserBlock(a.take());
    m.finalize();

    // Phase boundaries: the movImm that initializes each counter.
    const auto &blk = m.program().block(block);
    for (std::size_t i = 0; i < blk.size(); ++i) {
        const auto &in = blk.inst(i);
        if (in.op == isa::Opcode::MovImm && in.imm == 0 &&
            (in.r1 == Reg::Eax || in.r1 == Reg::Ebx ||
             in.r1 == Reg::Esi))
            phase_starts.push_back(in.addr);
    }

    m.run();

    // Attribute samples to phases.
    std::vector<std::size_t> hits(3, 0);
    std::size_t outside = 0;
    for (Addr s : samples) {
        if (s >= phase_starts.at(2))
            ++hits[2];
        else if (s >= phase_starts.at(1))
            ++hits[1];
        else if (s >= phase_starts.at(0))
            ++hits[0];
        else
            ++outside;
    }

    const double total_instr =
        3.0 * static_cast<double>(iters_a + iters_b + iters_c) + 3.0;
    const double truth[3] = {
        3.0 * static_cast<double>(iters_a) / total_instr,
        3.0 * static_cast<double>(iters_b) / total_instr,
        3.0 * static_cast<double>(iters_c) / total_instr,
    };

    std::cout << "collected " << samples.size()
              << " instruction samples (period " << spec.period
              << ")\n\n";
    TextTable t({"phase", "true share", "sampled share", "samples"});
    const char *names[3] = {"A (hot loop)", "B (short loop)",
                            "C (medium loop)"};
    for (int p = 0; p < 3; ++p) {
        const double sampled = samples.empty()
            ? 0.0
            : static_cast<double>(hits[static_cast<std::size_t>(p)]) /
                static_cast<double>(samples.size());
        t.addRow({names[p], fmtDouble(100.0 * truth[p], 1) + "%",
                  fmtDouble(100.0 * sampled, 1) + "%",
                  std::to_string(hits[static_cast<std::size_t>(p)])});
    }
    t.print(std::cout);
    std::cout << "(samples outside the three loops: " << outside
              << " — measurement library code)\n\n"
              << "The profile recovers the phase weights to within a "
                 "few percent; each\nsample cost a PMI plus kernel "
                 "handler, perturbing cycles but leaving the\n"
                 "user-mode instruction counts exact (see "
                 "tests/test_sampling.cc).\n";
    return 0;
}
