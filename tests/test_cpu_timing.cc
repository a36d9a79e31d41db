/**
 * @file
 * End-to-end timing tests: cycles-per-iteration bands per
 * micro-architecture, placement sensitivity (the Section 6 effect),
 * and event counting for front-end structures.
 */

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "isa/assembler.hh"

namespace pca::cpu
{
namespace
{

using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

/** Run the paper's loop at a given user-text offset; cycles/iter. */
double
cyclesPerIter(Processor proc, Addr offset, Count iters = 200000)
{
    MachineConfig cfg;
    cfg.processor = proc;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, static_cast<std::int64_t>(iters))
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize(offset);
    const auto r = m.run();
    return static_cast<double>(r.cycles) / static_cast<double>(iters);
}

TEST(Timing, K8LoopBimodalAcrossPlacements)
{
    bool saw2 = false, saw3 = false;
    for (Addr off = 0; off < 16; ++off) {
        const double cpi = cyclesPerIter(Processor::AthlonX2, off);
        EXPECT_GT(cpi, 1.9);
        EXPECT_LT(cpi, 3.1);
        saw2 |= cpi < 2.2;
        saw3 |= cpi > 2.8;
    }
    // Figure 11: the c=2i and c=3i groups both occur.
    EXPECT_TRUE(saw2);
    EXPECT_TRUE(saw3);
}

TEST(Timing, Core2RunsFasterThanK8)
{
    // The LSD makes Core2's best case ~1 cycle/iteration.
    double best_cd = 1e9;
    for (Addr off = 0; off < 16; ++off)
        best_cd = std::min(best_cd,
                           cyclesPerIter(Processor::Core2Duo, off));
    EXPECT_LT(best_cd, 1.3);
}

TEST(Timing, PentiumDShowsWidestSpread)
{
    double lo = 1e9, hi = 0;
    for (Addr off = 0; off < 128; off += 8) {
        const double cpi = cyclesPerIter(Processor::PentiumD, off,
                                         100000);
        lo = std::min(lo, cpi);
        hi = std::max(hi, cpi);
    }
    // Paper: 1.5 to 4 million cycles for a 1M-iteration loop.
    EXPECT_LT(lo, 2.0);
    EXPECT_GT(hi, 2.8);
    EXPECT_GT(hi / lo, 1.5);
}

TEST(Timing, PlacementChangesCyclesButNotInstructions)
{
    auto run_at = [](Addr off) {
        MachineConfig cfg;
        cfg.processor = Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = false;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 50000).jne(loop).halt();
        m.addUserBlock(a.take());
        m.finalize(off);
        return m.run();
    };
    const auto a = run_at(0);
    const auto b = run_at(10);
    EXPECT_EQ(a.userInstr, b.userInstr); // ISA-level count invariant
    EXPECT_NE(a.cycles, b.cycles);       // µarch-level count shifts
}

TEST(Timing, IcacheMissesCountedOnColdCode)
{
    MachineConfig cfg;
    cfg.processor = Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    Machine m(cfg);
    Assembler a("main");
    a.nop(2048).halt(); // 2 KiB of straight-line code: 32+ lines
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    const auto misses =
        m.core().rawEvents(EventType::IcacheMiss, Mode::User);
    EXPECT_GE(misses, 30u);
    EXPECT_LE(misses, 40u);
}

TEST(Timing, ItlbMissOnFirstPageOnly)
{
    MachineConfig cfg;
    cfg.processor = Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    Machine m(cfg);
    Assembler a("main");
    a.nop(100).halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_EQ(m.core().rawEvents(EventType::ItlbMiss, Mode::User),
              1u);
}

TEST(Timing, MispredictPenaltyVisibleInCycles)
{
    // A data-dependent unpredictable branch pattern costs more
    // cycles than a well-predicted one with the same instruction mix.
    auto run_pattern = [](bool alternating) {
        MachineConfig cfg;
        cfg.processor = Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = false;
        Machine m(cfg);
        Assembler a("main");
        // eax counts iterations; ebx toggles (alternating) or stays 0.
        a.movImm(Reg::Eax, 0).movImm(Reg::Ebx, 0).movImm(Reg::Edx, 1);
        int loop = a.label();
        int skip = a.forwardLabel();
        if (alternating)
            a.xorReg(Reg::Ebx, Reg::Edx); // 0,1,0,1,...
        else
            a.xorReg(Reg::Ebx, Reg::Ebx); // always 0
        a.cmpImm(Reg::Ebx, 1);
        a.je(skip); // taken every other iteration vs never
        a.nop(1);
        a.bind(skip);
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 20000).jne(loop);
        a.halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run().cycles;
    };
    EXPECT_GT(run_pattern(true), run_pattern(false) + 20000u);
}

TEST(Timing, FastForwardPreservesCycleCounts)
{
    auto run_ff = [](bool ff) {
        MachineConfig cfg;
        cfg.processor = Processor::Core2Duo;
        cfg.iface = Interface::Pc;
        cfg.interruptsEnabled = false;
        cfg.fastForward = ff;
        cfg.profile = obs::ProfileConfig{}; // a profiler stops folding
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 30000).jne(loop).halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run();
    };
    const auto with_ff = run_ff(true);
    const auto without_ff = run_ff(false);
    EXPECT_EQ(with_ff.cycles, without_ff.cycles);
    EXPECT_EQ(with_ff.userInstr, without_ff.userInstr);
    EXPECT_GT(with_ff.fastForwardedIters, 0u);
    EXPECT_EQ(without_ff.fastForwardedIters, 0u);
}

TEST(Timing, FastForwardPreservesCycleCountsWithInterrupts)
{
    auto run_ff = [](bool ff) {
        MachineConfig cfg;
        cfg.processor = Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = true;
        cfg.ioInterrupts = false;
        cfg.preemptProb = 0.0;
        cfg.seed = 99;
        cfg.fastForward = ff;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, 3000000)
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run();
    };
    const auto with_ff = run_ff(true);
    const auto without_ff = run_ff(false);
    // Interrupt timing must be bit-identical across FF modes.
    EXPECT_EQ(with_ff.interrupts, without_ff.interrupts);
    EXPECT_EQ(with_ff.cycles, without_ff.cycles);
    EXPECT_EQ(with_ff.kernelInstr, without_ff.kernelInstr);
}

} // namespace
} // namespace pca::cpu
