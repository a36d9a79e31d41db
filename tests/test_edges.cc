/**
 * @file
 * Edge-case and misuse tests across modules: API contract violations
 * must fail loudly, and boundary conditions must hold.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "core/datatable.hh"
#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "harness/tool.hh"
#include "isa/assembler.hh"
#include "perfctr/libperfctr.hh"
#include "stats/descriptive.hh"
#include "stats/distributions.hh"

namespace pca
{
namespace
{

using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

MachineConfig
quiet(Interface iface = Interface::Pm)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = iface;
    cfg.interruptsEnabled = false;
    return cfg;
}

TEST(MachineEdge, RunBeforeFinalizePanics)
{
    Machine m(quiet());
    Assembler a("main");
    a.halt();
    m.addUserBlock(a.take());
    EXPECT_THROW(m.run(), std::logic_error);
}

TEST(MachineEdge, DoubleFinalizePanics)
{
    Machine m(quiet());
    Assembler a("main");
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    EXPECT_THROW(m.finalize(), std::logic_error);
}

TEST(MachineEdge, AddBlockAfterFinalizePanics)
{
    Machine m(quiet());
    Assembler a("main");
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    Assembler b("late");
    b.halt();
    EXPECT_THROW(m.addUserBlock(b.take()), std::logic_error);
}

TEST(MachineEdge, UnknownEntryPanics)
{
    Machine m(quiet());
    Assembler a("main");
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    // A typed failure, not a panic: run() is tryRun().value().
    try {
        m.run("nonexistent");
        ADD_FAILURE() << "run() of an unknown entry returned";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), StatusCode::NotFound);
    }
}

TEST(MachineEdge, OnlyMatchingSubstrateLoaded)
{
    Machine pm_machine(quiet(Interface::Pm));
    EXPECT_NE(pm_machine.perfmonModule(), nullptr);
    EXPECT_EQ(pm_machine.perfctrModule(), nullptr);
    EXPECT_NE(pm_machine.libPfm(), nullptr);
    EXPECT_EQ(pm_machine.libPerfctr(), nullptr);

    Machine pc_machine(quiet(Interface::PHpc));
    EXPECT_EQ(pc_machine.perfmonModule(), nullptr);
    EXPECT_NE(pc_machine.perfctrModule(), nullptr);
}

TEST(MachineEdge, KernelTextDoesNotMoveWithUserOffset)
{
    auto kernel_base = [](Addr off) {
        Machine m(quiet());
        Assembler a("main");
        a.halt();
        m.addUserBlock(a.take());
        m.finalize(off);
        return m.program()
            .block(m.program().find("k_syscall_entry"))
            .baseAddr();
    };
    EXPECT_EQ(kernel_base(0), kernel_base(128));
}

TEST(HarnessEdge, OptLevelOutOfRangePanics)
{
    harness::HarnessConfig cfg;
    cfg.optLevel = 4;
    EXPECT_THROW(harness::HarnessSession(cfg, harness::NullBench{}),
                 std::logic_error);
}

TEST(HarnessEdge, ExactCounterLimitAccepted)
{
    harness::HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo; // 2 counters
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    cfg.extraEvents = {cpu::EventType::BrInstRetired}; // exactly 2
    const auto m =
        harness::HarnessSession(cfg, harness::NullBench{}).run(cfg.seed);
    EXPECT_GT(m.c1, 0u);
}

TEST(HarnessEdge, MeasureManyRejectsZeroRuns)
{
    harness::HarnessConfig cfg;
    cfg.interruptsEnabled = false;
    EXPECT_THROW(harness::measurePoint(cfg, harness::NullBench{}, 0,
                                       [](int r) { return r; }),
                 std::logic_error);
}

TEST(PerfctrEdge, SlowReadReturnsAllCounters)
{
    Machine m(quiet(Interface::Pc));
    perfctr::LibPerfctr lib(*m.perfctrModule());
    perfctr::ControlSpec spec;
    spec.events = {cpu::EventType::InstrRetired,
                   cpu::EventType::BrInstRetired,
                   cpu::EventType::IcacheMiss};
    spec.pl = PlMask::User;
    spec.tsc = false; // force the syscall read
    std::vector<Count> vals;
    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    a.nop(64);
    lib.emitRead(a, spec,
                 [&vals](const std::vector<Count> &v, Count) {
                     vals = v;
                 });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    ASSERT_EQ(vals.size(), 3u);
    EXPECT_GT(vals[0], 64u); // instructions
    EXPECT_GE(vals[2], 1u);  // at least one cold i-cache miss
}

TEST(PerfctrEdge, RestartAfterStop)
{
    Machine m(quiet(Interface::Pc));
    perfctr::LibPerfctr lib(*m.perfctrModule());
    perfctr::ControlSpec spec;
    spec.events = {cpu::EventType::InstrRetired};
    spec.pl = PlMask::User;
    std::vector<Count> after_restart;
    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    a.nop(5000);
    lib.emitStop(a);
    lib.emitControl(a, spec); // restart: resets to 0
    a.nop(100);
    lib.emitRead(a, spec,
                 [&after_restart](const std::vector<Count> &v,
                                  Count) { after_restart = v; });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_GE(after_restart.at(0), 100u);
    EXPECT_LT(after_restart.at(0), 300u);
}

TEST(DataTableEdge, GroupByUnknownColumnPanics)
{
    core::DataTable t({"a"}, "v");
    t.add({"x"}, 1);
    EXPECT_THROW(t.groupBy({"missing"}), std::logic_error);
}

TEST(DataTableEdge, FilteredToEmpty)
{
    core::DataTable t({"a"}, "v");
    t.add({"x"}, 1);
    const auto f = t.filtered("a", "y");
    EXPECT_TRUE(f.empty());
    EXPECT_TRUE(f.values().empty());
}

TEST(StatsEdge, QuantileRejectsBadQ)
{
    EXPECT_THROW(stats::quantile({1.0, 2.0}, -0.1),
                 std::logic_error);
    EXPECT_THROW(stats::quantile({1.0, 2.0}, 1.1), std::logic_error);
}

TEST(StatsEdge, DistributionsRejectBadShapes)
{
    EXPECT_THROW(stats::incompleteBeta(0, 1, 0.5), std::logic_error);
    EXPECT_THROW(stats::fCdf(1.0, 0, 5), std::logic_error);
    EXPECT_THROW(stats::logGamma(0.0), std::logic_error);
}

TEST(StatsEdge, SummaryOfConstantSample)
{
    const auto s = stats::summarize({5, 5, 5, 5});
    EXPECT_DOUBLE_EQ(s.min, 5);
    EXPECT_DOUBLE_EQ(s.max, 5);
    EXPECT_DOUBLE_EQ(s.iqr(), 0);
    EXPECT_DOUBLE_EQ(s.stddev, 0);
}

TEST(ToolEdge, CountsScaleWithStartup)
{
    // Doubling the startup doubles the startup share of the error.
    harness::ToolConfig cfg;
    cfg.tool = harness::ToolKind::Perfex;
    cfg.interruptsEnabled = false;
    cfg.startupInstructions = 500000;
    cfg.teardownInstructions = 0;
    const auto a = harness::measureProcessWithTool(
        cfg, harness::LoopBench{1000});
    cfg.startupInstructions = 1000000;
    const auto b = harness::measureProcessWithTool(
        cfg, harness::LoopBench{1000});
    EXPECT_NEAR(static_cast<double>(b.error() - a.error()), 500000.0,
                50.0);
}

TEST(KernelEdge, GetpidTwiceIsStable)
{
    Machine m(quiet());
    Assembler a("main");
    a.movImm(Reg::Eax, kernel::sysno::getpid)
        .syscall()
        .movImm(Reg::Eax, kernel::sysno::getpid)
        .syscall()
        .halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.run();
    // Two identical syscalls: kernel cost is exactly doubled.
    EXPECT_EQ(r.kernelInstr % 2, 0u);
    EXPECT_EQ(r.userInstr, 5u);
}

} // namespace
} // namespace pca
