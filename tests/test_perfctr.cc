/**
 * @file
 * Tests for the perfctr stack: kernel module + libperfctr, fast
 * user-mode reads vs the syscall fallback, and counter lifecycle.
 */

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "perfctr/libperfctr.hh"

namespace pca::perfctr
{
namespace
{

using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

MachineConfig
quiet()
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pc;
    cfg.interruptsEnabled = false;
    return cfg;
}

ControlSpec
instrSpec(bool tsc = true, PlMask pl = PlMask::UserKernel)
{
    ControlSpec s;
    s.events = {cpu::EventType::InstrRetired};
    s.pl = pl;
    s.tsc = tsc;
    return s;
}

struct ReadResult
{
    std::vector<Count> values;
    Count tsc = 0;
    int captures = 0;
};

ReadCapture
captureTo(ReadResult &r)
{
    return [&r](const std::vector<Count> &v, Count tsc) {
        r.values = v;
        r.tsc = tsc;
        ++r.captures;
    };
}

TEST(LibPerfctrTest, OpenControlReadCountsBenchmark)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec();
    ReadResult r0, r1;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    lib.emitRead(a, spec, captureTo(r0));
    // A known piece of work: 500 nops.
    a.nop(500);
    lib.emitRead(a, spec, captureTo(r1));
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    ASSERT_EQ(r0.captures, 1);
    ASSERT_EQ(r1.captures, 1);
    const auto delta = r1.values.at(0) - r0.values.at(0);
    // 500 nops + the read overhead itself.
    EXPECT_GE(delta, 500u);
    EXPECT_LT(delta, 700u);
}

TEST(LibPerfctrTest, FastReadStaysInUserMode)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec(true);
    ReadResult r0;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    const auto kernel_before = std::make_shared<Count>(0);
    a.host([&m, kernel_before](isa::CpuContext &) {
        *kernel_before = m.core().rawEvents(
            cpu::EventType::InstrRetired, Mode::Kernel);
    });
    lib.emitRead(a, spec, captureTo(r0));
    const auto kernel_after = std::make_shared<Count>(0);
    a.host([&m, kernel_after](isa::CpuContext &) {
        *kernel_after = m.core().rawEvents(
            cpu::EventType::InstrRetired, Mode::Kernel);
    });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    // The fast read executed zero kernel instructions.
    EXPECT_EQ(*kernel_before, *kernel_after);
    EXPECT_EQ(r0.captures, 1);
}

TEST(LibPerfctrTest, TscOffFallsBackToSyscall)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec(false);
    ReadResult r0;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    const auto kernel_before = std::make_shared<Count>(0);
    a.host([&m, kernel_before](isa::CpuContext &) {
        *kernel_before = m.core().rawEvents(
            cpu::EventType::InstrRetired, Mode::Kernel);
    });
    lib.emitRead(a, spec, captureTo(r0));
    const auto kernel_after = std::make_shared<Count>(0);
    a.host([&m, kernel_after](isa::CpuContext &) {
        *kernel_after = m.core().rawEvents(
            cpu::EventType::InstrRetired, Mode::Kernel);
    });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    // The slow read trapped into the kernel.
    EXPECT_GT(*kernel_after, *kernel_before + 500);
    EXPECT_EQ(r0.captures, 1);
}

TEST(LibPerfctrTest, StopFreezesCounters)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec();
    ReadResult r0, r1;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    lib.emitStop(a);
    lib.emitRead(a, spec, captureTo(r0));
    a.nop(1000);
    lib.emitRead(a, spec, captureTo(r1));
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    EXPECT_EQ(r0.values.at(0), r1.values.at(0));
}

TEST(LibPerfctrTest, ControlResetsCounters)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec();
    ReadResult r0, r1;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    a.nop(5000);
    lib.emitRead(a, spec, captureTo(r0));
    lib.emitControl(a, spec); // reprogram: resets to zero
    lib.emitRead(a, spec, captureTo(r1));
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    EXPECT_GT(r0.values.at(0), 5000u);
    EXPECT_LT(r1.values.at(0), 300u);
}

TEST(LibPerfctrTest, UserModePlExcludesKernel)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec(true, PlMask::User);
    ReadResult r0, r1;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    lib.emitRead(a, spec, captureTo(r0));
    // A getpid syscall's kernel instructions must not count.
    a.movImm(Reg::Eax, kernel::sysno::getpid).syscall();
    lib.emitRead(a, spec, captureTo(r1));
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto run = m.run();
    EXPECT_GT(run.kernelInstr, 100u); // the syscall did happen
    const auto delta = r1.values.at(0) - r0.values.at(0);
    // Only user-mode instructions counted: reads + 2 user insts.
    EXPECT_LT(delta, 120u);
}

TEST(LibPerfctrTest, MultipleCountersTrackDistinctEvents)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    ControlSpec spec;
    spec.events = {cpu::EventType::InstrRetired,
                   cpu::EventType::BrInstRetired};
    spec.pl = PlMask::User;
    spec.tsc = true;
    ReadResult r1;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    // 50 taken branches.
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 50).jne(loop);
    lib.emitRead(a, spec, captureTo(r1));
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    ASSERT_EQ(r1.values.size(), 2u);
    EXPECT_GT(r1.values[0], 150u); // instructions
    EXPECT_GE(r1.values[1], 50u);  // branches
    EXPECT_LT(r1.values[1], 60u);
}

TEST(LibPerfctrTest, TscCaptured)
{
    Machine m(quiet());
    LibPerfctr lib(*m.perfctrModule());
    const auto spec = instrSpec();
    ReadResult r0, r1;

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    lib.emitRead(a, spec, captureTo(r0));
    a.nop(2000);
    lib.emitRead(a, spec, captureTo(r1));
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();

    EXPECT_GT(r1.tsc, r0.tsc);
}

TEST(PerfctrModuleTest, OpenEnablesUserRdpmc)
{
    // Without vperfctr_open, user-mode RDPMC must fault (#GP), and
    // the run fails with that typed status.
    Machine m(quiet());
    Assembler a("main");
    a.movImm(Reg::Ecx, 0).rdpmc().halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.tryRun("main");
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::FailedPrecondition);
}

TEST(PerfctrModuleTest, SwitchOutDisablesCounters)
{
    Machine m(quiet());
    kernel::PerfctrModule &mod = *m.perfctrModule();
    LibPerfctr lib(mod);
    const auto spec = instrSpec();

    Assembler a("main");
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    a.host([&](isa::CpuContext &) {
        EXPECT_TRUE(m.core().pmu().progCounter(0).enabled);
        mod.onSwitchOut(m.core());
        EXPECT_FALSE(m.core().pmu().progCounter(0).enabled);
        mod.onSwitchIn(m.core());
        EXPECT_TRUE(m.core().pmu().progCounter(0).enabled);
    });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_EQ(mod.resumeCount(), 1u);
}

TEST(PerfctrModuleTest, ActiveFlagTracksLifecycle)
{
    Machine m(quiet());
    kernel::PerfctrModule &mod = *m.perfctrModule();
    LibPerfctr lib(mod);
    const auto spec = instrSpec();

    Assembler a("main");
    a.host([&](isa::CpuContext &) {
        EXPECT_FALSE(mod.sessionActive());
    });
    lib.emitOpen(a);
    lib.emitControl(a, spec);
    a.host([&](isa::CpuContext &) {
        EXPECT_TRUE(mod.sessionActive());
    });
    lib.emitStop(a);
    a.host([&](isa::CpuContext &) {
        EXPECT_FALSE(mod.sessionActive());
    });
    a.halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
}

} // namespace
} // namespace pca::perfctr
