/**
 * @file
 * Unit tests for the kernel: interrupt scheduling, syscall dispatch,
 * timer attribution, and preemption.
 */

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "kernel/interrupts.hh"
#include "kernel/kernel.hh"

namespace pca::kernel
{
namespace
{

using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

TEST(InterruptControllerTest, TimerPhaseWithinPeriod)
{
    InterruptController ic(1000, 0, 1);
    EXPECT_GT(ic.nextInterruptCycle(), 0u);
    EXPECT_LE(ic.nextInterruptCycle(), 1000u);
}

TEST(InterruptControllerTest, TimerFiresPeriodically)
{
    InterruptController ic(1000, 0, 2);
    const Cycles first = ic.nextInterruptCycle();
    EXPECT_EQ(ic.pollInterrupt(first), VecTimer);
    EXPECT_EQ(ic.nextInterruptCycle(), first + 1000);
    EXPECT_EQ(ic.pollInterrupt(first + 1000), VecTimer);
    EXPECT_EQ(ic.timerDelivered(), 2u);
}

TEST(InterruptControllerTest, MissedTicksCoalesce)
{
    InterruptController ic(1000, 0, 3);
    const Cycles first = ic.nextInterruptCycle();
    // A long kernel section swallowed 5 periods: one delivery, then
    // the schedule resumes in the future.
    EXPECT_EQ(ic.pollInterrupt(first + 5000), VecTimer);
    EXPECT_GT(ic.nextInterruptCycle(), first + 5000);
}

TEST(InterruptControllerTest, NotDueReturnsMinusOne)
{
    InterruptController ic(1000, 0, 4);
    const Cycles first = ic.nextInterruptCycle();
    EXPECT_EQ(ic.pollInterrupt(first - 1), -1);
}

TEST(InterruptControllerTest, DisabledTimerNeverFires)
{
    InterruptController ic(0, 0, 5);
    EXPECT_EQ(ic.nextInterruptCycle(), ~Cycles{0});
}

TEST(InterruptControllerTest, IoInterruptsArePoisson)
{
    InterruptController a(0, 50000, 42), b(0, 50000, 42);
    // Same seed, same schedule.
    EXPECT_EQ(a.nextInterruptCycle(), b.nextInterruptCycle());
    const Cycles t = a.nextInterruptCycle();
    EXPECT_EQ(a.pollInterrupt(t), VecIo);
    EXPECT_GT(a.nextInterruptCycle(), t);
}

TEST(InterruptControllerTest, DeterministicPerSeed)
{
    InterruptController a(1000, 0, 7), b(1000, 0, 8);
    EXPECT_NE(a.nextInterruptCycle(), b.nextInterruptCycle());
}

MachineConfig
quietConfig(Interface iface = Interface::Pm)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = iface;
    cfg.interruptsEnabled = false;
    return cfg;
}

TEST(KernelTest, GetpidSyscallRoundTrips)
{
    Machine m(quietConfig());
    Assembler a("main");
    a.movImm(Reg::Eax, sysno::getpid).syscall().halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.run();
    // Entry + handler + exit executed in kernel mode.
    EXPECT_GT(r.kernelInstr, 100u);
    EXPECT_EQ(r.userInstr, 3u);
}

TEST(KernelTest, UnknownSyscallReturnsInvalidArgument)
{
    Machine m(quietConfig());
    Assembler a("main");
    a.movImm(Reg::Eax, 9999).syscall().halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.tryRun();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), pca::StatusCode::InvalidArgument);
    // run() surfaces the same failure as a typed exception.
    EXPECT_THROW(m.run(), pca::StatusError);
}

TEST(KernelTest, KernelCostScalesWithArch)
{
    auto kernel_cost = [](cpu::Processor p) {
        MachineConfig cfg = quietConfig();
        cfg.processor = p;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, sysno::getpid).syscall().halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run().kernelInstr;
    };
    // PD's kernel paths are the longest, K8's the shortest.
    EXPECT_GT(kernel_cost(cpu::Processor::PentiumD),
              kernel_cost(cpu::Processor::Core2Duo));
    EXPECT_GT(kernel_cost(cpu::Processor::Core2Duo),
              kernel_cost(cpu::Processor::AthlonX2));
}

TEST(KernelTest, TimerTickAttributedToKernelMode)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = true;
    cfg.ioInterrupts = false;
    cfg.preemptProb = 0.0;
    cfg.seed = 11;
    Machine m(cfg);
    Assembler a("main");
    // Run long enough for several ticks (~2.2M cycles per tick on
    // K8; the loop takes ~2-3 cycles/iteration).
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 4000000).jne(loop).halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.run();
    EXPECT_GE(r.interrupts, 3u);
    // Timer handler instructions are kernel-mode.
    EXPECT_GT(r.kernelInstr, r.interrupts * 900);
    // User instruction count is not perturbed by the ticks.
    EXPECT_EQ(r.userInstr, 3u * 4000000u + 2u);
}

TEST(KernelTest, TickRateMatchesHz1000)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;
    cfg.interruptsEnabled = true;
    cfg.ioInterrupts = false;
    cfg.preemptProb = 0.0;
    cfg.seed = 13;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 10000000).jne(loop).halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.run();
    // Expected ticks = cycles / (2.4e6 cycles per ms tick).
    const double expected =
        static_cast<double>(r.cycles) / 2400000.0;
    EXPECT_NEAR(static_cast<double>(r.interrupts), expected,
                expected * 0.2 + 2);
}

TEST(KernelTest, PreemptionSwitchesContext)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pc;
    cfg.interruptsEnabled = true;
    cfg.ioInterrupts = false;
    cfg.preemptProb = 1.0; // every tick preempts
    cfg.seed = 17;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 3000000).jne(loop).halt();
    m.addUserBlock(a.take());
    m.finalize();
    const auto r = m.run();
    EXPECT_GE(r.interrupts, 2u);
    EXPECT_GE(m.kernel().contextSwitches(), r.interrupts);
    // The benchmark still computes the right answer.
    EXPECT_EQ(m.core().getReg(Reg::Eax), 3000000u);
}

TEST(KernelTest, IoInterruptsAddKernelWork)
{
    auto kernel_instrs = [](bool io) {
        MachineConfig cfg;
        cfg.processor = cpu::Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = true;
        cfg.ioInterrupts = io;
        cfg.preemptProb = 0.0;
        cfg.seed = 19;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, 200000000)
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run();
    };
    const auto with_io = kernel_instrs(true);
    const auto without_io = kernel_instrs(false);
    // ~0.5 s simulated: expect several I/O interrupts (mean 40 ms).
    EXPECT_GT(with_io.interrupts, without_io.interrupts);
}

TEST(KernelTest, EachInterruptVectorRunsItsOwnHandler)
{
    // Known answer: with preemption off and a user loop that makes no
    // syscall, every kernel instruction belongs to an interrupt, and
    // each timer tick and each I/O interrupt retires its own path:
    // entry, its handler, exit.
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.preemptProb = 0.0;
    cfg.seed = 19;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 200000000).jne(loop).halt();
    m.addUserBlock(a.take());
    m.finalize();
    const cpu::RunResult r = m.run();

    const isa::Program &prog = m.program();
    auto instrs = [&](const char *block) {
        const isa::CodeBlock &b = prog.block(prog.find(block));
        Count n = 0;
        for (std::size_t i = 0; i < b.size(); ++i) {
            const isa::Inst &in = b.inst(i);
            if (in.op != isa::Opcode::HostOp)
                n += in.op == isa::Opcode::Nop
                    ? static_cast<Count>(in.size)
                    : 1;
        }
        return n;
    };
    const Count around = instrs("k_int_entry") + instrs("k_int_exit");
    const InterruptController &ic = m.kernel().interrupts();
    ASSERT_GT(ic.ioDelivered(), 0u);
    ASSERT_GT(ic.timerDelivered(), 0u);
    EXPECT_EQ(r.interrupts, ic.timerDelivered() + ic.ioDelivered());
    EXPECT_EQ(r.kernelInstr,
              ic.timerDelivered() * (around + instrs("k_timer")) +
                  ic.ioDelivered() * (around + instrs("k_io")));
}

TEST(KernelTest, DoubleBuildPanics)
{
    const cpu::MicroArch &arch = cpu::microArch(cpu::Processor::AthlonX2);
    PerfctrModule ext(arch);
    Kernel k(arch, ext, 1, false);
    isa::Program p;
    k.buildInto(p);
    isa::Program p2;
    EXPECT_THROW(k.buildInto(p2), std::logic_error);
}

TEST(KernelTest, DuplicateSyscallRegistrationPanics)
{
    const cpu::MicroArch &arch = cpu::microArch(cpu::Processor::AthlonX2);
    PerfctrModule ext(arch);
    Kernel k(arch, ext, 1, false);
    k.registerSyscall(777, "blk");
    EXPECT_THROW(k.registerSyscall(777, "blk2"), std::logic_error);
}

} // namespace
} // namespace pca::kernel
