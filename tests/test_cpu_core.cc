/**
 * @file
 * Unit tests for the Core interpreter: instruction semantics, control
 * flow, privilege transitions, counting, and loop fast-forward.
 */

#include <gtest/gtest.h>

#include "cpu/core.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "support/status.hh"

namespace pca::cpu
{
namespace
{

using isa::Assembler;
using isa::CodePtr;
using isa::Program;
using isa::Reg;

struct TestMachine
{
    Program prog;
    std::unique_ptr<Core> core;

    explicit TestMachine(Processor proc = Processor::AthlonX2)
        : core(std::make_unique<Core>(microArch(proc)))
    {
    }

    void
    finish()
    {
        prog.link();
        core->setProgram(&prog);
    }

    RunResult
    run(const std::string &entry = "main")
    {
        return core->run(prog.entry(entry));
    }
};

/** Expects running @p m to fail with a StatusError of @p code. */
void
expectGuestFault(TestMachine &m, StatusCode code)
{
    try {
        m.run();
        ADD_FAILURE() << "the run did not fault";
    } catch (const StatusError &e) {
        EXPECT_EQ(e.status().code(), code) << e.what();
    }
}

TEST(CoreAlu, MovAddSub)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 10)
        .addImm(Reg::Eax, 5)
        .subImm(Reg::Eax, 3)
        .movReg(Reg::Ebx, Reg::Eax)
        .addReg(Reg::Ebx, Reg::Eax)
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 12u);
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 24u);
}

TEST(CoreAlu, BitOps)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 0b1100)
        .movImm(Reg::Ebx, 0b1010)
        .xorReg(Reg::Eax, Reg::Ebx) // 0b0110
        .andImm(Reg::Eax, 0b0111)   // 0b0110
        .orReg(Reg::Eax, Reg::Ebx)  // 0b1110
        .shlImm(Reg::Eax, 1)        // 0b11100
        .shrImm(Reg::Eax, 2)        // 0b0111
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 0b111u);
}

TEST(CoreMemory, ResetForgetsEveryWord)
{
    // 300 stored and 300 pushed words, past the guest memory's first
    // table size: "sum" reads all of them back before a reset and
    // none after it.
    constexpr int words = 300;
    constexpr std::uint64_t sum_of_words = words * (words + 1) / 2;
    TestMachine m;
    Assembler fill("fill");
    fill.movImm(Reg::Ebx, 0x10000).movImm(Reg::Ecx, 0);
    const int store_loop = fill.label();
    fill.addImm(Reg::Ecx, 1)
        .store(Reg::Ecx, Reg::Ebx, 0)
        .push(Reg::Ecx)
        .addImm(Reg::Ebx, 8)
        .cmpImm(Reg::Ecx, words)
        .jne(store_loop)
        .halt();
    m.prog.add(fill.take());
    Assembler sum("sum");
    // eax sums the stored words, edx the popped ones.
    sum.movImm(Reg::Esp, 0xbfff0000 - 8 * words)
        .movImm(Reg::Ebx, 0x10000)
        .movImm(Reg::Eax, 0)
        .movImm(Reg::Edx, 0)
        .movImm(Reg::Ecx, 0);
    const int load_loop = sum.label();
    sum.load(Reg::Esi, Reg::Ebx, 0)
        .addReg(Reg::Eax, Reg::Esi)
        .pop(Reg::Edi)
        .addReg(Reg::Edx, Reg::Edi)
        .addImm(Reg::Ebx, 8)
        .addImm(Reg::Ecx, 1)
        .cmpImm(Reg::Ecx, words)
        .jne(load_loop)
        .halt();
    m.prog.add(sum.take());
    m.finish();

    m.run("fill");
    m.run("sum");
    EXPECT_EQ(m.core->getReg(Reg::Eax), sum_of_words);
    EXPECT_EQ(m.core->getReg(Reg::Edx), sum_of_words);
    m.core->reset();
    m.run("sum");
    EXPECT_EQ(m.core->getReg(Reg::Eax), 0u);
    EXPECT_EQ(m.core->getReg(Reg::Edx), 0u);
}

TEST(CoreControl, LoopRunsExactIterations)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 100).jne(loop).halt();
    m.prog.add(a.take());
    m.finish();
    const auto r = m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 100u);
    // 1 + 3*100 loop instructions + halt.
    EXPECT_EQ(r.userInstr, 302u);
}

TEST(CoreControl, PaperModelHoldsForManySizes)
{
    for (Count n : {1u, 2u, 7u, 100u, 1000u}) {
        TestMachine m;
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, static_cast<std::int64_t>(n))
            .jne(loop)
            .halt();
        m.prog.add(a.take());
        m.finish();
        const auto r = m.run();
        EXPECT_EQ(r.userInstr, 1 + 3 * n + 1) << "n=" << n;
    }
}

TEST(CoreControl, JeSkipsWhenEqual)
{
    TestMachine m;
    Assembler b("main");
    int s1 = b.forwardLabel();
    b.movImm(Reg::Eax, 5)
        .movImm(Reg::Ebx, 0)
        .cmpImm(Reg::Eax, 5)
        .je(s1)
        .movImm(Reg::Ebx, 111)
        .bind(s1)
        .halt();
    m.prog.add(b.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 0u);
}

TEST(CoreControl, SignedComparisons)
{
    TestMachine m;
    Assembler b("main");
    int less = b.forwardLabel();
    int done = b.forwardLabel();
    b.movImm(Reg::Eax, -3) // signed compare: -3 < 2
        .movImm(Reg::Ebx, 0)
        .cmpImm(Reg::Eax, 2)
        .jl(less)
        .movImm(Reg::Ebx, 1) // not-less path
        .jmp(done)
        .bind(less)
        .movImm(Reg::Ebx, 2) // less path
        .bind(done)
        .halt();
    m.prog.add(b.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 2u);
}

TEST(CoreControl, CallAndRet)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 1).call("callee").addImm(Reg::Eax, 100).halt();
    m.prog.add(a.take());
    Assembler c("callee");
    c.addImm(Reg::Eax, 10).ret();
    m.prog.add(c.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 111u);
}

TEST(CoreControl, NestedCalls)
{
    TestMachine m;
    Assembler a("main");
    a.call("f1").halt();
    m.prog.add(a.take());
    Assembler f1("f1");
    f1.addImm(Reg::Eax, 1).call("f2").addImm(Reg::Eax, 4).ret();
    m.prog.add(f1.take());
    Assembler f2("f2");
    f2.addImm(Reg::Eax, 2).ret();
    m.prog.add(f2.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 7u);
}

TEST(CoreControl, RetWithoutCallPanics)
{
    TestMachine m;
    Assembler a("main");
    a.ret();
    m.prog.add(a.take());
    m.finish();
    expectGuestFault(m, StatusCode::FailedPrecondition);
}

TEST(CoreMemory, StackPushPop)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 42)
        .movImm(Reg::Ebx, 77)
        .push(Reg::Eax)
        .push(Reg::Ebx)
        .movImm(Reg::Eax, 0)
        .movImm(Reg::Ebx, 0)
        .pop(Reg::Ebx)
        .pop(Reg::Eax)
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 42u);
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 77u);
}

TEST(CoreMemory, LoadStore)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Esi, 0x20000000)
        .movImm(Reg::Eax, 1234)
        .store(Reg::Eax, Reg::Esi, 8)
        .movImm(Reg::Ebx, 0)
        .load(Reg::Ebx, Reg::Esi, 8)
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 1234u);
    EXPECT_EQ(m.core->rawEvents(EventType::DcacheAccess, Mode::User),
              2u);
}

TEST(CoreMemory, UninitializedLoadIsZero)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Esi, 0x30000000)
        .movImm(Reg::Ebx, 55)
        .load(Reg::Ebx, Reg::Esi, 0)
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 0u);
}

TEST(CoreCounting, InstrRetiredPerMode)
{
    TestMachine m;
    Assembler a("main");
    a.nop(9).halt();
    m.prog.add(a.take());
    m.finish();
    const auto r = m.run();
    EXPECT_EQ(r.userInstr, 10u);
    EXPECT_EQ(r.kernelInstr, 0u);
    EXPECT_EQ(m.core->rawEvents(EventType::InstrRetired, Mode::User),
              10u);
}

TEST(CoreCounting, BranchEventsCounted)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 10).jne(loop).halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->rawEvents(EventType::BrInstRetired, Mode::User),
              10u);
    // Warmup mispredict(s) plus the final fall-through mispredict.
    const auto misp =
        m.core->rawEvents(EventType::BrMispRetired, Mode::User);
    EXPECT_GE(misp, 2u);
    EXPECT_LE(misp, 3u);
}

TEST(CoreCounting, HostOpIsArchitecturallyFree)
{
    TestMachine m;
    bool ran = false;
    Assembler a("main");
    a.nop(2)
        .host([&ran](isa::CpuContext &) { ran = true; })
        .nop(3)
        .halt();
    m.prog.add(a.take());
    m.finish();
    const auto r = m.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(r.userInstr, 6u); // 5 nops + halt; host op free
}

TEST(CoreCounting, HostOpCanReadAndWriteRegs)
{
    TestMachine m;
    std::uint64_t seen = 0;
    Assembler a("main");
    a.movImm(Reg::Edx, 321)
        .host([&seen](isa::CpuContext &ctx) {
            seen = ctx.getReg(Reg::Edx);
            ctx.setReg(Reg::Esi, 654);
        })
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_EQ(seen, 321u);
    EXPECT_EQ(m.core->getReg(Reg::Esi), 654u);
}

TEST(CoreCounting, HostOpJumpRedirects)
{
    TestMachine m;
    Assembler a("main");
    int elsewhere = -1; // its block id, known once it is added
    a.host([&elsewhere](isa::CpuContext &ctx) { ctx.jumpTo(elsewhere); })
        .movImm(Reg::Eax, 1) // skipped
        .halt();
    m.prog.add(a.take());
    Assembler e("elsewhere");
    e.movImm(Reg::Eax, 2).halt();
    elsewhere = m.prog.add(e.take());
    m.finish();
    m.run();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 2u);
}

TestMachine
withMiniKernel()
{
    TestMachine m;
    // Block ids follow the order the blocks are added in.
    constexpr int k_add = 1, k_exit = 2;
    Assembler entry("k_entry");
    entry.nop(5).host([](isa::CpuContext &ctx) {
        // Dispatch: syscall 1 -> k_add; else exit.
        if (ctx.getReg(Reg::Eax) == 1)
            ctx.jumpTo(k_add);
        else
            ctx.jumpTo(k_exit);
    });
    m.prog.add(entry.take());
    Assembler add("k_add");
    add.addImm(Reg::Ebx, 1000).nop(3).host(
        [](isa::CpuContext &ctx) { ctx.jumpTo(k_exit); });
    m.prog.add(add.take());
    Assembler exit("k_exit");
    exit.nop(2).iret();
    m.prog.add(exit.take());
    return m;
}

TEST(CoreTraps, SyscallRunsKernelAndReturns)
{
    TestMachine m = withMiniKernel();
    Assembler a("main");
    a.movImm(Reg::Ebx, 1)
        .movImm(Reg::Eax, 1)
        .syscall()
        .addImm(Reg::Ebx, 10)
        .halt();
    m.prog.add(a.take());
    m.finish();
    m.core->setSyscallEntry(m.prog.entry("k_entry"));
    const auto r = m.run();
    EXPECT_EQ(m.core->getReg(Reg::Ebx), 1011u);
    // Kernel instructions: 5 + 3 + add + 2 + iret = 12.
    EXPECT_EQ(r.kernelInstr, 12u);
    // User: 2 movs + syscall + add + halt = 5.
    EXPECT_EQ(r.userInstr, 5u);
}

TEST(CoreTraps, KernelInstructionsAttributedToKernelMode)
{
    TestMachine m = withMiniKernel();
    Assembler a("main");
    a.movImm(Reg::Eax, 1).syscall().halt();
    m.prog.add(a.take());
    m.finish();
    m.core->setSyscallEntry(m.prog.entry("k_entry"));
    m.run();
    EXPECT_EQ(
        m.core->rawEvents(EventType::InstrRetired, Mode::Kernel), 12u);
    EXPECT_GT(m.core->modeCycles(Mode::Kernel), 0u);
}

TEST(CoreTraps, SyscallWithoutKernelPanics)
{
    TestMachine m;
    Assembler a("main");
    a.syscall().halt();
    m.prog.add(a.take());
    m.finish();
    expectGuestFault(m, StatusCode::FailedPrecondition);
}

TEST(CoreTraps, IretWithoutTrapPanics)
{
    TestMachine m;
    Assembler a("main");
    a.iret();
    m.prog.add(a.take());
    m.finish();
    expectGuestFault(m, StatusCode::FailedPrecondition);
}

TEST(CorePrivilege, RdpmcForbiddenInUserByDefault)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Ecx, 0).rdpmc().halt();
    m.prog.add(a.take());
    m.finish();
    expectGuestFault(m, StatusCode::FailedPrecondition);
}

TEST(CorePrivilege, RdpmcAllowedWhenPceSet)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Ecx, 0).rdpmc().halt();
    m.prog.add(a.take());
    m.finish();
    m.core->allowUserRdpmc(true);
    EXPECT_NO_THROW(m.run());
}

TEST(CorePrivilege, WrmsrForbiddenInUserMode)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Ecx, Pmu::msrTsc).movImm(Reg::Eax, 0).wrmsr().halt();
    m.prog.add(a.take());
    m.finish();
    expectGuestFault(m, StatusCode::FailedPrecondition);
}

TEST(CorePrivilege, RdtscWorksInUserMode)
{
    TestMachine m;
    Assembler a("main");
    a.nop(3).rdtsc().halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    EXPECT_GT(m.core->getReg(Reg::Eax), 0u);
}

TEST(CoreGuard, RunawayProgramPanics)
{
    TestMachine m;
    Assembler a("main");
    int loop = a.label();
    a.jmp(loop);
    m.prog.add(a.take());
    m.finish();
    EXPECT_THROW(m.core->run(m.prog.entry("main"), 10000),
                 StatusError);
}

TEST(CoreGuard, RunawayIsResourceExhaustedOnBothEngines)
{
    // The two engines overshoot the limit by different amounts (one
    // block dispatch runs up to a chunk), so the status must name the
    // limit, not the step it was observed at.
    std::vector<Status> seen;
    for (const bool block : {true, false}) {
        TestMachine m;
        Assembler a("main");
        int loop = a.label();
        a.addImm(Reg::Eax, 1).jmp(loop);
        m.prog.add(a.take());
        m.finish();
        m.core->setBlockEngineEnabled(block);
        try {
            m.core->run(m.prog.entry("main"), 10000);
            ADD_FAILURE() << "block=" << block << ": no runaway";
        } catch (const StatusError &e) {
            seen.push_back(e.status());
        }
    }
    ASSERT_EQ(seen.size(), 2u);
    for (const Status &st : seen)
        EXPECT_EQ(st.code(), StatusCode::ResourceExhausted);
    EXPECT_EQ(seen[0].message(), seen[1].message());
    EXPECT_EQ(seen[0].message(),
              "runaway program: more than 10000 instructions retired "
              "without halting");
}

TEST(CoreGuard, FoldedLoopCountsTowardRunawayLimit)
{
    // A counted loop of 3,000,002 retired instructions against a
    // limit of 100,000: folding retires the loop in one dispatch,
    // so the guard must count retired instructions, not dispatches,
    // to reach the same verdict as plain interpretation.
    for (const bool ff : {true, false}) {
        TestMachine m;
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 1000000).jne(loop).halt();
        m.prog.add(a.take());
        m.finish();
        m.core->setFastForwardEnabled(ff);
        try {
            const RunResult r = m.core->run(m.prog.entry("main"), 100000);
            ADD_FAILURE() << "ff=" << ff << ": halted after "
                          << r.userInstr << " instructions";
        } catch (const StatusError &e) {
            EXPECT_EQ(e.status().code(), StatusCode::ResourceExhausted)
                << "ff=" << ff;
        }
    }
}

TEST(CoreFastForward, MatchesInterpretationExactly)
{
    auto run_loop = [](bool ff, Count iters) {
        TestMachine m;
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.prog.add(a.take());
        m.finish();
        m.core->setFastForwardEnabled(ff);
        const auto r = m.run();
        return std::tuple{r.userInstr, r.cycles, m.core->getReg(Reg::Eax),
                          m.core->rawEvents(EventType::BrInstRetired,
                                            Mode::User)};
    };
    for (Count n : {10u, 1000u, 50000u}) {
        EXPECT_EQ(run_loop(true, n), run_loop(false, n)) << "n=" << n;
    }
}

TEST(CoreFastForward, ActuallyFastForwards)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 1000000).jne(loop).halt();
    m.prog.add(a.take());
    m.finish();
    const auto r = m.run();
    EXPECT_GT(r.fastForwardedIters, 900000u);
    EXPECT_EQ(r.userInstr, 3000002u);
}

TEST(CoreFastForward, MemoryLoopIsNotFastForwarded)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 0).movImm(Reg::Esi, 0x20000000);
    int loop = a.label();
    a.load(Reg::Ebx, Reg::Esi, 0)
        .addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, 5000)
        .jne(loop)
        .halt();
    m.prog.add(a.take());
    m.finish();
    const auto r = m.run();
    EXPECT_EQ(r.fastForwardedIters, 0u);
    EXPECT_EQ(r.userInstr, 2u + 4u * 5000u + 1u);
}

TEST(CoreReset, ClearsState)
{
    TestMachine m;
    Assembler a("main");
    a.movImm(Reg::Eax, 9).nop(5).halt();
    m.prog.add(a.take());
    m.finish();
    m.run();
    m.core->reset();
    EXPECT_EQ(m.core->getReg(Reg::Eax), 0u);
    EXPECT_EQ(m.core->rawEvents(EventType::InstrRetired, Mode::User),
              0u);
    EXPECT_EQ(m.core->cycles(), 0u);
}

} // namespace
} // namespace pca::cpu
