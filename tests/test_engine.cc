/**
 * @file
 * The basic-block engine's one contract: it must be invisible.
 * Architectural state, PMU counts, interrupt delivery and every
 * canned study's CSV must be byte-identical with the engine
 * (MachineConfig::decodeCache) on and off — serial or parallel, with
 * or without an active fault plan — on counted, call, time-read,
 * strided-memory and nested loops and on Nop runs, with fast-forward
 * on and off. The retired trace-tier switch
 * (MachineConfig::traceTier) must change nothing either. Plus unit
 * tests of the link-time classification the engine runs on (flags,
 * escape classification, straight-line and Nop run boundaries) and
 * of the per-reason escape and Nop-run counters.
 */

#include <cstdlib>
#include <functional>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "obs/spc.hh"

using namespace pca;
using namespace pca::harness;

// ---------------------------------------------------------------- //
// Link-time classification unit tests
// ---------------------------------------------------------------- //

namespace
{

/** Build a linked single-block program around the given assembly. */
isa::Program
linkLoop(Count iters)
{
    isa::Assembler a("main");
    a.movImm(isa::Reg::Eax, 0);
    int loop = a.label();
    a.addImm(isa::Reg::Eax, 1)
        .cmpImm(isa::Reg::Eax, static_cast<std::int64_t>(iters))
        .jne(loop)
        .halt();
    isa::Program p;
    p.add(a.take());
    p.link(/*base_addr=*/0x1000);
    return p;
}

} // namespace

TEST(BlockLayout, FlagsAndEscapes)
{
    const isa::Program p = linkLoop(10);
    const isa::CodeBlock &blk = p.block(0);
    ASSERT_EQ(blk.size(), 5u);

    // movImm / addImm / cmpImm: inline, ff-safe, not branches.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_FALSE(blk.inst(i).escape()) << i;
        EXPECT_NE(blk.inst(i).flags & isa::IfFfSafe, 0) << i;
        EXPECT_EQ(blk.inst(i).flags & isa::IfCondBranch, 0) << i;
    }

    // jne loop: conditional backward branch with a resolved target.
    const isa::Inst &jne = blk.inst(3);
    EXPECT_FALSE(jne.escape());
    EXPECT_NE(jne.flags & isa::IfCondBranch, 0);
    EXPECT_NE(jne.flags & isa::IfBackwardBranch, 0);
    EXPECT_EQ(jne.targetIndex, 1);
    EXPECT_EQ(jne.targetAddr, blk.inst(1).addr);

    // halt: escape (handled by the per-step interpreter).
    EXPECT_TRUE(blk.inst(4).escape());
}

TEST(BlockLayout, RunEndsStopAtEscapes)
{
    const isa::Program p = linkLoop(10);
    const isa::CodeBlock &blk = p.block(0);
    // From any of the first four instructions the straight-line run
    // extends to the halt at index 4; the halt's own run is itself.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(blk.inst(i).runEnd, 4) << i;
    EXPECT_EQ(blk.inst(4).runEnd, 4);
}

// ---------------------------------------------------------------- //
// Core-level equality, interrupts live
// ---------------------------------------------------------------- //

namespace
{

/** Digest of a full run: results plus every raw event counter. */
std::string
digestOf(Machine &m)
{
    const cpu::RunResult r = m.run();
    std::ostringstream os;
    os << r.userInstr << '/' << r.kernelInstr << '/' << r.cycles
       << '/' << r.interrupts << '/' << r.fastForwardedIters;
    for (std::size_t e = 0; e < cpu::numEvents; ++e)
        for (auto mode : {Mode::User, Mode::Kernel})
            os << '/'
               << m.core().rawEvents(static_cast<cpu::EventType>(e),
                                     mode);
    return os.str();
}

/** Adds the user program to a fresh machine (before finalize). */
using ProgramFn = std::function<void(Machine &)>;

/** The machine every identity case runs on (interrupts on). */
MachineConfig
identityConfig(cpu::Processor proc = cpu::Processor::PentiumD,
               bool ff = true, bool interrupts = true)
{
    MachineConfig cfg;
    cfg.processor = proc;
    cfg.iface = Interface::Pc;
    cfg.fastForward = ff;
    cfg.interruptsEnabled = interrupts;
    cfg.profile = obs::ProfileConfig{}; // a profiler forces step()
    return cfg;
}

/**
 * Digest of @p program run on a fresh machine booted from @p cfg,
 * its user text shifted by @p text_offset bytes.
 */
std::string
programDigest(const MachineConfig &cfg, const ProgramFn &program,
              Addr text_offset = 0)
{
    Machine m(cfg);
    program(m);
    m.finalize(text_offset);
    return digestOf(m);
}

/**
 * Expects @p program to leave the same digest on every execution
 * tier: the legacy per-step interpreter, and the block engine with
 * MachineConfig::traceTier off and on. That switch names a retired
 * superblock tier; nothing reads it, so it must change nothing.
 */
void
expectTiersIdentical(MachineConfig cfg, const ProgramFn &program,
                     const std::string &what = "",
                     Addr text_offset = 0)
{
    cfg.decodeCache = false;
    const std::string legacy =
        programDigest(cfg, program, text_offset);
    cfg.decodeCache = true;
    for (const bool trace : {false, true}) {
        cfg.traceTier = trace;
        EXPECT_EQ(programDigest(cfg, program, text_offset), legacy)
            << what << " traceTier=" << trace;
    }
}

/** Counted add/cmp/jne loop. */
ProgramFn
countedLoop(Count iters)
{
    return [iters](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Eax, 0);
        int loop = a.label();
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/** Leaf function "leaf": ebx += 1; ret. */
void
addLeaf(Machine &m)
{
    isa::Assembler fn("leaf");
    fn.addImm(isa::Reg::Ebx, 1).ret();
    m.addUserBlock(fn.take());
}

/**
 * Loop calling the leaf every iteration, optionally reading the TSC
 * too. Both escape to the legacy interpreter with the call stack
 * live. The counter lives in Esi because rdtsc writes Eax.
 */
ProgramFn
callLoop(Count iters, bool rdtsc)
{
    return [iters, rdtsc](Machine &m) {
        addLeaf(m);
        isa::Assembler a("main");
        a.movImm(isa::Reg::Esi, 0);
        int loop = a.label();
        a.call("leaf");
        if (rdtsc)
            a.rdtsc();
        a.addImm(isa::Reg::Esi, 1)
            .cmpImm(isa::Reg::Esi, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/**
 * Load-modify-store through Ecx advancing by @p stride bytes per
 * iteration (0 = constant address, negative = descending walk).
 */
ProgramFn
memLoop(Count iters, std::int64_t stride)
{
    return [iters, stride](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Esi, 0).movImm(isa::Reg::Ecx, 0x400000);
        int loop = a.label();
        a.load(isa::Reg::Ebx, isa::Reg::Ecx, 0)
            .addImm(isa::Reg::Ebx, 3)
            .store(isa::Reg::Ebx, isa::Reg::Ecx, 0);
        if (stride > 0)
            a.addImm(isa::Reg::Ecx, stride);
        else if (stride < 0)
            a.subImm(isa::Reg::Ecx, -stride);
        a.addImm(isa::Reg::Esi, 1)
            .cmpImm(isa::Reg::Esi, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/**
 * Doubly-nested counted loop whose inner body walks memory with a
 * stride that grows by @p stride_step bytes per outer pass (0 keeps
 * the inner body register-only).
 */
ProgramFn
nestedLoop(Count outer, Count inner, std::int64_t stride_step)
{
    return [outer, inner, stride_step](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Edi, 0).movImm(isa::Reg::Edx, 0);
        int oloop = a.label();
        a.movImm(isa::Reg::Ecx, 0x400000).movImm(isa::Reg::Eax, 0);
        int iloop = a.label();
        if (stride_step != 0)
            a.load(isa::Reg::Ebx, isa::Reg::Ecx, 0)
                .addReg(isa::Reg::Ecx, isa::Reg::Edx);
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax, static_cast<std::int64_t>(inner))
            .jne(iloop);
        if (stride_step != 0)
            a.addImm(isa::Reg::Edx, stride_step);
        a.addImm(isa::Reg::Edi, 1)
            .cmpImm(isa::Reg::Edi, static_cast<std::int64_t>(outer))
            .jne(oloop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/**
 * Straight-line runs of every length in [@p min_len, @p max_len]
 * 1-byte Nops, each closed by an add, then halt.
 */
ProgramFn
nopRuns(int min_len, int max_len)
{
    return [min_len, max_len](Machine &m) {
        isa::Assembler a("main");
        for (int len = min_len; len <= max_len; ++len)
            a.nop(len).addImm(isa::Reg::Eax, 1);
        a.halt();
        m.addUserBlock(a.take());
    };
}

/**
 * Counted loop whose body is Nop runs of the given lengths, each
 * closed by an add.
 */
ProgramFn
nopLoop(Count iters, std::vector<int> runs)
{
    return [iters, runs](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Esi, 0);
        int loop = a.label();
        for (const int len : runs)
            a.nop(len).addImm(isa::Reg::Ebx, 1);
        a.addImm(isa::Reg::Esi, 1)
            .cmpImm(isa::Reg::Esi, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

} // namespace

TEST(EngineIdentityCore, InterruptDeliveryIdentical)
{
    // Interrupts enabled (default): the engine must break dispatch at
    // exactly the cycles the per-step interpreter polls.
    MachineConfig cfg = identityConfig();
    cfg.decodeCache = false;
    const std::string off = programDigest(cfg, countedLoop(200000));
    cfg.decodeCache = true;
    EXPECT_EQ(programDigest(cfg, countedLoop(200000)), off);
}

// ---------------------------------------------------------------- //
// Every execution tier: legacy, block, and the inert trace switch
// ---------------------------------------------------------------- //

TEST(EngineIdentityCore, InterruptDeliveryIdenticalFfOnAndOff)
{
    // Many interrupts land mid-loop; with fast-forward off every one
    // of them interrupts a block-engine dispatch.
    for (const bool ff : {false, true})
        expectTiersIdentical(
            identityConfig(cpu::Processor::PentiumD, ff),
            countedLoop(200000), ff ? "ff=1" : "ff=0");
}

TEST(EngineIdentityCore, ReturnStackIdenticalUnderInterrupts)
{
    // Interrupts deliver between dispatches while every iteration's
    // call keeps the core's return-address stack live.
    expectTiersIdentical(identityConfig(), callLoop(30000, true));
}

TEST(EngineIdentityCore, TimeReadFoldIdenticalInterruptsOff)
{
    // With interrupts off the block engine runs long dispatch chains
    // between escapes; every rdtsc must still observe fully retired
    // state.
    expectTiersIdentical(
        identityConfig(cpu::Processor::PentiumD, true, false),
        callLoop(30000, true));
}

TEST(EngineIdentityCore, EscapesFoldAwayAndRebootReforms)
{
    // A register-only warm-up loop, then a call+rdtsc loop. Loop
    // fast-forward folds the warm-up away. The call loop is not
    // ff-safe, so every iteration runs and escapes: call and ret, plus
    // one time read. A reboot drops the machine's state; the rebooted
    // run must end in the first boot's state and fold and escape
    // exactly as often again.
    obs::spcReset();
    obs::spcAttach("all");

    MachineConfig cfg =
        identityConfig(cpu::Processor::AthlonX2, true, false);
    cfg.iface = Interface::Pm;
    cfg.decodeCache = true; // escapes exist on the block engine only
    Machine m(cfg);
    addLeaf(m);
    isa::Assembler a("main");
    a.movImm(isa::Reg::Esi, 0);
    int warm = a.label();
    a.addImm(isa::Reg::Esi, 1)
        .cmpImm(isa::Reg::Esi, 1000)
        .jne(warm);
    a.movImm(isa::Reg::Esi, 0);
    int loop = a.label();
    a.call("leaf")
        .rdtsc()
        .addImm(isa::Reg::Esi, 1)
        .cmpImm(isa::Reg::Esi, 1000)
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize();

    const std::string first = digestOf(m);
    const Count folded = obs::spcValue(obs::Spc::FastForwardIters);
    EXPECT_GT(folded, 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeCallret), 2000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeTimeread), 1000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeSyscall), 0u);

    m.reboot(cfg.seed);
    EXPECT_EQ(digestOf(m), first);
    EXPECT_EQ(obs::spcValue(obs::Spc::FastForwardIters), 2 * folded);
    EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeCallret), 4000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeTimeread), 2000u);
    obs::spcReset();
}

TEST(EngineIdentityCore, EscapeCountersTellTiersApart)
{
    // The block engine hands each call, ret and rdtsc to the legacy
    // interpreter and counts the hand-off by reason. The legacy
    // interpreter runs everything itself and counts none. The trace
    // switch changes no count.
    struct Tier
    {
        bool decode;
        bool trace;
        Count callret;
        Count timeread;
    };
    for (const Tier t : {Tier{true, false, 1000, 500},
                         Tier{true, true, 1000, 500},
                         Tier{false, false, 0, 0}}) {
        obs::spcReset();
        obs::spcAttach("all");
        MachineConfig cfg =
            identityConfig(cpu::Processor::AthlonX2, false, false);
        cfg.decodeCache = t.decode;
        cfg.traceTier = t.trace;
        programDigest(cfg, callLoop(500, true));
        EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeCallret),
                  t.callret)
            << "decode=" << t.decode << " traceTier=" << t.trace;
        EXPECT_EQ(obs::spcValue(obs::Spc::BlockEscapeTimeread),
                  t.timeread)
            << "decode=" << t.decode << " traceTier=" << t.trace;
    }
    obs::spcReset();
}

TEST(EngineIdentityMemory, StridePatternsIdenticalAllTiers)
{
    // Constant address (stride 0), a stride that crosses a dcache
    // line every few iterations (8), a descending walk (-8), and a
    // stride that crosses a page every iteration (4096).
    for (const auto proc :
         {cpu::Processor::PentiumD, cpu::Processor::AthlonX2})
        for (const std::int64_t stride :
             {std::int64_t{0}, std::int64_t{8}, std::int64_t{-8},
              std::int64_t{4096}})
            for (const bool ff : {false, true})
                expectTiersIdentical(
                    identityConfig(proc, ff), memLoop(30000, stride),
                    std::string(cpu::processorCode(proc)) +
                        " stride=" + std::to_string(stride) +
                        " ff=" + std::to_string(ff));
}

TEST(EngineIdentityMemory, NestedLoopsIdenticalAllTiers)
{
    // A register-only inner loop, and one whose memory stride grows
    // every outer pass.
    for (const auto proc :
         {cpu::Processor::PentiumD, cpu::Processor::AthlonX2})
        for (const std::int64_t step : {std::int64_t{0}, std::int64_t{8}})
            for (const bool ff : {false, true})
                expectTiersIdentical(
                    identityConfig(proc, ff), nestedLoop(200, 150, step),
                    std::string(cpu::processorCode(proc)) +
                        " step=" + std::to_string(step) +
                        " ff=" + std::to_string(ff));
}

TEST(EngineIdentityMemory, InlinedCallLoopIdenticalAllTiers)
{
    // A loop whose only work is a call to a branch-free leaf.
    for (const auto proc :
         {cpu::Processor::PentiumD, cpu::Processor::AthlonX2})
        for (const bool ff : {false, true})
            expectTiersIdentical(identityConfig(proc, ff),
                                 callLoop(50000, false),
                                 std::string(cpu::processorCode(proc)) +
                                     " ff=" + std::to_string(ff));
}

// ---------------------------------------------------------------- //
// Nop runs: retired a run at a time, identical to one at a time
// ---------------------------------------------------------------- //

TEST(EngineIdentityCore, NopRunsAtEveryLineOffsetIdentical)
{
    // Runs of 2..300 Nops, the whole text shifted through every
    // start offset of a 64-byte line: each run enters its lines,
    // fetch windows and decode groups at every alignment.
    for (Addr off = 0; off < 64; ++off)
        expectTiersIdentical(identityConfig(cpu::Processor::Core2Duo),
                             nopRuns(2, 300),
                             "offset=" + std::to_string(off), off);
}

TEST(EngineIdentityCore, NopRunAcrossPagesIdentical)
{
    // One run crossing several 4 KiB iTLB pages and longer than a
    // dispatch chunk (65536 steps), so it also splits across
    // dispatches.
    for (const auto proc :
         {cpu::Processor::PentiumD, cpu::Processor::Core2Duo,
          cpu::Processor::AthlonX2})
        expectTiersIdentical(identityConfig(proc), nopRuns(70000, 70000),
                             cpu::processorCode(proc));
}

TEST(EngineIdentityCore, NopLoopsUnderTimerTicksIdentical)
{
    // A short timer period: ticks fall due inside Nop runs, so the
    // interrupt horizon decides between one step per run and one per
    // Nop (fast-forward off). With fast-forward on, loop folding sees
    // iterations retired a run at a time. The one-line loop (33
    // bytes from offset 5) streams from the Core 2 loop buffer. In
    // the long record, ticks land at positions throughout one Nop
    // record: the interrupt saves the position and iret resumes the
    // record there.
    for (const auto proc :
         {cpu::Processor::PentiumD, cpu::Processor::Core2Duo,
          cpu::Processor::AthlonX2})
        for (const bool ff : {false, true}) {
            MachineConfig cfg = identityConfig(proc, ff);
            cfg.timerPeriodOverride = 10007;
            const std::string name = std::string(
                cpu::processorCode(proc)) + " ff=" + std::to_string(ff);
            // The analytic user count: mov, halt, and per iteration
            // the Nops, one add per run and add/cmp/jne.
            for (const auto &[runs, iters, what] :
                 {std::tuple{std::vector<int>{2, 37, 300, 5}, 2000,
                             " long body"},
                  std::tuple{std::vector<int>{20}, 50000,
                             " one-line body"},
                  std::tuple{std::vector<int>{4999}, 200,
                             " long record"}}) {
                const ProgramFn program =
                    nopLoop(static_cast<Count>(iters), runs);
                Count body = 3;
                for (const int len : runs)
                    body += static_cast<Count>(len) + 1;
                Machine m(cfg);
                program(m);
                m.finalize();
                const cpu::RunResult r = m.run();
                EXPECT_GE(r.interrupts, 20u) << name << what;
                EXPECT_EQ(r.userInstr,
                          2 + static_cast<Count>(iters) * body)
                    << name << what;
                expectTiersIdentical(cfg, program, name + what);
            }
        }
}

TEST(EngineIdentityCore, NopRecordDeadlineIdentical)
{
    // A Halt-less loop around a 100,000-Nop record under a watchdog
    // budget of three dispatch chunks (65536 instructions each) less
    // one. Chunk boundaries fall inside the record, so a block-engine
    // dispatch ends mid-record and the next resumes there; a chunk
    // counted in records would overshoot the budget. Both engines
    // trip the watchdog with the same retired count.
    std::string first;
    for (const bool decode : {false, true}) {
        MachineConfig cfg = identityConfig(cpu::Processor::Core2Duo,
                                           true, false);
        cfg.decodeCache = decode;
        cfg.runInstrBudget = 3 * 65536 - 1;
        Machine m(cfg);
        isa::Assembler a("main");
        int loop = a.label();
        a.nop(100000).jmp(loop);
        m.addUserBlock(a.take());
        m.finalize();
        const auto r = m.tryRun();
        ASSERT_FALSE(r.ok());
        EXPECT_EQ(r.status().code(), StatusCode::DeadlineExceeded);
        const Count retired =
            m.core().rawEvents(cpu::EventType::InstrRetired, Mode::User);
        EXPECT_EQ(retired, 3u * 65536u) << "decode=" << decode;
        const std::string got = r.status().toString() + " " +
            std::to_string(retired) + " " +
            std::to_string(m.core().cycles());
        if (first.empty())
            first = got;
        EXPECT_EQ(got, first) << "decode=" << decode;
    }
}

TEST(BlockLayout, NopRunEndsStopAtOtherInstructions)
{
    isa::Assembler a("main");
    a.nop(3).addImm(isa::Reg::Eax, 1).nop(1).nop(2).halt();
    isa::Program p;
    p.add(a.take());
    p.link(/*base_addr=*/0x1000);
    const isa::CodeBlock &blk = p.block(0);
    // nop x3 | add | nop x3 | halt: successive nop() calls extend one
    // record, and any other instruction ends it.
    ASSERT_EQ(blk.size(), 4u);
    EXPECT_EQ(blk.bytes(), 10u);
    const isa::Opcode ops[] = {isa::Opcode::Nop, isa::Opcode::AddImm,
                               isa::Opcode::Nop, isa::Opcode::Halt};
    const int sizes[] = {3, 3, 3, 1};
    const Addr addrs[] = {0x1000, 0x1003, 0x1006, 0x1009};
    for (std::size_t i = 0; i < blk.size(); ++i) {
        EXPECT_EQ(blk.inst(i).op, ops[i]) << i;
        EXPECT_EQ(blk.inst(i).size, sizes[i]) << i;
        EXPECT_EQ(blk.inst(i).addr, addrs[i]) << i;
    }
}

TEST(BlockLayout, NopRunCounterCountsFoldedNops)
{
    // nop_run_instrs counts the Nops the block engine retires a run
    // at a time; the per-step interpreter retires none that way.
    for (const bool decode : {true, false}) {
        obs::spcReset();
        obs::spcAttach("nop_run_instrs");
        MachineConfig cfg;
        cfg.decodeCache = decode;
        cfg.profile = obs::ProfileConfig{}; // a profiler forces step()
        Machine m(cfg);
        isa::Assembler a("main");
        a.work(500).halt();
        m.addUserBlock(a.take());
        m.finalize();
        const cpu::RunResult r = m.run();
        EXPECT_EQ(r.userInstr, 501u);
        EXPECT_EQ(obs::spcValue(obs::Spc::NopRunInstrs),
                  decode ? 500u : 0u)
            << "decode=" << decode;
        obs::spcReset();
    }
}

TEST(BlockLayout, UserInstrCountersSplitByPath)
{
    // Every user instruction is retired by exactly one path: the
    // block engine, the per-step interpreter (including the escapes
    // the engine hands it) or loop folding. The program has a
    // foldable loop, a call loop that escapes, Nop records and
    // timer ticks.
    const ProgramFn program = [](Machine &m) {
        addLeaf(m);
        isa::Assembler a("main");
        a.movImm(isa::Reg::Esi, 0);
        int warm = a.label();
        a.addImm(isa::Reg::Esi, 1).cmpImm(isa::Reg::Esi, 5000).jne(warm);
        a.movImm(isa::Reg::Esi, 0);
        int loop = a.label();
        a.call("leaf").work(40).addImm(isa::Reg::Esi, 1)
            .cmpImm(isa::Reg::Esi, 8000).jne(loop);
        a.work(500).halt();
        m.addUserBlock(a.take());
    };
    auto split = [](const char *what) {
        return "block " +
            std::to_string(obs::spcValue(obs::Spc::UserInstrsBlock)) +
            " step " +
            std::to_string(obs::spcValue(obs::Spc::UserInstrsStep)) +
            " folded " +
            std::to_string(obs::spcValue(obs::Spc::UserInstrsFolded)) +
            " " + what;
    };
    for (const bool decode : {false, true})
        for (const bool ff : {false, true}) {
            obs::spcReset();
            obs::spcAttach("all");
            MachineConfig cfg =
                identityConfig(cpu::Processor::PentiumD, ff);
            cfg.timerPeriodOverride = 5003;
            cfg.decodeCache = decode;
            Machine m(cfg);
            program(m);
            m.finalize();
            const cpu::RunResult r = m.run();
            const std::string what = "decode=" + std::to_string(decode) +
                " ff=" + std::to_string(ff);
            EXPECT_GE(r.interrupts, 20u) << what;
            EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsBlock) +
                          obs::spcValue(obs::Spc::UserInstrsStep) +
                          obs::spcValue(obs::Spc::UserInstrsFolded),
                      r.userInstr)
                << split(what.c_str());
            EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsBlock) == 0,
                      !decode)
                << split(what.c_str());
            EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsFolded) == 0, !ff)
                << split(what.c_str());
            EXPECT_EQ(obs::spcValue(obs::Spc::RunsForcedStepProfiler) +
                          obs::spcValue(obs::Spc::RunsForcedStepSampling),
                      0u)
                << what;
        }

    // An attached profiler keeps the whole run on the per-step path,
    // and says so once.
    obs::spcReset();
    obs::spcAttach("all");
    MachineConfig cfg = identityConfig(cpu::Processor::PentiumD, true);
    cfg.timerPeriodOverride = 5003;
    cfg.decodeCache = true; // forced off the engine, not deselected
    cfg.profile.enabled = true;
    Machine m(cfg);
    program(m);
    m.finalize();
    const cpu::RunResult r = m.run();
    EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsStep), r.userInstr)
        << split("profiled");
    EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsBlock), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::UserInstrsFolded), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RunsForcedStepProfiler), 1u);
    EXPECT_EQ(obs::spcValue(obs::Spc::RunsForcedStepSampling), 0u);
    obs::spcReset();
}

// ---------------------------------------------------------------- //
// Measurement equality across decode x fast-forward
// ---------------------------------------------------------------- //

TEST(EngineIdentityHarness, MeasurementIdenticalAcrossFfSettings)
{
    const LoopBench bench(50000);
    Measurement ref;
    bool first = true;
    for (const bool decode : {true, false})
        for (const bool ff : {true, false}) {
            HarnessConfig cfg;
            cfg.processor = cpu::Processor::AthlonX2;
            cfg.iface = Interface::Pm;
            cfg.pattern = AccessPattern::ReadRead;
            cfg.seed = 99;
            cfg.decodeCache = decode;
            cfg.fastForward = ff;
            const Measurement m =
                HarnessSession(cfg, bench).run();
            if (first) {
                ref = m;
                first = false;
                continue;
            }
            EXPECT_EQ(ref.c0, m.c0);
            EXPECT_EQ(ref.c1, m.c1);
            EXPECT_EQ(ref.tsc0, m.tsc0);
            EXPECT_EQ(ref.tsc1, m.tsc1);
            EXPECT_EQ(ref.expected, m.expected);
            EXPECT_EQ(ref.run.userInstr, m.run.userInstr);
            EXPECT_EQ(ref.run.kernelInstr, m.run.kernelInstr);
            EXPECT_EQ(ref.run.cycles, m.run.cycles);
            EXPECT_EQ(ref.run.interrupts, m.run.interrupts);
        }
}

// ---------------------------------------------------------------- //
// Canned studies: byte-identical CSV across tiers x threads
// ---------------------------------------------------------------- //

namespace
{

/**
 * Run @p study under PCA_DECODE=@p decode and PCA_THREADS=@p threads
 * (the env switches the whole study pipeline); return its CSV.
 */
template <typename StudyFn>
std::string
csvWith(bool decode, int threads, StudyFn &&study)
{
    setenv("PCA_DECODE", decode ? "1" : "0", 1);
    setenv("PCA_THREADS", std::to_string(threads).c_str(), 1);
    const core::DataTable table = study();
    unsetenv("PCA_THREADS");
    unsetenv("PCA_DECODE");
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

/**
 * Expects the block engine serial and on four threads, and the legacy
 * interpreter on four threads, to reproduce the legacy interpreter's
 * serial CSV.
 */
template <typename StudyFn>
void
expectStudyTiersIdentical(StudyFn &&study)
{
    const std::string legacy = csvWith(false, 1, study);
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith(true, threads, study), legacy)
            << "block, threads=" << threads;
    EXPECT_EQ(csvWith(false, 4, study), legacy) << "legacy, threads=4";
}

} // namespace

TEST(EngineIdentityStudies, NullErrorStudyByteIdentical)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo,
                                         cpu::Processor::PentiumD})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    ASSERT_FALSE(points.empty());
    core::StudyObsOptions obs;
    obs.attributionColumns = true;
    expectStudyTiersIdentical(
        [&] { return core::runNullErrorStudy(points, 3, 42, obs); });
}

TEST(EngineIdentityStudies, DurationStudyByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo,
                      cpu::Processor::PentiumD};
    opt.loopSizes = {1, 1000, 5000};
    opt.runsPerSize = 2;
    expectStudyTiersIdentical(
        [&] { return core::runDurationStudy(opt); });
}

TEST(EngineIdentityStudies, CycleStudyByteIdentical)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.loopSizes = {1, 1000};
    opt.optLevels = {0, 3};
    opt.runsPerConfig = 2;
    expectStudyTiersIdentical([&] { return core::runCycleStudy(opt); });
}

TEST(EngineIdentityStudies, FaultPlanByteIdentical)
{
    // Under a live fault plan (retries, degraded rows, counter-width
    // wraps) the faulted rows must land identically on every tier and
    // thread count.
    setenv("PCA_FAULTS", "seed=7,rate=0.05,width=48", 1);
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    expectStudyTiersIdentical([&] {
        return core::runNullErrorStudy(points, 3, 42,
                                       core::StudyObsOptions{});
    });
    unsetenv("PCA_FAULTS");
}
