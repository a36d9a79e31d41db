/**
 * @file
 * Generated-program differential test. A seeded generator builds
 * structured programs: nested counted loops counting up and down,
 * Nop runs of random length, ALU ops, strided loads and stores,
 * push/pop, forward branches, a leaf call and rdtsc, with the user
 * text shifted by a random offset. For each program it also computes
 * the closed-form user instruction count and the final value of
 * every loop counter. Each program runs on the per-step and the
 * block engine, with loop fast-forward on and off, and once more per
 * step with a profiler attached, on all three processors, with timer
 * ticks and I/O interrupts live.
 *
 * Four checks, which catch different faults:
 *  - every run of a program on one processor leaves the same
 *    RunResult, per-mode raw events and final registers (a fault in
 *    one engine's driver, such as a bulk Nop step that skips an
 *    interrupt poll);
 *  - every run retires the closed-form user instruction count and
 *    leaves the closed-form loop counters (a fault in the one
 *    instruction semantics both engines share, which they would
 *    agree on);
 *  - every run's counters satisfy the consistency invariants a
 *    correct PMU implies (branch misses within branches within
 *    instructions, misses within accesses, per-mode instructions,
 *    interrupts and cycles summing to the RunResult's, and each
 *    programmed counter's mode x class split summing to its value
 *    minus the written base, row by row equal across the counting
 *    modes);
 *  - the profiled run's record covers every user retire, and each
 *    of ext_profiler_bias's 16 samplers derived from it accounts
 *    for every sampled tick (a fault in the tick log or the drop
 *    rule).
 */

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "support/random.hh"

using namespace pca;
using namespace pca::harness;
using isa::Assembler;
using isa::Reg;

namespace
{

/** What every run of a generated program must end with. */
struct Expected
{
    Count userInstr = 0;
    /** Final value of each register some loop counted in. */
    std::array<std::optional<std::uint64_t>, isa::numRegs> counters{};
};

/**
 * Seeded generator of structured programs whose counts have a closed
 * form. Registers have fixed roles so the counts stay analyzable:
 * Esi, Edi and Ebp count the loops of nesting depth 0, 1 and 2; Ebx
 * and Edx are ALU scratch; Ecx walks memory; rdtsc writes Eax. The
 * leaf touches only the scratch registers.
 */
class ProgramGen
{
  public:
    /** The program of @p seed, and the machine layout it runs on. */
    explicit ProgramGen(std::uint64_t seed)
        : rng(seed),
          offset(static_cast<Addr>(pick(0, 63))),
          period(static_cast<Cycles>(pick(8000, 20000)))
    {
    }

    /** Bytes to shift the user text by (Machine::finalize). */
    Addr textOffset() const { return offset; }

    /** Cycles between timer ticks (timerPeriodOverride). */
    Cycles timerPeriod() const { return period; }

    /**
     * Add the program's blocks ("leaf", then "main") to @p m and
     * return what every run of it must end with.
     */
    Expected
    emit(Machine &m)
    {
        Assembler leaf("leaf");
        leafInstr = 1; // ret
        for (int i = pick(0, 3); i > 0; --i)
            leafInstr += alu(leaf);
        if (pick(0, 1) == 1)
            leafInstr += nops(leaf, pick(1, 40));
        leaf.ret();
        m.addUserBlock(leaf.take());

        Assembler a("main");
        a.movImm(Reg::Ecx, 0x400000);
        expected.userInstr = 1 + body(a, 0, 16000) + 1;
        a.halt();
        m.addUserBlock(a.take());
        return expected;
    }

  private:
    static constexpr int maxDepth = 3;
    static constexpr std::array<Reg, maxDepth> counterRegs = {
        Reg::Esi, Reg::Edi, Reg::Ebp};
    static constexpr std::array<int, maxDepth> maxTrips = {60, 30, 10};

    int
    pick(int lo, int hi)
    {
        return lo + static_cast<int>(rng.nextBelow(
                        static_cast<std::uint64_t>(hi - lo + 1)));
    }

    Reg scratch() { return pick(0, 1) == 0 ? Reg::Ebx : Reg::Edx; }

    Count
    nops(Assembler &a, int n)
    {
        a.nop(n);
        return static_cast<Count>(n);
    }

    /** One ALU instruction on the scratch registers. */
    Count
    alu(Assembler &a)
    {
        const Reg r = scratch();
        const Reg s = scratch();
        switch (pick(0, 13)) {
          case 0: a.movImm(r, pick(-50, 50)); break;
          case 1: a.movReg(r, s); break;
          case 2: a.addImm(r, pick(1, 9)); break;
          case 3: a.addReg(r, s); break;
          case 4: a.subImm(r, pick(1, 9)); break;
          case 5: a.subReg(r, s); break;
          case 6: a.cmpImm(r, pick(-5, 5)); break;
          case 7: a.cmpReg(r, s); break;
          case 8: a.testReg(r, s); break;
          case 9: a.xorReg(r, s); break;
          case 10: a.andImm(r, pick(1, 255)); break;
          case 11: a.orReg(r, s); break;
          case 12: a.shlImm(r, pick(0, 3)); break;
          default: a.shrImm(r, pick(0, 3)); break;
        }
        return 1;
    }

    /** A load or store through Ecx, sometimes stepping Ecx. */
    Count
    memory(Assembler &a)
    {
        const std::int64_t off = 8 * pick(0, 7);
        if (pick(0, 1) == 0)
            a.load(scratch(), Reg::Ecx, off);
        else
            a.store(scratch(), Reg::Ecx, off);
        static constexpr std::array<int, 4> strides = {0, 8, 64, 4096};
        const int stride = strides[static_cast<std::size_t>(pick(0, 3))];
        if (stride == 0)
            return 1;
        if (pick(0, 1) == 0)
            a.addImm(Reg::Ecx, stride);
        else
            a.subImm(Reg::Ecx, stride);
        return 2;
    }

    /** A forward branch over a Nop run: jmp, a taken je, a not-taken jne. */
    Count
    branch(Assembler &a)
    {
        const int skip = a.forwardLabel();
        const int n = pick(1, 20);
        switch (pick(0, 2)) {
          case 0:
            a.jmp(skip).nop(n).bind(skip);
            return 1;
          case 1:
            a.cmpReg(Reg::Ebx, Reg::Ebx).je(skip).nop(n).bind(skip);
            return 2;
          default:
            a.cmpReg(Reg::Ebx, Reg::Ebx).jne(skip).nop(n).bind(skip);
            return 2 + static_cast<Count>(n);
        }
    }

    /**
     * A counted loop of depth @p depth whose whole execution retires
     * at most @p budget instructions: counting up to a jne or jl, or
     * down to zero. Returns what it retires.
     */
    Count
    loop(Assembler &a, int depth, Count budget)
    {
        const Reg r = counterRegs[static_cast<std::size_t>(depth)];
        const auto step = static_cast<std::int64_t>(pick(1, 2));
        Count trips = static_cast<Count>(
            pick(1, maxTrips[static_cast<std::size_t>(depth)]));
        trips = std::min(trips, (budget - 1) / 4);
        const auto t = static_cast<std::int64_t>(trips);
        const Count inner_budget = (budget - 1) / trips - 3;
        const int kind = pick(0, 2);

        a.movImm(r, kind == 2 ? step * t : 0);
        const int head = a.label();
        const Count inner = body(a, depth + 1, inner_budget);
        if (kind == 2) {
            a.subImm(r, step).cmpImm(r, 0).jne(head);
            expected.counters[static_cast<std::size_t>(r)] = 0;
        } else {
            a.addImm(r, step);
            if (kind == 0) {
                a.cmpImm(r, step * t).jne(head);
            } else {
                // Any limit in (step * (t - 1), step * t] ends the
                // loop after t trips.
                const int slack = pick(0, static_cast<int>(step) - 1);
                a.cmpImm(r, step * t - slack).jl(head);
            }
            expected.counters[static_cast<std::size_t>(r)] =
                static_cast<std::uint64_t>(step * t);
        }
        return 1 + trips * (inner + 3);
    }

    /**
     * A sequence of items retiring at most @p budget instructions per
     * execution. Returns what it retires.
     */
    Count
    body(Assembler &a, int depth, Count budget)
    {
        Count used = 0;
        // The program proper starts with a loop; deeper bodies are
        // shorter.
        if (depth == 0)
            used += loop(a, 0, budget / 2);
        for (int items = depth == 0 ? pick(2, 6) : pick(1, 4); items > 0;
             --items) {
            const Count left = budget - used;
            if (left < 2 + leafInstr)
                break;
            const int what = pick(0, 99);
            if (what < 30) {
                const int n = pick(0, 2) == 0 ? pick(20, 400) : pick(1, 8);
                used += nops(a, static_cast<int>(
                                    std::min<Count>(n, left)));
            } else if (what < 42) {
                used += alu(a);
            } else if (what < 52) {
                used += memory(a);
            } else if (what < 57) {
                a.push(scratch()).pop(scratch());
                used += 2;
            } else if (what < 62) {
                a.call("leaf");
                used += 1 + leafInstr;
            } else if (what < 65) {
                a.rdtsc();
                used += 1;
            } else if (what < 72) {
                if (left >= 22)
                    used += branch(a);
            } else if (depth < maxDepth && left >= 8) {
                used += loop(a, depth, left);
            }
        }
        return used;
    }

    Rng rng;
    Addr offset;
    Cycles period;
    Count leafInstr = 0;
    Expected expected;
};

/** What runs of one program on one processor must share. */
struct Outcome
{
    std::string digest; //!< RunResult, raw events and registers
    Count ffIters = 0;  //!< equal only at the same ff setting
    Count interrupts = 0;
};

Count
histTotal(const std::map<Addr, Count> &h)
{
    Count n = 0;
    for (const auto &[pc, c] : h)
        n += c;
    return n;
}

/**
 * The profiler's record of a run against the run and against the
 * rules every sampler derived from it keeps.
 */
void
checkProfile(const obs::Profiler &p, const cpu::RunResult &r)
{
    EXPECT_EQ(p.retiredUserInstrs(), r.userInstr);
    EXPECT_EQ(histTotal(p.trueHist()), r.userInstr);
    for (const Count period : {1, 2, 4, 8}) {
        for (const Count skid : {0, 1, 8, 32}) {
            SCOPED_TRACE("period=" + std::to_string(period) +
                         " skid=" + std::to_string(skid));
            const obs::ProfileSamples s = p.sample(period, skid);
            const Count accepted = histTotal(s.tickHist);
            EXPECT_EQ(accepted + s.dropped, p.ticks() / period);
            EXPECT_EQ(histTotal(s.sampleHist), s.samples);
            Count stacked = 0;
            for (const auto &[stack, n] : s.stacks)
                stacked += n;
            EXPECT_EQ(stacked, s.samples);
            // Only the last accepted tick's latch can outlive the run.
            EXPECT_LE(s.samples, accepted);
            EXPECT_GE(s.samples + 1, accepted);
            if (skid == 0) {
                EXPECT_EQ(s.sampleHist, s.tickHist);
                EXPECT_EQ(s.dropped, 0u);
            }
        }
    }
}

/**
 * Run the program of @p seed on one engine x fast-forward setting,
 * or per step with a profiler recording for skid 32 (@p profiled),
 * and check it against its closed form.
 */
Outcome
runGenerated(std::uint64_t seed, cpu::Processor proc, bool block,
             bool ff, bool profiled = false)
{
    ProgramGen gen(seed);
    MachineConfig cfg;
    cfg.processor = proc;
    cfg.seed = seed;
    cfg.decodeCache = block;
    cfg.fastForward = ff;
    // A profiler forces step(), so only the profiled setting has one.
    cfg.profile = obs::ProfileConfig{};
    cfg.profile.enabled = profiled;
    cfg.profile.skidInstrs = 32;
    cfg.timerPeriodOverride = gen.timerPeriod();
    // A wrong branch or counter trips the watchdog, not the
    // 1 G-instruction runaway guard.
    cfg.runInstrBudget = 1'000'000;
    Machine m(cfg);
    const Expected expected = gen.emit(m);
    m.finalize(gen.textOffset());
    // Instructions counted in user+kernel, user and kernel mode (as
    // many as the processor has counters), each from its own written
    // base, for the mode x class split invariants below.
    cpu::Pmu &pmu = m.core().pmu();
    const std::array<PlMask, 3> pls = {PlMask::UserKernel, PlMask::User,
                                       PlMask::Kernel};
    const int counters = std::min(pmu.numProg(), 3);
    for (int i = 0; i < counters; ++i) {
        const auto u = static_cast<std::uint32_t>(i);
        pmu.wrmsr(cpu::Pmu::msrEvtSelBase + u,
                  cpu::Pmu::encodeEvtSel(cpu::EventType::InstrRetired,
                                         pls[u], true));
        pmu.wrmsr(cpu::Pmu::msrPmcBase + u, 1000 * (u + 1));
    }
    const auto r = m.tryRun();
    Outcome out;
    if (!r.ok()) {
        ADD_FAILURE() << r.status().toString();
        return out;
    }

    EXPECT_EQ(r->userInstr, expected.userInstr);
    for (std::size_t i = 0; i < isa::numRegs; ++i) {
        if (expected.counters[i]) {
            EXPECT_EQ(m.core().getReg(static_cast<Reg>(i)),
                      *expected.counters[i])
                << isa::regName(static_cast<Reg>(i));
        }
    }

    // Counter-consistency invariants: a correct PMU satisfies them
    // on every run, whatever the engines agree on.
    using cpu::EventType;
    const cpu::Core &core = m.core();
    Count hw_interrupts = 0;
    Cycles mode_cycles = 0;
    for (const auto mode : {Mode::User, Mode::Kernel}) {
        SCOPED_TRACE(mode == Mode::User ? "user" : "kernel");
        auto ev = [&](EventType e) { return core.rawEvents(e, mode); };
        EXPECT_LE(ev(EventType::BrMispRetired),
                  ev(EventType::BrInstRetired));
        EXPECT_LE(ev(EventType::BrInstRetired),
                  ev(EventType::InstrRetired));
        EXPECT_LE(ev(EventType::DcacheMiss), ev(EventType::DcacheAccess));
        EXPECT_LE(ev(EventType::DtlbMiss), ev(EventType::DcacheAccess));
        EXPECT_LE(ev(EventType::L2Miss),
                  ev(EventType::DcacheMiss) + ev(EventType::IcacheMiss));
        EXPECT_EQ(ev(EventType::InstrRetired),
                  mode == Mode::User ? r->userInstr : r->kernelInstr);
        hw_interrupts += ev(EventType::HwInterrupt);
        mode_cycles += core.modeCycles(mode);
    }
    EXPECT_EQ(hw_interrupts, r->interrupts);
    EXPECT_EQ(mode_cycles, r->cycles);
    if (profiled)
        checkProfile(*m.profiler(), *r);

    // The mode x class split: its rows sum to the value minus the
    // written base, a mode the counter does not count keeps a zero
    // row, each counted row holds that mode's retires, and the
    // user+kernel counter's rows equal the single-mode counters' (the
    // identity every derived sibling-mode reading rests on).
    const auto &uk = pmu.progCounter(0).split;
    for (int i = 0; i < counters; ++i) {
        SCOPED_TRACE("counter " + std::to_string(i));
        const cpu::Pmu::Counter &c = pmu.progCounter(i);
        const auto u = static_cast<std::size_t>(i);
        EXPECT_EQ(obs::modeTotal(c.split, PlMask::UserKernel),
                  c.value - 1000 * (u + 1));
        for (const auto mode : {Mode::User, Mode::Kernel}) {
            const auto row = static_cast<std::size_t>(mode);
            const PlMask only = mode == Mode::User ? PlMask::User
                                                   : PlMask::Kernel;
            if (!plMaskIncludes(pls[u], mode)) {
                EXPECT_EQ(obs::modeTotal(c.split, only), 0u);
                continue;
            }
            EXPECT_EQ(obs::modeTotal(c.split, only),
                      core.rawEvents(EventType::InstrRetired, mode));
            EXPECT_EQ(c.split[row], uk[row]);
        }
    }

    std::ostringstream os;
    os << r->userInstr << '/' << r->kernelInstr << '/' << r->cycles
       << '/' << r->interrupts;
    for (std::size_t e = 0; e < cpu::numEvents; ++e)
        for (const auto mode : {Mode::User, Mode::Kernel})
            os << '/'
               << m.core().rawEvents(static_cast<cpu::EventType>(e),
                                     mode);
    for (std::size_t i = 0; i < isa::numRegs; ++i)
        os << '/' << m.core().getReg(static_cast<Reg>(i));
    for (const obs::AttrCounts &row : uk)
        for (const Count n : row)
            os << '/' << n;
    out.digest = os.str();
    out.ffIters = r->fastForwardedIters;
    out.interrupts = r->interrupts;
    return out;
}

} // namespace

TEST(GeneratedPrograms, EnginesAgreeAndMatchClosedForm)
{
    Count interrupts = 0;
    Count ff_iters = 0;
    for (std::uint64_t seed = 1; seed <= 128; ++seed) {
        for (const auto proc :
             {cpu::Processor::PentiumD, cpu::Processor::Core2Duo,
              cpu::Processor::AthlonX2}) {
            std::string ref;
            std::array<std::optional<Count>, 2> ref_ff{};
            for (const bool block : {false, true})
                for (const bool ff : {false, true}) {
                    SCOPED_TRACE("seed=" + std::to_string(seed) + " " +
                                 cpu::processorCode(proc) +
                                 " block=" + std::to_string(block) +
                                 " ff=" + std::to_string(ff));
                    const Outcome o = runGenerated(seed, proc, block, ff);
                    if (ref.empty())
                        ref = o.digest;
                    EXPECT_EQ(o.digest, ref);
                    auto &ff_ref = ref_ff[ff ? 1 : 0];
                    if (!ff_ref)
                        ff_ref = o.ffIters;
                    EXPECT_EQ(o.ffIters, *ff_ref);
                    interrupts += o.interrupts;
                    ff_iters += o.ffIters;
                }
            SCOPED_TRACE("seed=" + std::to_string(seed) + " " +
                         cpu::processorCode(proc) + " profiled");
            const Outcome o = runGenerated(seed, proc, false, false,
                                           /*profiled=*/true);
            EXPECT_EQ(o.digest, ref);
            EXPECT_EQ(o.ffIters, 0u);
        }
    }
    // The generator reaches both hazards it is there for: interrupts
    // inside the programs, and loops that fold.
    EXPECT_GT(interrupts, 2000u);
    EXPECT_GT(ff_iters, 0u);
}
