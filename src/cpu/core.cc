#include "cpu/core.hh"

#include <algorithm>

#include "obs/profile.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/status.hh"

namespace pca::cpu
{

using isa::CodePtr;
using isa::Inst;
using isa::Opcode;
using isa::Reg;

namespace
{

/**
 * Escape-accounting class of a block-engine dispatch exit: which SPC
 * a fallback to the per-step interpreter is charged to.
 */
obs::Spc
escapeSpc(Opcode op)
{
    switch (op) {
      case Opcode::Call:
      case Opcode::Ret:
        return obs::Spc::BlockEscapeCallret;
      case Opcode::Rdtsc:
      case Opcode::Rdpmc:
        return obs::Spc::BlockEscapeTimeread;
      case Opcode::Syscall:
      case Opcode::Iret:
        return obs::Spc::BlockEscapeSyscall;
      default:
        return obs::Spc::BlockEscapeOther;
    }
}

} // namespace

Core::Core(const MicroArch &arch)
    : archRef(arch),
      pmuUnit(arch),
      frontEnd(arch),
      predictor(arch.btbSets, arch.btbWays),
      icache(arch.icacheSets, arch.icacheWays, arch.icacheLineBytes),
      itlb(std::max(1, arch.itlbEntries / arch.itlbWays),
           arch.itlbWays, 4096),
      dcache(arch.dcacheSets, arch.dcacheWays, arch.dcacheLineBytes),
      l2(arch.l2Sets, arch.l2Ways, arch.l2LineBytes),
      dtlb(std::max(1, arch.dtlbEntries / arch.dtlbWays),
           arch.dtlbWays, 4096)
{
    auto shift_of = [](int bytes) {
        int s = 0;
        while ((1 << s) < bytes)
            ++s;
        return s;
    };
    icLineShift = shift_of(icache.lineBytes());
    itlbPageShift = shift_of(itlb.lineBytes());
    // fetchCaches nests its iTLB-page check inside the icache-line
    // check: lines must subdivide pages.
    pca_assert(icLineShift <= itlbPageShift);
    reset();
}

void
Core::setProgram(const isa::Program *prog)
{
    pca_assert(prog && prog->linked());
    program = prog;
}

std::uint64_t &
Core::reg(Reg r)
{
    return regs[static_cast<std::size_t>(r)];
}

std::uint64_t
Core::getReg(Reg r) const
{
    return regs[static_cast<std::size_t>(r)];
}

void
Core::setReg(Reg r, std::uint64_t v)
{
    regs[static_cast<std::size_t>(r)] = v;
}

void
Core::jumpTo(int block)
{
    pca_assert(program &&
               static_cast<std::size_t>(block) < program->blockCount());
    pc = CodePtr{block, 0};
    pcRedirected = true;
    frontEnd.redirect(pcAddr());
}

Addr
Core::pcAddr() const
{
    return program->inst(pc).addr + static_cast<Addr>(pc.pos);
}

Count
Core::rawEvents(EventType ev, Mode m) const
{
    return rawEv[static_cast<std::size_t>(ev)]
                [static_cast<std::size_t>(m)];
}

Cycles
Core::modeCycles(Mode m) const
{
    return cyclesPerMode[static_cast<std::size_t>(m)];
}

void
Core::chargeCycles(Cycles c)
{
    if (c == 0)
        return;
    cycleCount += c;
    cyclesPerMode[static_cast<std::size_t>(curMode)] += c;
    pmuUnit.addCycles(c, curMode);
}

void
Core::countEvent(EventType ev, Count n)
{
    rawEv[static_cast<std::size_t>(ev)]
         [static_cast<std::size_t>(curMode)] += n;
    pmuUnit.count(ev, curMode, n);
}

void
Core::dataAccess(Addr addr)
{
    countEvent(EventType::DcacheAccess);
    if (!dtlb.access(addr)) {
        chargeCycles(static_cast<Cycles>(archRef.dtlbMissPenalty));
        countEvent(EventType::DtlbMiss);
    }
    if (!dcache.access(addr)) {
        chargeCycles(static_cast<Cycles>(archRef.dcacheMissPenalty));
        countEvent(EventType::DcacheMiss);
        // Fill from the unified L2; an L2 miss goes to memory.
        if (!l2.access(addr)) {
            chargeCycles(static_cast<Cycles>(archRef.l2MissPenalty));
            countEvent(EventType::L2Miss);
        }
    }
}

/**
 * The cache side of fetching the instruction at @p addr: on a new
 * icache line (not @p line) the icache, and the L2 on a miss; on a
 * new iTLB page (not @p page) the iTLB (see lastFetchLine). Updates
 * both keys, counts the misses and returns their penalty cycles.
 */
[[gnu::always_inline]] inline Cycles
Core::fetchCaches(Addr addr, Addr &line, Addr &page)
{
    const Addr l = addr >> icLineShift;
    // The common case; the hint keeps the block loop's registers for
    // it rather than for the lookups.
    if (l == line) [[likely]]
        return 0;
    line = l;
    Cycles c = 0;
    if (!icache.access(addr)) {
        c += static_cast<Cycles>(archRef.icacheMissPenalty);
        countEvent(EventType::IcacheMiss);
        // Instruction fills also come through the unified L2.
        if (!l2.access(addr)) {
            c += static_cast<Cycles>(archRef.l2MissPenalty);
            countEvent(EventType::L2Miss);
        }
    }
    // A page change implies a line change (lines subdivide pages),
    // so the page check only runs here.
    const Addr pg = addr >> itlbPageShift;
    if (pg != page) {
        page = pg;
        if (!itlb.access(addr)) {
            c += static_cast<Cycles>(archRef.itlbMissPenalty);
            countEvent(EventType::ItlbMiss);
        }
    }
    return c;
}

/** Fetch one instruction: its caches, then the front end. */
[[gnu::always_inline]] inline Cycles
Core::fetch(Addr addr, int size, Addr &line, Addr &page)
{
    return fetchCaches(addr, line, page) + frontEnd.onInst(addr, size);
}

/**
 * Retire @p n instructions of @p mode, @p branches of them branches;
 * @p user_spc names the retiring path in user mode.
 */
[[gnu::always_inline]] inline void
Core::retire(Mode mode, Count n, Count branches, obs::Spc user_spc)
{
    const auto mi = static_cast<std::size_t>(mode);
    instrPerMode[mi] += n;
    rawEv[static_cast<std::size_t>(EventType::InstrRetired)][mi] += n;
    pmuUnit.count(EventType::InstrRetired, mode, n);
    if (branches != 0) {
        rawEv[static_cast<std::size_t>(EventType::BrInstRetired)][mi] +=
            branches;
        pmuUnit.count(EventType::BrInstRetired, mode, branches);
    }
    if (mode == Mode::Kernel)
        PCA_SPC_ADD(KernelInstrs, n);
    else
        obs::spcAdd(user_spc, n);
}

/**
 * Execute one of the 25 inline (non-escape) opcodes. Adds its cycles
 * beyond fetch to @p cycles and its retired branches to @p branches
 * for the caller to charge; data accesses and mispredicts count
 * their events at once. Returns whether a branch was taken: the
 * front end is redirected, and the caller moves pc to targetIndex.
 */
[[gnu::always_inline]] inline bool
Core::execInline(const Inst &in, Cycles &cycles, Count &branches)
{
    switch (in.op) {
      case Opcode::MovImm:
        reg(in.r1) = static_cast<std::uint64_t>(in.imm);
        return false;
      case Opcode::MovReg:
        reg(in.r1) = reg(in.r2);
        return false;
      case Opcode::AddImm:
        reg(in.r1) += static_cast<std::uint64_t>(in.imm);
        return false;
      case Opcode::AddReg:
        reg(in.r1) += reg(in.r2);
        return false;
      case Opcode::SubImm:
        reg(in.r1) -= static_cast<std::uint64_t>(in.imm);
        return false;
      case Opcode::SubReg:
        reg(in.r1) -= reg(in.r2);
        return false;
      case Opcode::CmpImm:
        zeroFlag = reg(in.r1) == static_cast<std::uint64_t>(in.imm);
        lessFlag = static_cast<std::int64_t>(reg(in.r1)) < in.imm;
        return false;
      case Opcode::CmpReg:
        zeroFlag = reg(in.r1) == reg(in.r2);
        lessFlag = static_cast<std::int64_t>(reg(in.r1)) <
            static_cast<std::int64_t>(reg(in.r2));
        return false;
      case Opcode::TestReg:
        zeroFlag = (reg(in.r1) & reg(in.r2)) == 0;
        lessFlag = false;
        return false;
      case Opcode::XorReg:
        reg(in.r1) ^= reg(in.r2);
        return false;
      case Opcode::AndImm:
        reg(in.r1) &= static_cast<std::uint64_t>(in.imm);
        return false;
      case Opcode::OrReg:
        reg(in.r1) |= reg(in.r2);
        return false;
      case Opcode::ShlImm:
        reg(in.r1) <<= in.imm;
        return false;
      case Opcode::ShrImm:
        reg(in.r1) >>= in.imm;
        return false;

      case Opcode::Load:
      {
        const Addr a = reg(in.r2) + static_cast<Addr>(in.imm);
        reg(in.r1) = memory.load(a);
        dataAccess(a);
        return false;
      }
      case Opcode::Store:
      {
        const Addr a = reg(in.r2) + static_cast<Addr>(in.imm);
        memory.store(a, reg(in.r1));
        dataAccess(a);
        return false;
      }
      case Opcode::Push:
        reg(Reg::Esp) -= 8;
        memory.store(reg(Reg::Esp), reg(in.r1));
        dataAccess(reg(Reg::Esp));
        return false;
      case Opcode::Pop:
        reg(in.r1) = memory.load(reg(Reg::Esp));
        dataAccess(reg(Reg::Esp));
        reg(Reg::Esp) += 8;
        return false;

      case Opcode::Jmp:
        predictor.noteUncond(in.addr);
        ++branches;
        break;
      case Opcode::Je:
      case Opcode::Jne:
      case Opcode::Jl:
      case Opcode::Jge:
      {
        const bool taken = in.op == Opcode::Je    ? zeroFlag
                           : in.op == Opcode::Jne ? !zeroFlag
                           : in.op == Opcode::Jl  ? lessFlag
                                                  : !lessFlag;
        ++branches;
        if (predictor.predictAndTrain(in.addr, taken)) {
            cycles += static_cast<Cycles>(archRef.mispredictPenalty);
            countEvent(EventType::BrMispRetired);
        }
        if (!taken)
            return false;
        break;
      }

      case Opcode::Nop:
        return false;
      case Opcode::Cpuid:
        cycles += static_cast<Cycles>(archRef.cpuidCycles);
        return false;
      default:
        pca_panic("escape opcode ", isa::opcodeName(in.op),
                  " reached execInline()");
    }
    cycles += frontEnd.onTakenBranch(
        in.addr, in.addr + static_cast<Addr>(in.size), in.targetAddr);
    return true;
}

/**
 * An upper bound on the cycles @p n 1-byte instructions from @p addr
 * can cost: every line and page they touch misses, and each one
 * enters a new fetch window and fills a decode group.
 */
Cycles
Core::nopRunCostBound(Addr addr, Count n) const
{
    const Addr last = addr + n - 1;
    const Cycles lines =
        (last >> icLineShift) - (addr >> icLineShift) + 1;
    const Cycles pages =
        (last >> itlbPageShift) - (addr >> itlbPageShift) + 1;
    return 2 * n +
        lines * static_cast<Cycles>(archRef.icacheMissPenalty +
                                    archRef.l2MissPenalty) +
        pages * static_cast<Cycles>(archRef.itlbMissPenalty);
}

RunResult
Core::run(CodePtr entry, Count max_instr)
{
    pca_assert(program);
    pc = entry;
    halted = false;
    // An attached profiler keeps the whole run on the per-step path;
    // armed sampling may start mid-run, and counts once when it does.
    if (blockEngine && prof != nullptr)
        PCA_SPC_INC(RunsForcedStepProfiler);
    bool forced_by_sampling = false;

    while (!halted) {
        if (curMode == Mode::User && pmuUnit.overflowPending()) {
            // Counter overflow: deliver the PMI before anything else.
            pmiCounter = pmuUnit.takeOverflow();
            deliverInterrupt(pmiVector);
        } else if (curMode == Mode::User && intClient &&
                   cycleCount >= intClient->nextInterruptCycle()) {
            const int vec = intClient->pollInterrupt(cycleCount);
            if (vec >= 0)
                deliverInterrupt(vec);
        }
        if (blockEngine && !pmuUnit.samplingActive() &&
            prof == nullptr) {
            stepBlock();
        } else {
            // Sampling sessions and an attached profiler force pure
            // interpretation: overflow (or the retired-PC ground
            // truth) must be observed at the exact retiring
            // instruction.
            if (!forced_by_sampling && blockEngine &&
                pmuUnit.samplingActive()) {
                forced_by_sampling = true;
                PCA_SPC_INC(RunsForcedStepSampling);
            }
            step();
        }
        // Retired, not dispatched: a folded loop retires its
        // iterations in one dispatch, so only the retired count
        // reaches the same verdict with folding on and off.
        const Count retired = instrPerMode[0] + instrPerMode[1];
        if (retired > max_instr)
            // Names the limit, not the retired count: one dispatch
            // overshoots it by up to a chunk or a folded loop, and
            // the degraded-row note derived from this message must
            // not depend on the engine.
            throw StatusError(Status(
                StatusCode::ResourceExhausted,
                "runaway program: more than " +
                    std::to_string(max_instr) +
                    " instructions retired without halting"));
        if (deadlineInstrs != 0 || deadlineCycles != 0) {
            // The watchdog. Checked only at dispatch boundaries
            // (each engine caps a dispatch at one chunk, so a wedged
            // kernel loop trips it within one chunk of the budget);
            // the message names the budgets, not the position the
            // overrun was observed at, because that position differs
            // between the engines while the degraded-row note
            // derived from this message must not.
            if ((deadlineInstrs != 0 && retired > deadlineInstrs) ||
                (deadlineCycles != 0 &&
                 cycleCount > deadlineCycles))
                throw StatusError(Status(
                    StatusCode::DeadlineExceeded,
                    "watchdog: run budget exceeded (limits: " +
                        std::to_string(deadlineInstrs) +
                        " instrs, " +
                        std::to_string(deadlineCycles) +
                        " cycles)"));
        }
    }

    RunResult res;
    res.userInstr = instrPerMode[static_cast<std::size_t>(Mode::User)];
    res.kernelInstr =
        instrPerMode[static_cast<std::size_t>(Mode::Kernel)];
    res.cycles = cycleCount;
    res.interrupts = interruptCount;
    res.fastForwardedIters = ffIters;
    return res;
}

void
Core::step()
{
    const Inst &in = program->inst(pc);

    if (in.op == Opcode::HostOp) {
        // Architecturally free data plumbing.
        pcRedirected = false;
        program->block(pc.block).host(in)(*this);
        if (!pcRedirected)
            ++pc.index;
        ++poisonEpoch;
        return;
    }

    const Mode mode_at_fetch = curMode;
    const int prev_index = pc.index;
    const Cycles cycles_at_fetch = cycleCount;
    // A Nop record retires one 1-byte Nop per step, the one at pc.pos.
    const bool nop = in.op == Opcode::Nop;
    const Addr addr = in.addr + static_cast<Addr>(pc.pos);
    chargeCycles(
        fetch(addr, nop ? 1 : in.size, lastFetchLine, lastFetchPage));

    pcRedirected = false;
    Count branches = 0;
    if (in.escape()) {
        execute(in);
    } else {
        Cycles c = 0;
        if (execInline(in, c, branches)) {
            pc.index = in.targetIndex;
            pcRedirected = true;
        }
        chargeCycles(c);
    }

    retire(mode_at_fetch, 1, branches, obs::Spc::UserInstrsStep);
    if (mode_at_fetch == Mode::User && prof != nullptr)
        prof->onUserRetire(addr, cycleCount - cycles_at_fetch);

    if (!pcRedirected) {
        if (!nop) {
            ++pc.index;
        } else if (++pc.pos == in.size) {
            pc.pos = 0;
            ++pc.index;
        }
    }

    // Fast-forward bookkeeping.
    if ((in.flags & isa::IfFfSafe) == 0 || curMode != Mode::User)
        ++poisonEpoch;

    if (pcRedirected && (in.flags & isa::IfBackwardBranch) != 0 &&
        ffEnabled && curMode == Mode::User) {
        // The branch instruction itself has fully retired; the loop
        // head is the current pc.
        const std::uint64_t key =
            (static_cast<std::uint64_t>(pc.block) << 32) |
            static_cast<std::uint64_t>(prev_index);
        maybeFastForwardKeyed(key, in, prev_index);
    }
}

/**
 * Execute one straight-line run of the current block's instructions
 * in a single dispatch (or one step() for the escape fallback).
 *
 * It fetches, executes and retires through step()'s helpers, so
 * bit-identity with the per-step interpreter rests on five facts
 * about how this driver batches their charges:
 *  - run() only dispatches here when PMU sampling is inactive, and no
 *    inline opcode can arm it, so a PMI can never become pending
 *    mid-run;
 *  - InterruptClient::nextInterruptCycle() is constant between
 *    pollInterrupt() calls, so caching it per dispatch and breaking
 *    after the first instruction that reaches it reproduces the
 *    baseline poll points exactly (the baseline, too, always executes
 *    exactly one instruction after each poll);
 *  - retire() and the cycle charges are purely additive while
 *    sampling is off, so batching them to one call per run is
 *    invisible — and the batch is flushed (commit) before anything
 *    that could observe it: escapes, fast-forward, or return;
 *  - curMode cannot change inside a run (mode transitions escape);
 *  - the k Nops left in a Nop record change nothing but the fetch
 *    models and the cycle and retire batches, so they retire in one
 *    step: fetchCaches sees each new line and page once, in address
 *    order, exactly as k single fetches would (same-line repeats are
 *    skipped either way), and FrontEnd::onNops charges what k onInst
 *    calls would. The step skips the k - 1 interrupt checks between
 *    its Nops, so with an interrupt horizon it runs only if
 *    cycleCount + pend plus an upper bound on the Nops' cost
 *    (nopRunCostBound) stays below irq_due: then none of those
 *    checks could have fired. Otherwise the Nops run one by one.
 *
 * A dispatch retires at most one chunk of instructions, so it may
 * end inside a Nop record; pc.pos then names the next Nop.
 */
void
Core::stepBlock()
{
    const isa::CodeBlock &blk = program->block(pc.block);
    const Inst *code = blk.data();
    const std::size_t n = blk.size();
    std::size_t idx = static_cast<std::size_t>(pc.index);
    if (idx >= n || code[idx].escape()) {
        obs::spcInc(idx < n ? escapeSpc(code[idx].op)
                            : obs::Spc::BlockEscapeOther);
        step();
        return;
    }

    const Mode mode = curMode;
    const bool check_irq = mode == Mode::User && intClient != nullptr;
    const Cycles irq_due =
        check_irq ? intClient->nextInterruptCycle() : 0;
    auto run_end = static_cast<std::size_t>(code[idx].runEnd);
    auto pos = static_cast<Count>(pc.pos); //!< Nop within a Nop record

    // Cap one dispatch at a chunk of instructions so run()'s runaway
    // guard and watchdog still trigger on programs that never escape
    // (a Halt-less inline loop).
    constexpr Count chunk = 65536;

    Count retired = 0;  //!< batched, not yet flushed
    Count brRetired = 0; //!< batched branch retires
    Cycles pend = 0;    //!< batched cycle charges
    Count total = 0;    //!< instructions retired this dispatch
    bool poison = mode != Mode::User;

    // Keep the fetch-skip keys in registers for the run; members are
    // synced at every point the run can leave this function.
    Addr fetchLine = lastFetchLine;
    Addr fetchPage = lastFetchPage;

    // Flush the retire and cycle batches. Both are purely additive
    // while sampling is off (and the mode is constant for the whole
    // run), so deferring them is invisible as long as every observer
    // sees a flushed state: fast-forward, escapes, and dispatch exit
    // (interrupt polls, rdpmc, HostOp captures). Nothing inside the
    // loop reads cycleCount or the TSC: time-reading opcodes escape,
    // and dataAccess() only touches the cache models. The interrupt
    // horizon check below compensates with cycleCount + pend.
    auto flush = [&] {
        if (retired != 0) {
            retire(mode, retired, brRetired, obs::Spc::UserInstrsBlock);
            retired = 0;
            brRetired = 0;
        }
        chargeCycles(pend);
        pend = 0;
        if (poison)
            ++poisonEpoch;
        poison = mode != Mode::User;
        lastFetchLine = fetchLine;
        lastFetchPage = fetchPage;
    };

    for (;;) {
        const Inst &in = code[idx];

        if (in.op == Opcode::Nop) {
            // The record's Nops from pos on, up to the chunk budget:
            // retire them in one step, unless an interrupt could fall
            // due among them; then retire one.
            const Addr at = in.addr + pos;
            Count k = std::min(static_cast<Count>(in.size) - pos,
                               chunk - total);
            if (k > 1 && (!check_irq ||
                          cycleCount + pend + nopRunCostBound(at, k) <
                              irq_due))
                PCA_SPC_ADD(NopRunInstrs, k);
            else
                k = 1;
            const Addr last = at + k - 1;
            for (Addr line = at >> icLineShift;
                 line <= last >> icLineShift; ++line)
                pend += fetchCaches(std::max(at, line << icLineShift),
                                    fetchLine, fetchPage);
            pend += frontEnd.onNops(at, k);
            retired += k;
            total += k;
            pos += k;
            if (pos == static_cast<Count>(in.size)) {
                pos = 0;
                ++idx;
            }
            if ((check_irq && cycleCount + pend >= irq_due) ||
                idx >= run_end || total >= chunk)
                break;
            continue;
        }

        pend += fetch(in.addr, in.size, fetchLine, fetchPage);
        const bool taken = execInline(in, pend, brRetired);
        ++retired;
        ++total;

        if (taken) {
            if ((in.flags & isa::IfBackwardBranch) != 0 && ffEnabled &&
                mode == Mode::User) {
                // The fast-forward machinery observes per-iteration
                // retire/cycle deltas and poisonEpoch: flush
                // first, exactly as if every instruction had retired
                // individually.
                flush();
                const auto bidx = static_cast<int>(idx);
                pc.index = in.targetIndex;
                const std::uint64_t key =
                    (static_cast<std::uint64_t>(pc.block) << 32) |
                    static_cast<std::uint64_t>(bidx);
                maybeFastForwardKeyed(key, in, bidx);
            }
            idx = static_cast<std::size_t>(in.targetIndex);
            if (idx >= n || code[idx].escape())
                break;
            run_end = static_cast<std::size_t>(code[idx].runEnd);
            if ((check_irq && cycleCount + pend >= irq_due) ||
                total >= chunk)
                break;
            continue;
        }

        poison |= (in.flags & isa::IfFfSafe) == 0;
        ++idx;
        if ((check_irq && cycleCount + pend >= irq_due) ||
            idx >= run_end || total >= chunk)
            break;
    }
    flush();
    pc.index = static_cast<int>(idx);
    pc.pos = static_cast<int>(pos);
}

/**
 * Execute one of the 9 escape opcodes (cross-block control, mode
 * transitions, time, counter and MSR access, Halt) for step().
 */
void
Core::execute(const Inst &in)
{
    switch (in.op) {
      case Opcode::Call:
      {
        // The callee's block id, resolved when the program linked.
        const int target = in.targetIndex;
        if (target < 0)
            throw StatusError(Status(
                StatusCode::NotFound,
                "call to unknown block '" +
                    program->block(pc.block).callee(in) + "'"));
        predictor.noteUncond(in.addr);
        countEvent(EventType::BrInstRetired);
        callStack.push_back(CodePtr{pc.block, pc.index + 1});
        pc = CodePtr{target, 0};
        pcRedirected = true;
        frontEnd.redirect(pcAddr());
        break;
      }
      case Opcode::Ret:
      {
        if (callStack.empty())
            throw StatusError(Status(
                StatusCode::FailedPrecondition,
                "ret with empty call stack in block " +
                    program->block(pc.block).name()));
        countEvent(EventType::BrInstRetired);
        pc = callStack.back();
        callStack.pop_back();
        pcRedirected = true;
        frontEnd.redirect(pcAddr());
        break;
      }

      case Opcode::Rdtsc:
        reg(Reg::Eax) = pmuUnit.rdtsc();
        chargeCycles(static_cast<Cycles>(archRef.rdtscCycles));
        break;
      case Opcode::Rdpmc:
        if (curMode == Mode::User && !userRdpmcOk)
            throw StatusError(
                Status(StatusCode::FailedPrecondition,
                       "#GP: rdpmc in user mode with CR4.PCE clear"));
        reg(Reg::Eax) = pmuUnit.rdpmc(reg(Reg::Ecx));
        chargeCycles(static_cast<Cycles>(archRef.rdpmcCycles));
        break;
      case Opcode::Rdmsr:
        if (curMode != Mode::Kernel)
            throw StatusError(Status(StatusCode::FailedPrecondition,
                                     "#GP: rdmsr in user mode"));
        reg(Reg::Eax) = pmuUnit.rdmsr(
            static_cast<std::uint32_t>(reg(Reg::Ecx)));
        chargeCycles(static_cast<Cycles>(archRef.rdmsrCycles));
        break;
      case Opcode::Wrmsr:
        if (curMode != Mode::Kernel)
            throw StatusError(Status(StatusCode::FailedPrecondition,
                                     "#GP: wrmsr in user mode"));
        pmuUnit.wrmsr(static_cast<std::uint32_t>(reg(Reg::Ecx)),
                      reg(Reg::Eax));
        chargeCycles(static_cast<Cycles>(archRef.wrmsrCycles));
        break;

      case Opcode::Syscall:
        if (!syscallEntry.valid())
            throw StatusError(Status(StatusCode::FailedPrecondition,
                                     "syscall with no kernel attached"));
        trapStack.push_back({CodePtr{pc.block, pc.index + 1},
                             curMode, false, zeroFlag, lessFlag,
                             pmuUnit.attrClass()});
        curMode = Mode::Kernel;
        // Kernel work from here until iret is the pattern's own
        // syscall service: charge it to the Syscall class.
        pmuUnit.setAttrClass(obs::AttrClass::Syscall);
        if (obs::traceEnabled())
            obs::tracer().begin("syscall", "kernel", cycleCount);
        chargeCycles(static_cast<Cycles>(archRef.syscallEntryCycles));
        pc = syscallEntry;
        pcRedirected = true;
        frontEnd.redirect(pcAddr());
        break;
      case Opcode::Iret:
      {
        if (trapStack.empty())
            throw StatusError(Status(StatusCode::FailedPrecondition,
                                     "iret with empty trap stack"));
        chargeCycles(static_cast<Cycles>(archRef.syscallExitCycles));
        const SavedContext saved = trapStack.back();
        trapStack.pop_back();
        if (saved.fromInterrupt)
            activeVector = -1;
        curMode = saved.mode;
        pmuUnit.setAttrClass(saved.attrCls);
        if (obs::traceEnabled())
            obs::tracer().end(cycleCount);
        zeroFlag = saved.zeroFlag;
        lessFlag = saved.lessFlag;
        // Back to the interrupted instruction, inside its Nop record
        // if it was one.
        pc = saved.pc;
        pcRedirected = true;
        frontEnd.redirect(pcAddr());
        break;
      }

      case Opcode::Halt:
        halted = true;
        break;

      default:
        pca_panic("opcode ", isa::opcodeName(in.op),
                  " reached execute()");
    }
}

void
Core::deliverInterrupt(int vector)
{
    interruptedAddr = pcAddr();
    trapStack.push_back(
        {pc, curMode, true, zeroFlag, lessFlag, pmuUnit.attrClass()});
    curMode = Mode::Kernel;
    const obs::AttrClass cls = obs::attrClassForVector(vector);
    pmuUnit.setAttrClass(cls);
    switch (cls) {
      case obs::AttrClass::Timer: PCA_SPC_INC(InterruptsTimer); break;
      case obs::AttrClass::Io: PCA_SPC_INC(InterruptsIo); break;
      default: PCA_SPC_INC(InterruptsPmi); break;
    }
    if (obs::traceEnabled())
        obs::tracer().begin(
            std::string("irq:") + obs::attrClassName(cls), "kernel",
            cycleCount);
    activeVector = vector;
    ++interruptCount;
    countEvent(EventType::HwInterrupt);
    chargeCycles(static_cast<Cycles>(archRef.interruptEntryCycles));
    pca_assert(interruptEntry.valid());
    pc = interruptEntry;
    frontEnd.redirect(pcAddr());
    ++poisonEpoch;
}

void
Core::maybeFastForwardKeyed(std::uint64_t key, const Inst &branch,
                            int branch_index)
{
    auto [slot, fresh] = loops.try_emplace(key);
    LoopFf &lf = slot->second;
    if (fresh)
        // A loop's first back-edge sees what happened since the last
        // back-edge check of any loop.
        lf.epoch = lastCheckEpoch;
    if (lf.unsafe)
        return;
    // Bulk-applying counts would skip overflow thresholds (and rob
    // the profiler of per-retire ground truth): sampling sessions
    // and profiled runs force pure interpretation.
    if (pmuUnit.samplingActive() || prof != nullptr)
        return;
    // Poisoned since this loop's own last back-edge, not since any
    // loop's: an inner loop's back-edges must not hide an interrupt
    // or a memory access from the loop around it.
    const bool poisoned = lf.epoch != poisonEpoch;
    lf.epoch = poisonEpoch;
    lastCheckEpoch = poisonEpoch;
    if (poisoned) {
        lf.headTaken = false;
        lf.histLen = 0;
        return;
    }

    const auto user = static_cast<std::size_t>(Mode::User);
    auto snapshot = [&] {
        lf.headTaken = true;
        lf.headRegs = regs;
        lf.headInstr = instrPerMode[user];
        lf.headCycles = cycleCount;
        for (std::size_t e = 0; e < numEvents; ++e)
            lf.headEvents[e] = rawEv[e][user];
    };

    if (!lf.headTaken) {
        snapshot();
        return;
    }

    // Compute this iteration's delta.
    IterDelta d;
    d.instr = instrPerMode[user] - lf.headInstr;
    d.cycles = cycleCount - lf.headCycles;
    for (std::size_t e = 0; e < numEvents; ++e)
        d.events[e] = rawEv[e][user] - lf.headEvents[e];
    for (std::size_t r = 0; r < isa::numRegs; ++r) {
        if (regs[r] != lf.headRegs[r]) {
            if (d.reg >= 0) {
                lf.unsafe = true; // more than one register changes
                return;
            }
            d.reg = static_cast<int>(r);
            d.step = static_cast<std::int64_t>(regs[r] - lf.headRegs[r]);
        }
    }
    if (d.reg < 0) {
        lf.unsafe = true; // no induction variable: diverging loop?
        return;
    }
    snapshot();

    constexpr std::size_t ring = 2 * maxFfPeriod;
    lf.hist[lf.histNext] = d;
    lf.histNext = (lf.histNext + 1) % ring;
    lf.histLen = std::min(lf.histLen + 1, ring);
    // back(0) is this iteration, back(j) the one j iterations earlier.
    auto back = [&](std::size_t j) -> const IterDelta & {
        return lf.hist[(lf.histNext + ring - 1 - j) % ring];
    };

    // Steady state: the smallest period p whose last 2p deltas are
    // two equal copies (p = 1: two equal consecutive iterations).
    std::size_t period = 0;
    for (std::size_t p = 1; p <= maxFfPeriod && 2 * p <= lf.histLen;
         ++p) {
        std::size_t j = 0;
        while (j < p && back(j) == back(j + p))
            ++j;
        if (j == p) {
            period = p;
            break;
        }
    }
    if (period == 0)
        return; // still warming up; keep observing

    // The trip count below assumes one constant induction step.
    const int changed = d.reg;
    const std::int64_t step_val = d.step;
    for (std::size_t j = 1; j < period; ++j)
        if (back(j).reg != changed || back(j).step != step_val)
            return;

    // Extrapolate. The loop idiom must be
    //   cmp_imm R, T ; jne/jl back
    if (branch_index < 1)
        return;
    const Inst &cmp = program->inst(CodePtr{pc.block, branch_index - 1});
    if (cmp.op != Opcode::CmpImm ||
        cmp.r1 != static_cast<Reg>(changed)) {
        lf.unsafe = true;
        return;
    }
    const std::int64_t target = cmp.imm;
    const auto cur =
        static_cast<std::int64_t>(regs[static_cast<std::size_t>(changed)]);

    std::int64_t n; // iterations remaining until the branch falls through
    if (branch.op == Opcode::Jne) {
        const std::int64_t dist = target - cur;
        if (dist % step_val != 0 || dist / step_val <= 0) {
            lf.unsafe = true;
            return;
        }
        n = dist / step_val;
    } else if (branch.op == Opcode::Jl && step_val > 0) {
        const std::int64_t dist = target - cur;
        if (dist <= 0)
            return;
        n = (dist + step_val - 1) / step_val;
    } else {
        lf.unsafe = true;
        return;
    }

    // Whole periods only, leaving the final iteration interpreted.
    const auto p_iters = static_cast<std::int64_t>(period);
    std::int64_t k = (n - 1) / p_iters;
    if (k <= 0)
        return;

    IterDelta sum; // one period
    for (std::size_t j = 0; j < period; ++j) {
        sum.instr += back(j).instr;
        sum.cycles += back(j).cycles;
        for (std::size_t e = 0; e < numEvents; ++e)
            sum.events[e] += back(j).events[e];
    }

    if (intClient && sum.cycles > 0) {
        const Cycles next = intClient->nextInterruptCycle();
        if (next <= cycleCount)
            return; // interrupt due: interpret towards it
        const auto k_int = static_cast<std::int64_t>(
            (next - cycleCount) / sum.cycles);
        k = std::min(k, k_int);
        if (k <= 0)
            return;
    }

    // Bulk-apply k periods.
    regs[static_cast<std::size_t>(changed)] +=
        static_cast<std::uint64_t>(step_val * k * p_iters);
    const auto ku = static_cast<Count>(k);
    instrPerMode[user] += sum.instr * ku;
    cycleCount += sum.cycles * ku;
    cyclesPerMode[user] += sum.cycles * ku;
    pmuUnit.addCycles(sum.cycles * ku, Mode::User);
    for (std::size_t e = 0; e < numEvents; ++e) {
        if (sum.events[e] == 0 ||
            e == static_cast<std::size_t>(EventType::CpuClkUnhalted))
            continue;
        rawEv[e][user] += sum.events[e] * ku;
        pmuUnit.count(static_cast<EventType>(e), Mode::User,
                      sum.events[e] * ku);
    }
    const Count iters = ku * static_cast<Count>(period);
    ffIters += iters;
    PCA_SPC_ADD(FastForwardIters, iters);
    PCA_SPC_ADD(UserInstrsFolded, sum.instr * ku);
    snapshot(); // head reflects post-bulk state
}

std::vector<Addr>
Core::callChainAddrs() const
{
    std::vector<Addr> out;
    out.reserve(callStack.size());
    for (const CodePtr &ret : callStack) {
        // Return site = instruction after the call; a call as the
        // last instruction of a block has no successor to name, so
        // fall back to the call itself.
        const isa::CodeBlock &blk = program->block(ret.block);
        const std::size_t idx = static_cast<std::size_t>(ret.index);
        out.push_back(idx < blk.size()
                          ? blk.inst(idx).addr
                          : blk.inst(blk.size() - 1).addr);
    }
    return out;
}

void
Core::reset()
{
    pmuUnit.reset();
    frontEnd.reset();
    predictor.reset();
    icache.flush();
    itlb.flush();
    dcache.flush();
    l2.flush();
    dtlb.flush();
    regs.fill(0);
    reg(Reg::Esp) = 0xbfff0000ULL;
    zeroFlag = false;
    lessFlag = false;
    curMode = Mode::User;
    callStack.clear();
    trapStack.clear();
    memory.clear();
    cycleCount = 0;
    cyclesPerMode.fill(0);
    instrPerMode.fill(0);
    for (auto &per_event : rawEv)
        per_event.fill(0);
    interruptCount = 0;
    ffIters = 0;
    halted = false;
    pcRedirected = false;
    activeVector = -1;
    interruptedAddr = 0;
    pmiCounter = -1;
    // CR4 bits return to power-on defaults: the measurement program
    // re-enables user RDPMC through its own setup path, exactly as
    // it would on a freshly booted machine.
    userRdpmcOk = false;
    loops.clear();
    poisonEpoch = 1;
    lastCheckEpoch = 0;
    lastFetchLine = ~Addr{0};
    lastFetchPage = ~Addr{0};
}

} // namespace pca::cpu
