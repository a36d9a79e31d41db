#include "isa/codeblock.hh"

#include <sstream>

#include "support/logging.hh"

namespace pca::isa
{

namespace
{

/**
 * The fast-forward-safe set: opcodes whose only effects are on
 * registers, flags and the front end, so a loop built from them
 * repeats its per-iteration deltas. Both interpreters read it from
 * IfFfSafe.
 */
bool
ffSafe(Opcode op)
{
    switch (op) {
      case Opcode::MovImm:
      case Opcode::MovReg:
      case Opcode::AddImm:
      case Opcode::AddReg:
      case Opcode::SubImm:
      case Opcode::SubReg:
      case Opcode::CmpImm:
      case Opcode::CmpReg:
      case Opcode::TestReg:
      case Opcode::XorReg:
      case Opcode::AndImm:
      case Opcode::OrReg:
      case Opcode::ShlImm:
      case Opcode::ShrImm:
      case Opcode::Nop:
      case Opcode::Jmp:
      case Opcode::Je:
      case Opcode::Jne:
      case Opcode::Jl:
      case Opcode::Jge:
        return true;
      default:
        return false;
    }
}

/**
 * Opcodes the block engine executes inline: the fast-forward-safe set
 * plus memory access and Cpuid. Everything else escapes to the
 * per-step interpreter: cross-block control flow (Call/Ret), mode
 * transitions (Syscall/Iret), counter access (Rdtsc/Rdpmc/Rdmsr/
 * Wrmsr — these observe mid-run PMU state, so retire batching must
 * flush before them), Halt, and HostOp.
 */
bool
inlineOp(Opcode op)
{
    switch (op) {
      case Opcode::Load:
      case Opcode::Store:
      case Opcode::Push:
      case Opcode::Pop:
      case Opcode::Cpuid:
        return true;
      default:
        return ffSafe(op);
    }
}

} // namespace

CodeBlock::CodeBlock(std::string name)
    : blockName(std::move(name))
{
}

int
CodeBlock::append(Inst inst, int count)
{
    pca_assert(count >= 0);
    if (count == 0)
        return static_cast<int>(insts.size());
    if (inst.size < 0)
        inst.size = defaultSize(inst.op);
    if (inst.op == Opcode::Call)
        pca_assert(inst.payload >= 0 &&
                   inst.payload < static_cast<int>(callees.size()));
    if (inst.op == Opcode::HostOp)
        pca_assert(inst.payload >= 0 &&
                   inst.payload < static_cast<int>(hosts.size()) &&
                   hosts[static_cast<std::size_t>(inst.payload)]);
    const int idx = static_cast<int>(insts.size());
    for (int label : pendingLabels)
        labelTargets[label] = idx;
    pendingLabels.clear();
    insts.insert(insts.end(), static_cast<std::size_t>(count), inst);
    linked = false;
    return idx;
}

int
CodeBlock::appendCall(std::string callee)
{
    Inst i;
    i.op = Opcode::Call;
    i.payload = static_cast<int>(callees.size());
    callees.push_back(std::move(callee));
    return append(i);
}

int
CodeBlock::appendHost(HostFn fn)
{
    Inst i;
    i.op = Opcode::HostOp;
    i.payload = static_cast<int>(hosts.size());
    hosts.push_back(std::move(fn));
    return append(i);
}

int
CodeBlock::newLabel()
{
    labelTargets.push_back(-1);
    return static_cast<int>(labelTargets.size()) - 1;
}

void
CodeBlock::bind(int label)
{
    pca_assert(label >= 0 &&
               label < static_cast<int>(labelTargets.size()));
    pendingLabels.push_back(label);
}

void
CodeBlock::layout(Addr base_addr)
{
    pca_assert(pendingLabels.empty());
    base = base_addr;
    Addr a = base_addr;
    for (auto &inst : insts) {
        inst.addr = a;
        a += static_cast<Addr>(inst.size);
        if (inst.label >= 0) {
            pca_assert(inst.label <
                       static_cast<int>(labelTargets.size()));
            const int target = labelTargets[inst.label];
            if (target < 0)
                pca_panic("unbound label ", inst.label, " in block '",
                          blockName, "'");
            inst.targetIndex = target;
        }
    }
    byteSize = a - base_addr;

    // Classify, backwards so each run end is known when reached:
    // runEnd is the first escape at or after i (or n), so
    // [i, runEnd) is guaranteed inline-executable; a 1-byte Nop's
    // nopRunEnd is the first instruction at or after i that is not
    // one, so [i, nopRunEnd) is a contiguous run of 1-byte Nops.
    const int n = static_cast<int>(insts.size());
    int end = n;
    int nop_end = n;
    for (int i = n; i-- > 0;) {
        Inst &in = insts[static_cast<std::size_t>(i)];
        if (in.op == Opcode::Nop && in.size == 1) {
            pca_assert(in.label < 0);
            in.targetIndex = nop_end;
        } else {
            nop_end = i;
        }
        in.flags = 0;
        if (!inlineOp(in.op))
            in.flags |= IfEscape;
        if (ffSafe(in.op))
            in.flags |= IfFfSafe;
        if (isCondBranch(in.op))
            in.flags |= IfCondBranch;
        if (isBranch(in.op) && in.targetIndex >= 0) {
            pca_assert(in.targetIndex < n);
            in.targetAddr =
                insts[static_cast<std::size_t>(in.targetIndex)].addr;
            if ((in.flags & IfCondBranch) && in.targetIndex < i)
                in.flags |= IfBackwardBranch;
        }
        if (in.escape())
            end = i;
        in.runEnd = end;
    }
    linked = true;
}

std::string
CodeBlock::disassemble() const
{
    std::ostringstream os;
    os << blockName << ":\n";
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const Inst &in = insts[i];
        os << "  " << in.addr << ": " << opcodeName(in.op);
        switch (in.op) {
          case Opcode::MovImm:
          case Opcode::AddImm:
          case Opcode::SubImm:
          case Opcode::CmpImm:
          case Opcode::AndImm:
          case Opcode::ShlImm:
          case Opcode::ShrImm:
            os << " " << regName(in.r1) << ", $" << in.imm;
            break;
          case Opcode::MovReg:
          case Opcode::AddReg:
          case Opcode::SubReg:
          case Opcode::CmpReg:
          case Opcode::TestReg:
          case Opcode::XorReg:
          case Opcode::OrReg:
            os << " " << regName(in.r1) << ", " << regName(in.r2);
            break;
          case Opcode::Load:
            os << " " << regName(in.r1) << ", [" << regName(in.r2)
               << "+" << in.imm << "]";
            break;
          case Opcode::Store:
            os << " [" << regName(in.r2) << "+" << in.imm << "], "
               << regName(in.r1);
            break;
          case Opcode::Push:
          case Opcode::Pop:
            os << " " << regName(in.r1);
            break;
          case Opcode::Jmp:
          case Opcode::Je:
          case Opcode::Jne:
          case Opcode::Jl:
          case Opcode::Jge:
            os << " -> #" << in.targetIndex;
            break;
          case Opcode::Call:
            os << " " << callee(in);
            break;
          default:
            break;
        }
        os << "\n";
    }
    return os.str();
}

} // namespace pca::isa
