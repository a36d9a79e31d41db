/**
 * @file
 * The simulated instruction set.
 *
 * A small IA32-flavoured ISA: enough ALU/branch/stack traffic to
 * express the paper's micro-benchmarks and the measurement libraries'
 * code, plus the counter-access instructions the paper discusses
 * (RDPMC, RDTSC, RDMSR, WRMSR) and a syscall/iret pair for kernel
 * entry and exit. Instructions carry byte sizes so that code layout
 * (and therefore fetch-line and BTB behaviour) is meaningful.
 */

#ifndef PCA_ISA_INST_HH
#define PCA_ISA_INST_HH

#include <cstdint>
#include <functional>
#include <type_traits>

#include "support/types.hh"

namespace pca::isa
{

/** General-purpose register names (IA32's eight GPRs). */
enum class Reg : std::uint8_t
{
    Eax, Ebx, Ecx, Edx, Esi, Edi, Ebp, Esp,
    NumRegs,
};

constexpr std::size_t numRegs = static_cast<std::size_t>(Reg::NumRegs);

const char *regName(Reg r);

/** Operation codes. */
enum class Opcode : std::uint8_t
{
    // ALU, register/immediate forms.
    MovImm,   //!< r1 = imm
    MovReg,   //!< r1 = r2
    AddImm,   //!< r1 += imm
    AddReg,   //!< r1 += r2
    SubImm,   //!< r1 -= imm
    SubReg,   //!< r1 -= r2
    CmpImm,   //!< flags = compare(r1, imm)
    CmpReg,   //!< flags = compare(r1, r2)
    TestReg,  //!< flags = compare(r1 & r2, 0)
    XorReg,   //!< r1 ^= r2
    AndImm,   //!< r1 &= imm
    OrReg,    //!< r1 |= r2
    ShlImm,   //!< r1 <<= imm
    ShrImm,   //!< r1 >>= imm

    // Memory. Addresses are symbolic (stack/data region); data flow
    // through memory is modelled via the store-buffer in the core.
    Load,     //!< r1 = mem[r2 + imm]
    Store,    //!< mem[r2 + imm] = r1
    Push,     //!< push r1
    Pop,      //!< r1 = pop

    // Control flow. Targets are resolved label references.
    Jmp,      //!< unconditional
    Je,       //!< jump if zero flag
    Jne,      //!< jump if !zero flag
    Jl,       //!< jump if less (signed)
    Jge,      //!< jump if greater-or-equal (signed)
    Call,     //!< call a block by symbol
    Ret,      //!< return from call

    // Counter access (Section 2.2 of the paper).
    Rdtsc,    //!< eax = time stamp counter
    Rdpmc,    //!< eax = performance counter selected by ecx
    Rdmsr,    //!< eax = MSR[ecx]; kernel mode only
    Wrmsr,    //!< MSR[ecx] = eax; kernel mode only

    // Mode transitions.
    Syscall,  //!< trap to kernel; number in eax
    Iret,     //!< return from kernel to interrupted context

    // Misc.
    Nop,
    Cpuid,    //!< serializing; used by measurement code
    Halt,     //!< stop the simulation (end of program)

    /**
     * Host escape: runs a registered C++ callback. Carries zero
     * architectural cost (no instruction retired, no cycle) and is
     * used only to move data between simulated registers and the
     * harness (e.g. capturing a counter value into a C++ variable).
     */
    HostOp,
};

const char *opcodeName(Opcode op);

/** Is this opcode a control-flow instruction with a label target? */
bool isBranch(Opcode op);

/** Is this a conditional branch? */
bool isCondBranch(Opcode op);

/** Default encoded size in bytes for an opcode (IA32-realistic). */
int defaultSize(Opcode op);

class CpuContext; // forward-declared execution context view

/** Host callback type for HostOp. @see Opcode::HostOp */
using HostFn = std::function<void(CpuContext &)>;

/** Per-instruction classification set by CodeBlock::layout. */
enum InstFlags : std::uint8_t
{
    /** In the fast-forward-safe opcode set (steady-loop deltas). */
    IfFfSafe = 1 << 0,
    /** Conditional branch (Je/Jne/Jl/Jge). */
    IfCondBranch = 1 << 1,
    /** Conditional branch whose target precedes it (loop branch). */
    IfBackwardBranch = 1 << 2,
    /**
     * The block engine hands this instruction to the per-step
     * interpreter: control transfers between blocks, mode
     * transitions, counter access, host escapes, Halt — everything
     * that can change privilege mode, PMU programming, or the
     * current code block.
     */
    IfEscape = 1 << 3,
};

/**
 * One instruction: the record the assembler emits, the linker lays
 * out and classifies, and both interpreters execute in place. It
 * stays small and trivially copyable (a kernel image is ~10 k of
 * them); the rare variable-size operands, a Call's callee name and a
 * HostOp's callback, live in the owning CodeBlock's tables.
 */
struct Inst
{
    Opcode op = Opcode::Nop;
    Reg r1 = Reg::Eax;
    Reg r2 = Reg::Eax;
    /** InstFlags (valid after layout). */
    std::uint8_t flags = 0;

    /** Encoded size in bytes; -1 means "use defaultSize(op)". */
    int size = -1;

    std::int64_t imm = 0;

    /** Branch target: index of a label within the owning block. */
    int label = -1;

    /**
     * Resolved branch target as an instruction index in the block.
     * A 1-byte Nop has no branch target, so layout stores here
     * instead the exclusive end of its run of consecutive 1-byte
     * Nops (@see nopRunEnd).
     */
    int targetIndex = -1;

    /** Address assigned at link time. */
    Addr addr = 0;

    /** Branches: link-resolved byte address of targetIndex. */
    Addr targetAddr = 0;

    /**
     * Call/HostOp: index into the owning block's callee or host
     * table. @see CodeBlock::callee, CodeBlock::host
     */
    int payload = -1;

    /**
     * Exclusive end of the contiguous non-escape run containing this
     * instruction (valid after layout): the block engine may execute
     * [index, runEnd) without consulting the per-step interpreter.
     * Equals the instruction's own index when it is an escape.
     */
    int runEnd = 0;

    bool escape() const { return (flags & IfEscape) != 0; }

    /**
     * Nops (valid after layout): exclusive end of the run of
     * consecutive 1-byte Nops from this one on, which the block
     * engine retires in one step; -1 for a wider Nop.
     */
    int nopRunEnd() const { return targetIndex; }
};

static_assert(std::is_trivially_copyable_v<Inst>,
              "Inst is copied per instruction; keep owning members "
              "(strings, callbacks) in the CodeBlock's tables");
static_assert(sizeof(Inst) <= 48, "Inst grew past 48 bytes");

} // namespace pca::isa

#endif // PCA_ISA_INST_HH
