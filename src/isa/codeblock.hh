/**
 * @file
 * A named, linkable sequence of instructions.
 */

#ifndef PCA_ISA_CODEBLOCK_HH
#define PCA_ISA_CODEBLOCK_HH

#include <string>
#include <vector>

#include "isa/inst.hh"
#include "support/types.hh"

namespace pca::isa
{

/**
 * A contiguous run of instructions with local labels, analogous to a
 * function in the measured program. Blocks are positioned in the
 * address space by Program::link(), which also resolves label
 * references to instruction indexes and byte addresses.
 */
class CodeBlock
{
  public:
    explicit CodeBlock(std::string name);

    const std::string &name() const { return blockName; }

    /**
     * Append @p count copies of an instruction (one insert); returns
     * the first one's index, which pending labels bind to. A Call
     * or HostOp must carry the payload appendCall()/appendHost()
     * gives it.
     */
    int append(Inst inst, int count = 1);

    /** Append a Call to the block named @p callee. */
    int appendCall(std::string callee);

    /** Append a HostOp running @p fn. */
    int appendHost(HostFn fn);

    /** Create a new unbound label; returns its id. */
    int newLabel();

    /** Bind label @p label to the next appended instruction. */
    void bind(int label);

    /** Number of instructions. */
    std::size_t size() const { return insts.size(); }

    /** Total encoded bytes (valid after link). */
    std::size_t bytes() const { return byteSize; }

    const Inst &inst(std::size_t i) const { return insts.at(i); }
    const Inst *data() const { return insts.data(); }

    /** Callee symbol of a Call instruction of this block. */
    const std::string &callee(const Inst &in) const
    {
        return callees[static_cast<std::size_t>(in.payload)];
    }

    /** Callback of a HostOp instruction of this block. */
    const HostFn &host(const Inst &in) const
    {
        return hosts[static_cast<std::size_t>(in.payload)];
    }

    Addr baseAddr() const { return base; }

    /**
     * Lay the block out at @p base_addr: assign per-instruction
     * addresses, compute the byte size, resolve label references to
     * instruction indexes and addresses, and classify every
     * instruction (Inst::flags, Inst::runEnd, Inst::nopRunEnd) for
     * the interpreters.
     * Panics on unbound labels.
     */
    void layout(Addr base_addr);

    /** Pretty-print a disassembly listing. */
    std::string disassemble() const;

  private:
    std::string blockName;
    std::vector<Inst> insts;
    /** Call targets and HostOp callbacks, by Inst::payload. */
    std::vector<std::string> callees;
    std::vector<HostFn> hosts;
    /** label id -> instruction index (-1 while unbound). */
    std::vector<int> labelTargets;
    /** labels waiting to bind to the next instruction. */
    std::vector<int> pendingLabels;
    Addr base = 0;
    std::size_t byteSize = 0;
    bool linked = false;
};

} // namespace pca::isa

#endif // PCA_ISA_CODEBLOCK_HH
