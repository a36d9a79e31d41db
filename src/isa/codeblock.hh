/**
 * @file
 * A named, linkable sequence of instructions.
 */

#ifndef PCA_ISA_CODEBLOCK_HH
#define PCA_ISA_CODEBLOCK_HH

#include <functional>
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
     * Append a record of @p op with its operands, built in place in
     * the block's storage; returns its index, which pending labels
     * bind to. Nop runs, Calls and HostOps have their own appenders.
     */
    int append(Opcode op, Reg r1 = Reg::Eax, Reg r2 = Reg::Eax,
               std::int64_t imm = 0, int label = -1);

    /**
     * Append @p n (>= 1) 1-byte Nops as one record; returns its
     * index. Right after a Nop record, with no label pending, that
     * record grows instead, so a label always binds to the start of
     * a record.
     */
    int appendNops(int n);

    /** Append a Call to the block named @p callee. */
    int appendCall(std::string callee);

    /** Append a HostOp running @p fn. */
    int appendHost(HostFn fn);

    /** Create a new unbound label; returns its id. */
    int newLabel();

    /** Bind label @p label to the next appended record. */
    void bind(int label);

    /** Number of records (a Nop record holds a whole Nop run). */
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
     * Lay the block out at @p base_addr: assign per-record
     * addresses, compute the byte size, resolve label references to
     * record indexes and addresses, and classify every record
     * (Inst::flags, Inst::runEnd) for the interpreters.
     * Panics on unbound labels.
     */
    void layout(Addr base_addr);

    /**
     * Give every Call its callee's block id (Inst::targetIndex):
     * @p block_id maps a name to an id, -1 if no block has it.
     */
    void resolveCalls(const std::function<int(const std::string &)>
                          &block_id);

    /** Pretty-print a disassembly listing. */
    std::string disassemble() const;

  private:
    /**
     * A new record of @p op at the end, its size the opcode's
     * default; binds the pending labels to it.
     */
    Inst &newRecord(Opcode op);

    std::string blockName;
    std::vector<Inst> insts;
    /** Call targets and HostOp callbacks, by Inst::payload. */
    std::vector<std::string> callees;
    std::vector<HostFn> hosts;
    /** label id -> record index (-1 while unbound). */
    std::vector<int> labelTargets;
    /** labels waiting to bind to the next record. */
    std::vector<int> pendingLabels;
    Addr base = 0;
    std::size_t byteSize = 0;
    bool linked = false;
};

} // namespace pca::isa

#endif // PCA_ISA_CODEBLOCK_HH
