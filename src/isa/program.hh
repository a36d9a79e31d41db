/**
 * @file
 * A linked program: code blocks placed in the simulated address space.
 *
 * Code placement matters in this study — Section 6 of the paper shows
 * that moving the measured loop in memory (a side effect of changing
 * pattern or optimization level) changes front-end behaviour and thus
 * cycle counts. The Program linker therefore assigns real byte
 * addresses and supports an arbitrary base offset so harnesses can
 * shift their code like different executables would.
 */

#ifndef PCA_ISA_PROGRAM_HH
#define PCA_ISA_PROGRAM_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "isa/codeblock.hh"

namespace pca::isa
{

/**
 * Location of an instruction: block id, record index within the
 * block, and the position of the current Nop within a Nop record
 * (0 for every other record). Its address is the record's plus pos.
 */
struct CodePtr
{
    int block = -1;
    int index = 0;
    int pos = 0;

    bool valid() const { return block >= 0; }
    bool operator==(const CodePtr &o) const = default;
};

/**
 * A set of code blocks linked at concrete addresses, optionally on
 * top of an immutable, already-linked base program (the kernel text
 * several machines share). The base's blocks keep ids 0..K-1 and
 * this program's own blocks follow; every lookup sees both.
 */
class Program
{
  public:
    Program() = default;

    /** A program whose blocks follow those of the linked @p base. */
    explicit Program(std::shared_ptr<const Program> base);

    /**
     * Add a block; returns its block id. Names must be unique, the
     * base's included.
     */
    int add(CodeBlock block);

    /**
     * Drop this program's own blocks; the base stays. The program is
     * then as Program(base) left it, ready for other blocks.
     */
    void clear();

    /**
     * Link this program's own blocks: place them sequentially from
     * @p base_addr, each aligned to @p align bytes, and give every
     * Call its callee's block id. A base program keeps its layout,
     * so kernel text linked as a base at its own address never
     * perturbs user code placement.
     */
    void link(Addr base_addr = 0x08048000, Addr align = 16);

    bool linked() const { return isLinked; }

    std::size_t
    blockCount() const
    {
        return static_cast<std::size_t>(baseCount) + blocks.size();
    }

    const CodeBlock &
    block(int id) const
    {
        // Unsigned compare: a negative id is out of range, not base.
        if (static_cast<unsigned>(id) < static_cast<unsigned>(baseCount))
            return base->block(id);
        return blocks.at(static_cast<std::size_t>(id) -
                         static_cast<std::size_t>(baseCount));
    }

    /** Lookup a block id by symbol name; -1 if absent. */
    int find(const std::string &name) const;

    /** Entry point of a named block; panics if absent. */
    CodePtr entry(const std::string &name) const;

    /**
     * The instruction at @p ptr. A pc past its block's last record
     * (a block with no terminating instruction) is a guest fault:
     * throws StatusError(FailedPrecondition).
     */
    const Inst &inst(CodePtr ptr) const;

    /** Total byte size of all blocks (after link). */
    std::size_t
    bytes() const
    {
        return (base ? base->bytes() : 0) + totalBytes;
    }

    /** Full disassembly listing. */
    std::string disassemble() const;

  private:
    std::shared_ptr<const Program> base;
    int baseCount = 0; //!< base->blockCount(), for block()
    std::vector<CodeBlock> blocks;
    std::map<std::string, int> symbols;
    std::size_t totalBytes = 0;
    bool isLinked = false;
};

} // namespace pca::isa

#endif // PCA_ISA_PROGRAM_HH
