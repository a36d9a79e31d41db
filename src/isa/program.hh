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
#include <string>
#include <vector>

#include "isa/codeblock.hh"

namespace pca::isa
{

/** Location of an instruction: block id plus index within it. */
struct CodePtr
{
    int block = -1;
    int index = 0;

    bool valid() const { return block >= 0; }
    bool operator==(const CodePtr &o) const = default;
};

/** A set of code blocks linked at concrete addresses. */
class Program
{
  public:
    Program() = default;

    /** Add a block; returns its block id. Names must be unique. */
    int add(CodeBlock block);

    /**
     * Assign a block to a segment (default 0). Segment 0 is user
     * text, segment 1 kernel text; they link at separate bases so
     * that kernel code size never perturbs user code placement.
     */
    void setSegment(int block_id, int segment);

    /**
     * Link all blocks: place them sequentially within their segment
     * starting at the segment's base, each block aligned to
     * @p align bytes.
     */
    void link(Addr base = 0x08048000, Addr align = 16);

    /** Two-segment link: user text at @p user_base, kernel text at
     * @p kernel_base. */
    void link2(Addr user_base, Addr kernel_base, Addr align = 16);

    bool linked() const { return isLinked; }

    std::size_t blockCount() const { return blocks.size(); }
    const CodeBlock &block(int id) const { return blocks.at(id); }
    CodeBlock &block(int id) { return blocks.at(id); }

    /** Lookup a block id by symbol name; -1 if absent. */
    int find(const std::string &name) const;

    /** Entry point of a named block; panics if absent. */
    CodePtr entry(const std::string &name) const;

    /** The instruction at @p ptr. */
    const Inst &inst(CodePtr ptr) const;

    /** Total byte size of all blocks (after link). */
    std::size_t bytes() const { return totalBytes; }

    /** Full disassembly listing. */
    std::string disassemble() const;

  private:
    std::vector<CodeBlock> blocks;
    std::vector<int> blockSegments;
    std::map<std::string, int> symbols;
    std::size_t totalBytes = 0;
    bool isLinked = false;
};

} // namespace pca::isa

#endif // PCA_ISA_PROGRAM_HH
