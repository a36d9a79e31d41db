/**
 * @file
 * Fluent builder for CodeBlocks, mirroring gcc inline-assembly use in
 * the paper: the micro-benchmarks and all library code paths are
 * written through this interface.
 */

#ifndef PCA_ISA_ASSEMBLER_HH
#define PCA_ISA_ASSEMBLER_HH

#include <string>

#include "isa/codeblock.hh"

namespace pca::isa
{

/**
 * Emits instructions into a CodeBlock. All methods return *this so
 * call sequences read like assembly listings:
 *
 * @code
 * Assembler a("loop_bench");
 * a.movImm(Reg::Eax, 0);
 * int loop = a.label();
 * a.addImm(Reg::Eax, 1)
 *  .cmpImm(Reg::Eax, max)
 *  .jne(loop);
 * CodeBlock block = a.take();
 * @endcode
 */
class Assembler
{
  public:
    explicit Assembler(std::string block_name);

    /** Create and immediately bind a label at the current position. */
    int label();

    /** Create an unbound forward label. */
    int forwardLabel();

    /** Bind a forward label at the current position. */
    Assembler &bind(int l);

    Assembler &movImm(Reg r, std::int64_t imm);
    Assembler &movReg(Reg dst, Reg src);
    Assembler &addImm(Reg r, std::int64_t imm);
    Assembler &addReg(Reg dst, Reg src);
    Assembler &subImm(Reg r, std::int64_t imm);
    Assembler &subReg(Reg dst, Reg src);
    Assembler &cmpImm(Reg r, std::int64_t imm);
    Assembler &cmpReg(Reg a, Reg b);
    Assembler &testReg(Reg a, Reg b);
    Assembler &xorReg(Reg dst, Reg src);
    Assembler &andImm(Reg r, std::int64_t imm);
    Assembler &orReg(Reg dst, Reg src);
    Assembler &shlImm(Reg r, std::int64_t imm);
    Assembler &shrImm(Reg r, std::int64_t imm);

    Assembler &load(Reg dst, Reg base, std::int64_t offset);
    Assembler &store(Reg src, Reg base, std::int64_t offset);
    Assembler &push(Reg r);
    Assembler &pop(Reg r);

    Assembler &jmp(int l);
    Assembler &je(int l);
    Assembler &jne(int l);
    Assembler &jl(int l);
    Assembler &jge(int l);
    Assembler &call(const std::string &callee);
    Assembler &ret();

    Assembler &rdtsc();
    Assembler &rdpmc();
    Assembler &rdmsr();
    Assembler &wrmsr();
    Assembler &syscall();
    Assembler &iret();

    /**
     * Emit @p n 1-byte Nops as one record (appended to a Nop record
     * right before it, unless a label is pending).
     */
    Assembler &nop(int n = 1);
    Assembler &cpuid();
    Assembler &halt();

    /** Emit a host escape (architecturally free). */
    Assembler &host(HostFn fn);

    /**
     * Emit @p count generic single-byte "work" nops, as nop() does,
     * representing straight-line code whose only relevant property
     * is its instruction count and byte footprint (library
     * internals).
     */
    Assembler &work(int count);

    /** Number of records emitted so far. */
    std::size_t size() const { return block.size(); }

    /** Finish and take the block (the assembler becomes empty). */
    CodeBlock take();

  private:
    Assembler &emit(Opcode op, Reg r1 = Reg::Eax, Reg r2 = Reg::Eax,
                    std::int64_t imm = 0, int label = -1);

    CodeBlock block;
};

} // namespace pca::isa

#endif // PCA_ISA_ASSEMBLER_HH
