#include "isa/assembler.hh"

#include <utility>

#include "support/logging.hh"

namespace pca::isa
{

Assembler::Assembler(std::string block_name)
    : block(std::move(block_name))
{
}

Assembler &
Assembler::emit(Opcode op, Reg r1, Reg r2, std::int64_t imm, int label)
{
    block.append(op, r1, r2, imm, label);
    return *this;
}

int
Assembler::label()
{
    const int l = block.newLabel();
    block.bind(l);
    return l;
}

int
Assembler::forwardLabel()
{
    return block.newLabel();
}

Assembler &
Assembler::bind(int l)
{
    block.bind(l);
    return *this;
}

Assembler &
Assembler::movImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::MovImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::movReg(Reg dst, Reg src)
{
    return emit(Opcode::MovReg, dst, src);
}

Assembler &
Assembler::addImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::AddImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::addReg(Reg dst, Reg src)
{
    return emit(Opcode::AddReg, dst, src);
}

Assembler &
Assembler::subImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::SubImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::subReg(Reg dst, Reg src)
{
    return emit(Opcode::SubReg, dst, src);
}

Assembler &
Assembler::cmpImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::CmpImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::cmpReg(Reg a, Reg b)
{
    return emit(Opcode::CmpReg, a, b);
}

Assembler &
Assembler::testReg(Reg a, Reg b)
{
    return emit(Opcode::TestReg, a, b);
}

Assembler &
Assembler::xorReg(Reg dst, Reg src)
{
    return emit(Opcode::XorReg, dst, src);
}

Assembler &
Assembler::andImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::AndImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::orReg(Reg dst, Reg src)
{
    return emit(Opcode::OrReg, dst, src);
}

Assembler &
Assembler::shlImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::ShlImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::shrImm(Reg r, std::int64_t imm)
{
    return emit(Opcode::ShrImm, r, Reg::Eax, imm);
}

Assembler &
Assembler::load(Reg dst, Reg base, std::int64_t offset)
{
    return emit(Opcode::Load, dst, base, offset);
}

Assembler &
Assembler::store(Reg src, Reg base, std::int64_t offset)
{
    return emit(Opcode::Store, src, base, offset);
}

Assembler &
Assembler::push(Reg r)
{
    return emit(Opcode::Push, r);
}

Assembler &
Assembler::pop(Reg r)
{
    return emit(Opcode::Pop, r);
}

Assembler &
Assembler::jmp(int l)
{
    return emit(Opcode::Jmp, Reg::Eax, Reg::Eax, 0, l);
}

Assembler &
Assembler::je(int l)
{
    return emit(Opcode::Je, Reg::Eax, Reg::Eax, 0, l);
}

Assembler &
Assembler::jne(int l)
{
    return emit(Opcode::Jne, Reg::Eax, Reg::Eax, 0, l);
}

Assembler &
Assembler::jl(int l)
{
    return emit(Opcode::Jl, Reg::Eax, Reg::Eax, 0, l);
}

Assembler &
Assembler::jge(int l)
{
    return emit(Opcode::Jge, Reg::Eax, Reg::Eax, 0, l);
}

Assembler &
Assembler::call(const std::string &callee)
{
    block.appendCall(callee);
    return *this;
}

Assembler &
Assembler::ret()
{
    return emit(Opcode::Ret);
}

Assembler &
Assembler::rdtsc()
{
    return emit(Opcode::Rdtsc);
}

Assembler &
Assembler::rdpmc()
{
    return emit(Opcode::Rdpmc);
}

Assembler &
Assembler::rdmsr()
{
    return emit(Opcode::Rdmsr);
}

Assembler &
Assembler::wrmsr()
{
    return emit(Opcode::Wrmsr);
}

Assembler &
Assembler::syscall()
{
    return emit(Opcode::Syscall);
}

Assembler &
Assembler::iret()
{
    return emit(Opcode::Iret);
}

Assembler &
Assembler::nop(int n)
{
    pca_assert(n >= 0);
    if (n > 0)
        block.appendNops(n);
    return *this;
}

Assembler &
Assembler::cpuid()
{
    return emit(Opcode::Cpuid);
}

Assembler &
Assembler::halt()
{
    return emit(Opcode::Halt);
}

Assembler &
Assembler::host(HostFn fn)
{
    block.appendHost(std::move(fn));
    return *this;
}

Assembler &
Assembler::work(int count)
{
    return nop(count);
}

CodeBlock
Assembler::take()
{
    CodeBlock out = std::move(block);
    block = CodeBlock(out.name() + "+cont");
    return out;
}

} // namespace pca::isa
