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
Assembler::emit(Inst inst)
{
    block.append(inst);
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

namespace
{

Inst
ri(Opcode op, Reg r, std::int64_t imm)
{
    Inst i;
    i.op = op;
    i.r1 = r;
    i.imm = imm;
    return i;
}

Inst
rr(Opcode op, Reg a, Reg b)
{
    Inst i;
    i.op = op;
    i.r1 = a;
    i.r2 = b;
    return i;
}

Inst
jump(Opcode op, int l)
{
    Inst i;
    i.op = op;
    i.label = l;
    return i;
}

Inst
bare(Opcode op)
{
    Inst i;
    i.op = op;
    return i;
}

} // namespace

Assembler &
Assembler::movImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::MovImm, r, imm));
}

Assembler &
Assembler::movReg(Reg dst, Reg src)
{
    return emit(rr(Opcode::MovReg, dst, src));
}

Assembler &
Assembler::addImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::AddImm, r, imm));
}

Assembler &
Assembler::addReg(Reg dst, Reg src)
{
    return emit(rr(Opcode::AddReg, dst, src));
}

Assembler &
Assembler::subImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::SubImm, r, imm));
}

Assembler &
Assembler::subReg(Reg dst, Reg src)
{
    return emit(rr(Opcode::SubReg, dst, src));
}

Assembler &
Assembler::cmpImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::CmpImm, r, imm));
}

Assembler &
Assembler::cmpReg(Reg a, Reg b)
{
    return emit(rr(Opcode::CmpReg, a, b));
}

Assembler &
Assembler::testReg(Reg a, Reg b)
{
    return emit(rr(Opcode::TestReg, a, b));
}

Assembler &
Assembler::xorReg(Reg dst, Reg src)
{
    return emit(rr(Opcode::XorReg, dst, src));
}

Assembler &
Assembler::andImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::AndImm, r, imm));
}

Assembler &
Assembler::orReg(Reg dst, Reg src)
{
    return emit(rr(Opcode::OrReg, dst, src));
}

Assembler &
Assembler::shlImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::ShlImm, r, imm));
}

Assembler &
Assembler::shrImm(Reg r, std::int64_t imm)
{
    return emit(ri(Opcode::ShrImm, r, imm));
}

Assembler &
Assembler::load(Reg dst, Reg base, std::int64_t offset)
{
    Inst i;
    i.op = Opcode::Load;
    i.r1 = dst;
    i.r2 = base;
    i.imm = offset;
    return emit(i);
}

Assembler &
Assembler::store(Reg src, Reg base, std::int64_t offset)
{
    Inst i;
    i.op = Opcode::Store;
    i.r1 = src;
    i.r2 = base;
    i.imm = offset;
    return emit(i);
}

Assembler &
Assembler::push(Reg r)
{
    return emit(ri(Opcode::Push, r, 0));
}

Assembler &
Assembler::pop(Reg r)
{
    return emit(ri(Opcode::Pop, r, 0));
}

Assembler &
Assembler::jmp(int l)
{
    return emit(jump(Opcode::Jmp, l));
}

Assembler &
Assembler::je(int l)
{
    return emit(jump(Opcode::Je, l));
}

Assembler &
Assembler::jne(int l)
{
    return emit(jump(Opcode::Jne, l));
}

Assembler &
Assembler::jl(int l)
{
    return emit(jump(Opcode::Jl, l));
}

Assembler &
Assembler::jge(int l)
{
    return emit(jump(Opcode::Jge, l));
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
    return emit(bare(Opcode::Ret));
}

Assembler &
Assembler::rdtsc()
{
    return emit(bare(Opcode::Rdtsc));
}

Assembler &
Assembler::rdpmc()
{
    return emit(bare(Opcode::Rdpmc));
}

Assembler &
Assembler::rdmsr()
{
    return emit(bare(Opcode::Rdmsr));
}

Assembler &
Assembler::wrmsr()
{
    return emit(bare(Opcode::Wrmsr));
}

Assembler &
Assembler::syscall()
{
    return emit(bare(Opcode::Syscall));
}

Assembler &
Assembler::iret()
{
    return emit(bare(Opcode::Iret));
}

Assembler &
Assembler::nop(int n)
{
    pca_assert(n >= 0);
    if (n == 0)
        return *this;
    Inst i = bare(Opcode::Nop);
    i.size = n;
    return emit(i);
}

Assembler &
Assembler::cpuid()
{
    return emit(bare(Opcode::Cpuid));
}

Assembler &
Assembler::halt()
{
    return emit(bare(Opcode::Halt));
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
