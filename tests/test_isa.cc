/**
 * @file
 * Unit tests for the ISA module: instructions, assembler, code
 * blocks, and the two-segment program linker.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/codeblock.hh"
#include "isa/context.hh"
#include "isa/inst.hh"
#include "isa/program.hh"

namespace pca::isa
{
namespace
{

TEST(Inst, DefaultSizesAreIa32Realistic)
{
    EXPECT_EQ(defaultSize(Opcode::MovImm), 5);
    EXPECT_EQ(defaultSize(Opcode::AddImm), 3);
    EXPECT_EQ(defaultSize(Opcode::CmpImm), 5);
    EXPECT_EQ(defaultSize(Opcode::Jne), 2);
    EXPECT_EQ(defaultSize(Opcode::Nop), 1);
    EXPECT_EQ(defaultSize(Opcode::HostOp), 0);
}

TEST(Inst, BranchClassification)
{
    EXPECT_TRUE(isBranch(Opcode::Jmp));
    EXPECT_TRUE(isBranch(Opcode::Jne));
    EXPECT_TRUE(isCondBranch(Opcode::Jne));
    EXPECT_FALSE(isCondBranch(Opcode::Jmp));
    EXPECT_FALSE(isBranch(Opcode::Call));
    EXPECT_FALSE(isBranch(Opcode::AddImm));
}

TEST(Inst, NamesExist)
{
    EXPECT_STREQ(opcodeName(Opcode::Rdpmc), "rdpmc");
    EXPECT_STREQ(regName(Reg::Eax), "eax");
    EXPECT_STREQ(regName(Reg::Esp), "esp");
}

TEST(Assembler, EmitsPaperLoop)
{
    Assembler a("loop");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 100).jne(loop);
    CodeBlock b = a.take();
    ASSERT_EQ(b.size(), 4u);
    EXPECT_EQ(b.inst(0).op, Opcode::MovImm);
    EXPECT_EQ(b.inst(3).op, Opcode::Jne);
}

TEST(Assembler, LabelResolvesToInstructionIndex)
{
    // A label bound between two nop() calls splits them into two
    // records, so it binds to the start of one: nop x2 | nop x1 | jne.
    Assembler a("blk");
    a.nop(2);
    int l = a.label();
    a.nop(1).jne(l);
    CodeBlock b = a.take();
    b.layout(0x1000);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b.inst(0).size, 2);
    EXPECT_EQ(b.inst(1).size, 1);
    EXPECT_EQ(b.inst(2).targetIndex, 1);
    EXPECT_EQ(b.inst(2).targetAddr, 0x1002u);
}

TEST(Assembler, ForwardLabelBindsLater)
{
    // jmp | nop x5 | nop x1: the label splits the Nops.
    Assembler a("fwd");
    int skip = a.forwardLabel();
    a.jmp(skip);
    a.nop(5);
    a.bind(skip);
    a.nop(1);
    CodeBlock b = a.take();
    b.layout(0);
    ASSERT_EQ(b.size(), 3u);
    EXPECT_EQ(b.inst(0).targetIndex, 2);
    EXPECT_EQ(b.inst(0).targetAddr, 7u);
}

TEST(Assembler, UnboundLabelPanicsAtLayout)
{
    Assembler a("bad");
    int l = a.forwardLabel();
    a.jmp(l);
    CodeBlock b = a.take();
    EXPECT_THROW(b.layout(0), std::logic_error);
}

TEST(Assembler, WorkEmitsNops)
{
    // work(7) is one record standing for seven 1-byte Nops.
    Assembler a("w");
    a.work(7);
    CodeBlock b = a.take();
    b.layout(0x2000);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_EQ(b.inst(0).op, Opcode::Nop);
    EXPECT_EQ(b.inst(0).size, 7);
    EXPECT_EQ(b.bytes(), 7u);
    EXPECT_NE(b.disassemble().find("nop x7"), std::string::npos);
}

/** A CpuContext for callbacks that ignore it. */
struct NullContext : CpuContext
{
    std::uint64_t getReg(Reg) const override { return 0; }
    void setReg(Reg, std::uint64_t) override {}
    void jumpTo(int) override {}
    Mode mode() const override { return Mode::User; }
    Cycles cycles() const override { return 0; }
};

TEST(Assembler, HostOpCarriesCallback)
{
    Assembler a("h");
    bool ran = false;
    a.host([&ran](CpuContext &) { ran = true; });
    CodeBlock b = a.take();
    ASSERT_EQ(b.size(), 1u);
    EXPECT_FALSE(ran);
    NullContext ctx;
    b.host(b.inst(0))(ctx);
    EXPECT_TRUE(ran);
}

TEST(CodeBlockTest, LayoutAssignsConsecutiveAddresses)
{
    Assembler a("addr");
    a.movImm(Reg::Eax, 0); // 5 bytes
    int l = a.label();
    a.addImm(Reg::Eax, 1)  // 3 bytes
        .cmpImm(Reg::Eax, 9) // 5 bytes
        .jne(l);             // 2 bytes
    CodeBlock b = a.take();
    b.layout(0x08048000);
    EXPECT_EQ(b.inst(0).addr, 0x08048000u);
    EXPECT_EQ(b.inst(1).addr, 0x08048005u);
    EXPECT_EQ(b.inst(2).addr, 0x08048008u);
    EXPECT_EQ(b.inst(3).addr, 0x0804800du);
    EXPECT_EQ(b.bytes(), 15u);
}

TEST(CodeBlockTest, LoopBodyIsTenBytes)
{
    // The Figure 3 loop body (add/cmp/jne) spans 10 bytes — the size
    // that makes 16-byte fetch-window splits placement dependent.
    Assembler a("loop");
    a.movImm(Reg::Eax, 0);
    int l = a.label();
    a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 5).jne(l);
    CodeBlock b = a.take();
    b.layout(0);
    EXPECT_EQ(b.inst(3).addr + static_cast<Addr>(b.inst(3).size) -
                  b.inst(1).addr,
              10u);
}

TEST(CodeBlockTest, DisassembleMentionsOpcodes)
{
    Assembler a("d");
    a.movImm(Reg::Ebx, 7).rdpmc().call("f").ret();
    CodeBlock b = a.take();
    b.layout(0);
    const std::string dis = b.disassemble();
    EXPECT_NE(dis.find("mov_imm ebx, $7"), std::string::npos);
    EXPECT_NE(dis.find("rdpmc"), std::string::npos);
    EXPECT_NE(dis.find("call f"), std::string::npos);
}

TEST(ProgramTest, EntryAndFind)
{
    Program p;
    Assembler a("main");
    a.halt();
    p.add(a.take());
    Assembler b("other");
    b.ret();
    p.add(b.take());
    p.link();
    EXPECT_EQ(p.find("main"), 0);
    EXPECT_EQ(p.find("other"), 1);
    EXPECT_EQ(p.find("missing"), -1);
    EXPECT_EQ(p.entry("other").block, 1);
    EXPECT_THROW(p.entry("missing"), std::logic_error);
}

TEST(ProgramTest, DuplicateNamesPanic)
{
    Program p;
    Assembler a1("dup");
    a1.halt();
    p.add(a1.take());
    Assembler a2("dup");
    a2.halt();
    EXPECT_THROW(p.add(a2.take()), std::logic_error);
}

TEST(ProgramTest, BlocksAlignedTo16)
{
    Program p;
    Assembler a("a");
    a.nop(3); // 3 bytes
    p.add(a.take());
    Assembler b("b");
    b.nop(1);
    p.add(b.take());
    p.link(0x1000, 16);
    EXPECT_EQ(p.block(0).baseAddr(), 0x1000u);
    EXPECT_EQ(p.block(1).baseAddr(), 0x1010u);
}

TEST(ProgramTest, UserOffsetShiftsOnlyUserText)
{
    // Kernel text is its own program, linked once at 0xc0000000;
    // user text links over it at its own base.
    auto kernel = std::make_shared<Program>();
    Assembler k("k");
    k.nop(4);
    const int kid = kernel->add(k.take());
    kernel->link(0xc0000000);
    auto build = [&](Addr off) {
        Program p(kernel);
        Assembler u("u");
        u.nop(4);
        const int uid = p.add(u.take());
        p.link(0x08048000 + off);
        return std::pair{p.block(kid).baseAddr(),
                         p.block(uid).baseAddr()};
    };
    const auto [k0, u0] = build(0);
    const auto [k1, u1] = build(64);
    EXPECT_EQ(k0, k1);
    EXPECT_EQ(u1, u0 + 64);
}

TEST(ProgramTest, InstLookup)
{
    Program p;
    Assembler a("main");
    a.movImm(Reg::Ecx, 3).halt();
    p.add(a.take());
    p.link();
    EXPECT_EQ(p.inst({0, 0}).op, Opcode::MovImm);
    EXPECT_EQ(p.inst({0, 1}).op, Opcode::Halt);
}

} // namespace
} // namespace pca::isa
