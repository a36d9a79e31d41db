#include "isa/program.hh"

#include <sstream>

#include "support/logging.hh"
#include "support/status.hh"

namespace pca::isa
{

Program::Program(std::shared_ptr<const Program> base_prog)
    : base(std::move(base_prog))
{
    pca_assert(base && base->linked());
    baseCount = static_cast<int>(base->blockCount());
}

int
Program::add(CodeBlock block)
{
    if (find(block.name()) >= 0)
        pca_panic("duplicate block name '", block.name(), "'");
    const int id = static_cast<int>(blockCount());
    symbols.emplace(block.name(), id);
    blocks.push_back(std::move(block));
    isLinked = false;
    return id;
}

void
Program::clear()
{
    blocks.clear();
    symbols.clear();
    totalBytes = 0;
    isLinked = false;
}

void
Program::link(Addr base_addr, Addr align)
{
    pca_assert(align > 0 && (align & (align - 1)) == 0);
    Addr a = base_addr;
    totalBytes = 0;
    for (CodeBlock &blk : blocks) {
        a = (a + align - 1) & ~(align - 1);
        blk.layout(a);
        a += blk.bytes();
        totalBytes += blk.bytes();
    }
    // Calls resolve once every name is known; an unknown callee
    // stays -1 and faults when the call executes.
    for (CodeBlock &blk : blocks)
        blk.resolveCalls(
            [this](const std::string &name) { return find(name); });
    isLinked = true;
}

int
Program::find(const std::string &name) const
{
    auto it = symbols.find(name);
    if (it != symbols.end())
        return it->second;
    return base ? base->find(name) : -1;
}

CodePtr
Program::entry(const std::string &name) const
{
    const int id = find(name);
    if (id < 0)
        pca_panic("no block named '", name, "'");
    return CodePtr{id, 0};
}

const Inst &
Program::inst(CodePtr ptr) const
{
    const CodeBlock &blk = block(ptr.block);
    const auto i = static_cast<std::size_t>(ptr.index);
    if (i >= blk.size())
        throw StatusError(Status(StatusCode::FailedPrecondition,
                                 "ran off the end of block '" +
                                     blk.name() + "'"));
    return blk.data()[i];
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    if (base)
        os << base->disassemble();
    for (const auto &blk : blocks)
        os << blk.disassemble();
    return os.str();
}

} // namespace pca::isa
