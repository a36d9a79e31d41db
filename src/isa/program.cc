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
    blockSegments.push_back(0);
    isLinked = false;
    return id;
}

void
Program::setSegment(int block_id, int segment)
{
    pca_assert(block_id >= baseCount &&
               block_id < static_cast<int>(blockCount()));
    pca_assert(segment == 0 || segment == 1);
    blockSegments[static_cast<std::size_t>(block_id - baseCount)] =
        segment;
}

void
Program::link(Addr base_addr, Addr align)
{
    link2(base_addr, 0xc0000000ULL, align);
}

void
Program::link2(Addr user_base, Addr kernel_base, Addr align)
{
    pca_assert(align > 0 && (align & (align - 1)) == 0);
    Addr cursor[2] = {user_base, kernel_base};
    totalBytes = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        // The base owns the kernel segment: its layout is final.
        pca_assert(!base || blockSegments[i] == 0);
        Addr &a = cursor[static_cast<std::size_t>(blockSegments[i])];
        a = (a + align - 1) & ~(align - 1);
        blocks[i].layout(a);
        a += blocks[i].bytes();
        totalBytes += blocks[i].bytes();
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
