#include "isa/program.hh"

#include <sstream>

#include "support/logging.hh"

namespace pca::isa
{

int
Program::add(CodeBlock block)
{
    if (symbols.count(block.name()))
        pca_panic("duplicate block name '", block.name(), "'");
    const int id = static_cast<int>(blocks.size());
    symbols.emplace(block.name(), id);
    blocks.push_back(std::move(block));
    blockSegments.push_back(0);
    isLinked = false;
    return id;
}

void
Program::setSegment(int block_id, int segment)
{
    pca_assert(block_id >= 0 &&
               block_id < static_cast<int>(blocks.size()));
    pca_assert(segment == 0 || segment == 1);
    blockSegments[static_cast<std::size_t>(block_id)] = segment;
}

void
Program::link(Addr base, Addr align)
{
    link2(base, 0xc0000000ULL, align);
}

void
Program::link2(Addr user_base, Addr kernel_base, Addr align)
{
    pca_assert(align > 0 && (align & (align - 1)) == 0);
    Addr cursor[2] = {user_base, kernel_base};
    totalBytes = 0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        Addr &a = cursor[static_cast<std::size_t>(blockSegments[i])];
        a = (a + align - 1) & ~(align - 1);
        blocks[i].layout(a);
        a += blocks[i].bytes();
        totalBytes += blocks[i].bytes();
    }
    decodedBlocks.resize(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i)
        decodedBlocks[i].build(blocks[i]);
    isLinked = true;
}

int
Program::find(const std::string &name) const
{
    auto it = symbols.find(name);
    return it == symbols.end() ? -1 : it->second;
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
    return blocks.at(ptr.block).inst(static_cast<std::size_t>(ptr.index));
}

std::string
Program::disassemble() const
{
    std::ostringstream os;
    for (const auto &blk : blocks)
        os << blk.disassemble();
    return os.str();
}

} // namespace pca::isa
