#include "cpu/frontend.hh"

#include "support/logging.hh"

namespace pca::cpu
{

FrontEnd::FrontEnd(const MicroArch &arch)
    : arch(arch)
{
    // Fetch windows are aligned power-of-two regions; a shift keeps
    // the per-instruction window computation off the divider.
    pca_assert(arch.fetchBytes > 0 &&
               (arch.fetchBytes & (arch.fetchBytes - 1)) == 0);
    pca_assert(arch.decodeWidth > 0);
    windowShift = 0;
    while ((1 << windowShift) < arch.fetchBytes)
        ++windowShift;
}

Cycles
FrontEnd::onNops(Addr addr, Count n)
{
    const auto width = static_cast<Count>(arch.decodeWidth);
    Cycles c = 0;
    // k more instructions into the decode group: one cycle each
    // time it fills (onInst keeps issued below the width).
    auto issue = [&](Count k) {
        const Count group = static_cast<Count>(issued) + k;
        c += group / width;
        issued = static_cast<int>(group % width);
    };
    if (lsdOn) {
        // Streaming from the loop buffer: no fetch windows.
        issue(n);
        return c;
    }
    // A 1-byte instruction never spans two windows; each window the
    // run enters costs a cycle and restarts the decode group. Only
    // the first window can be the current one, so the run costs its
    // first window, then every later one afresh: the whole windows
    // between alike, and the last with what is left of the run.
    const Addr first = windowOf(addr);
    const Addr last = windowOf(addr + n - 1);
    if (first != curWindow) {
        ++c;
        issued = 0;
    }
    if (first == last) {
        issue(n);
    } else {
        issue(((first + 1) << windowShift) - addr);
        const auto bytes = static_cast<Count>(arch.fetchBytes);
        c += (last - first - 1) * (1 + bytes / width);
        ++c;
        issued = 0;
        issue(addr + n - (last << windowShift));
    }
    curWindow = last;
    return c;
}

void
FrontEnd::redirect(Addr target)
{
    curWindow = windowOf(target);
    issued = 0;
    lsdOn = false;
    lsdBranch = ~Addr{0};
}

void
FrontEnd::reset()
{
    curWindow = ~Addr{0};
    issued = 0;
    lsdOn = false;
    lsdBranch = ~Addr{0};
    replayToggle = false;
}

} // namespace pca::cpu
