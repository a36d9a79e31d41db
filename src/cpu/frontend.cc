#include "cpu/frontend.hh"

#include <algorithm>

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
    // run enters costs a cycle and restarts the decode group.
    const Addr end = addr + n;
    for (Addr a = addr; a < end;) {
        const Addr w = windowOf(a);
        const Addr next = std::min(end, (w + 1) << windowShift);
        if (w != curWindow) {
            ++c;
            issued = 0;
            curWindow = w;
        }
        issue(next - a);
        a = next;
    }
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
