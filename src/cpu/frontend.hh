/**
 * @file
 * Front-end timing model: fetch-window and decode-group accounting.
 *
 * This is the mechanism behind Section 6 of the paper: the cycle cost
 * of the measured loop depends on where the linker placed it. A loop
 * body that straddles a fetch window costs an extra fetch cycle per
 * iteration; Core2's loop-stream detector hides the taken-branch
 * redirect when the loop fits in one cache line; NetBurst's trace
 * cache alternates free and one-cycle redirects and pays a rebuild
 * penalty for unfavourably placed loops. The result: cycles per
 * iteration of the same instruction sequence vary between 1.5 and 4
 * across placements, exactly the bimodality Figures 10-12 show.
 */

#ifndef PCA_CPU_FRONTEND_HH
#define PCA_CPU_FRONTEND_HH

#include "cpu/microarch.hh"
#include "support/types.hh"

namespace pca::cpu
{

/**
 * Additive front-end cycle model.
 *
 * Cycles are charged per instruction for (a) entering a new aligned
 * fetch window, (b) an instruction spanning two windows, and (c)
 * filling a decode group; plus a redirect bubble at taken branches.
 * The model is deliberately additive (no overlap modelling): it is
 * deterministic, cheap, and reproduces the placement sensitivity that
 * matters for the study.
 */
class FrontEnd
{
  public:
    explicit FrontEnd(const MicroArch &arch);

    /**
     * Account for fetching/decoding one instruction. Inline: this is
     * the single hottest call in the interpreter (once per simulated
     * instruction, decoded or not).
     */
    Cycles onInst(Addr addr, int size)
    {
        const Addr w0 = windowOf(addr);
        const Addr w1 = windowOf(addr + static_cast<Addr>(size) - 1);
        Cycles c = 0;
        if (!lsdOn) {
            if (w0 != curWindow) {
                ++c;
                issued = 0;
            }
            if (w1 != w0) {
                ++c;
                issued = 0;
            }
            curWindow = w1;
        }
        ++issued;
        if (issued >= arch.decodeWidth) {
            ++c;
            issued = 0;
        }
        return c;
    }

    /**
     * Account for a taken branch: flush the partial decode group,
     * pay the redirect bubble, and steer fetch to @p target.
     *
     * @param branch_addr address of the branch instruction
     * @param branch_end first byte after the branch instruction
     * @param target branch target address
     *
     * Inline: once per taken branch, i.e. once per loop iteration on
     * the workloads the paper sweeps.
     */
    Cycles onTakenBranch(Addr branch_addr, Addr branch_end,
                         Addr target)
    {
        Cycles c = 0;
        // Flush the partial decode group.
        if (issued > 0) {
            ++c;
            issued = 0;
        }

        // Loop-stream detector (Core2): a backward branch whose whole
        // body sits inside one i-cache line can stream from the loop
        // buffer — no fetch, no redirect bubble.
        if (arch.loopStreamDetector && target < branch_addr) {
            const Addr span = branch_end - target;
            const auto line = static_cast<Addr>(arch.icacheLineBytes);
            const bool fits = span
                <= static_cast<Addr>(arch.lsdMaxInsts) * 4 &&
                (target / line) == ((branch_end - 1) / line);
            if (fits && branch_addr == lsdBranch) {
                lsdOn = true;
                return c; // streaming: no bubble
            }
            lsdBranch = fits ? branch_addr : ~Addr{0};
            lsdOn = false;
        } else {
            lsdOn = false;
            lsdBranch = ~Addr{0};
        }

        if (arch.traceCacheReplay) {
            // NetBurst: a loop head in the upper half of a 128-byte
            // trace-cache region forces a trace rebuild every
            // iteration; otherwise the redirect costs a cycle only
            // every other iteration (double-pumped front end).
            const bool rebuild = (target >> 6) & 1;
            if (rebuild) {
                c += 2;
            } else {
                replayToggle = !replayToggle;
                c += replayToggle ? 1 : 0;
            }
        } else {
            c += static_cast<Cycles>(arch.redirectBubble);
        }

        curWindow = windowOf(target);
        return c;
    }

    /** Steer fetch without a bubble (call/ret/trap paths). */
    void redirect(Addr target);

    /** Is the loop-stream detector currently feeding the decoder? */
    bool lsdActive() const { return lsdOn; }

    void reset();

  private:
    const MicroArch &arch;

    int windowShift;           //!< log2(arch.fetchBytes)
    Addr curWindow = ~Addr{0}; //!< current aligned fetch window id
    int issued = 0;            //!< instructions in current decode group
    bool lsdOn = false;
    Addr lsdBranch = ~Addr{0}; //!< candidate loop branch address
    bool replayToggle = false; //!< NetBurst alternate-cycle redirect

    Addr windowOf(Addr a) const { return a >> windowShift; }
};

} // namespace pca::cpu

#endif // PCA_CPU_FRONTEND_HH
