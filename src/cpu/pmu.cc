#include "cpu/pmu.hh"

#include "support/logging.hh"
#include "support/status.hh"

namespace pca::cpu
{

Pmu::Pmu(const MicroArch &arch)
    : prog(static_cast<std::size_t>(arch.progCounters)),
      fixed(static_cast<std::size_t>(arch.fixedCounters)),
      readLatch(static_cast<std::size_t>(arch.progCounters))
{
    // Fixed-function counters have hardwired events (Core2 layout):
    // FIXED_CTR0 = instructions retired, 1 = core cycles, 2 = cycles
    // (reference, approximated as core cycles at a fixed governor).
    if (!fixed.empty())
        fixed[0].event = EventType::InstrRetired;
    if (fixed.size() > 1)
        fixed[1].event = EventType::CpuClkUnhalted;
    if (fixed.size() > 2)
        fixed[2].event = EventType::CpuClkUnhalted;
    // The active sets are 32-bit masks over counter indexes.
    pca_assert(prog.size() <= 32 && fixed.size() <= 32);
    rebuildActive();
}

std::uint64_t
Pmu::encodeEvtSel(EventType ev, PlMask pl, bool enable)
{
    std::uint64_t sel = static_cast<std::uint64_t>(ev) & 0xff;
    if (plMaskIncludes(pl, Mode::User))
        sel |= selUsrBit;
    if (plMaskIncludes(pl, Mode::Kernel))
        sel |= selOsBit;
    if (enable)
        sel |= selEnableBit;
    return sel;
}

EventType
Pmu::decodeEvent(std::uint64_t sel)
{
    const auto id = static_cast<std::uint8_t>(sel & 0xff);
    if (id >= numEvents)
        throw StatusError(Status(
            StatusCode::InvalidArgument,
            detail::cat("bad event id ", static_cast<int>(id),
                        " in event select")));
    return static_cast<EventType>(id);
}

void
Pmu::wrmsr(std::uint32_t msr, std::uint64_t value)
{
    if (msr == msrTsc) {
        tsc = value;
        return;
    }
    if (msr >= msrEvtSelBase &&
        msr < msrEvtSelBase + prog.size()) {
        Counter &c = prog[msr - msrEvtSelBase];
        c.event = decodeEvent(value);
        PlMask pl = PlMask::None;
        if (value & selUsrBit)
            pl = pl | PlMask::User;
        if (value & selOsBit)
            pl = pl | PlMask::Kernel;
        c.pl = pl;
        c.enabled = (value & selEnableBit) != 0;
        rebuildActive();
        return;
    }
    if (msr >= msrPmcBase && msr < msrPmcBase + prog.size()) {
        Counter &c = prog[msr - msrPmcBase];
        c.value = value;
        // A value write re-bases the counter: the split tracks only
        // events counted since, so its sum == value - base.
        c.split = {};
        return;
    }
    if (msr >= msrFixedCtrBase &&
        msr < msrFixedCtrBase + fixed.size()) {
        Counter &c = fixed[msr - msrFixedCtrBase];
        c.value = value;
        c.split = {};
        return;
    }
    if (msr == msrFixedCtrCtrl) {
        // 4 bits per fixed counter: bit0 OS, bit1 USR (IA32 layout).
        for (std::size_t i = 0; i < fixed.size(); ++i) {
            const auto nib = (value >> (4 * i)) & 0xf;
            PlMask pl = PlMask::None;
            if (nib & 1)
                pl = pl | PlMask::Kernel;
            if (nib & 2)
                pl = pl | PlMask::User;
            fixed[i].pl = pl;
            fixed[i].enabled = (nib & 3) != 0;
        }
        rebuildActive();
        return;
    }
    throw StatusError(
        Status(StatusCode::NotFound,
               detail::cat("wrmsr to unknown MSR 0x", std::hex, msr)));
}

std::uint64_t
Pmu::rdmsr(std::uint32_t msr) const
{
    if (msr == msrTsc)
        return tsc;
    if (msr >= msrEvtSelBase && msr < msrEvtSelBase + prog.size()) {
        const Counter &c = prog[msr - msrEvtSelBase];
        return encodeEvtSel(c.event, c.pl, c.enabled);
    }
    if (msr >= msrPmcBase && msr < msrPmcBase + prog.size())
        return prog[msr - msrPmcBase].value & widthMask;
    if (msr >= msrFixedCtrBase && msr < msrFixedCtrBase + fixed.size())
        return fixed[msr - msrFixedCtrBase].value & widthMask;
    throw StatusError(
        Status(StatusCode::NotFound,
               detail::cat("rdmsr of unknown MSR 0x", std::hex, msr)));
}

std::uint64_t
Pmu::rdpmc(std::uint64_t select) const
{
    if (select & rdpmcFixedBit) {
        const auto i = static_cast<std::size_t>(select & ~rdpmcFixedBit);
        if (i >= fixed.size())
            throw StatusError(
                Status(StatusCode::NotFound,
                       detail::cat("rdpmc: no fixed counter ", i)));
        return fixed[i].value & widthMask;
    }
    if (select >= prog.size())
        throw StatusError(Status(
            StatusCode::NotFound,
            detail::cat("rdpmc: no programmable counter ", select)));
    const auto i = static_cast<std::size_t>(select);
    // Latch the split alongside the value so a capture a few
    // instructions later can attribute exactly this reading.
    readLatch[i] = prog[i].split;
    const Count v = prog[i].value & widthMask;
    return readTamper ? readTamper(v) : v;
}

void
Pmu::setCounterWidth(int bits)
{
    pca_assert(bits >= 8 && bits <= 64);
    widthBits = bits;
    widthMask = bits == 64 ? ~Count{0} : (Count{1} << bits) - 1;
}

void
Pmu::countSlow(EventType ev, Mode mode, Count n)
{
    const auto e = static_cast<std::size_t>(ev);
    const auto m = static_cast<std::size_t>(mode);
    const auto cls = static_cast<std::size_t>(attrCls);
    for (std::uint32_t bits = activeProg[e][m]; bits != 0;
         bits &= bits - 1) {
        const int i = __builtin_ctz(bits);
        Counter &c = prog[static_cast<std::size_t>(i)];
        c.value += n;
        c.split[m][cls] += n;
        if (c.samplePeriod != 0 && c.value >= c.samplePeriod) {
            // Overflow: re-arm and latch the PMI.
            c.value -= c.samplePeriod;
            pendingMask |= 1ULL << i;
        }
    }
    for (std::uint32_t bits = activeFixed[e][m]; bits != 0;
         bits &= bits - 1) {
        Counter &c = fixed[static_cast<std::size_t>(__builtin_ctz(bits))];
        c.value += n;
        c.split[m][cls] += n;
    }
}

void
Pmu::setSamplePeriod(int i, Count period)
{
    Counter &c = prog.at(static_cast<std::size_t>(i));
    c.samplePeriod = period;
    c.value = 0;
    c.split = {};
    if (period != 0)
        armedMask |= 1ULL << i;
    else
        armedMask &= ~(1ULL << i);
    pendingMask &= ~(1ULL << i);
}

int
Pmu::takeOverflow()
{
    if (pendingMask == 0)
        return -1;
    const int i = __builtin_ctzll(pendingMask);
    pendingMask &= ~(1ULL << i);
    return i;
}

const Pmu::Counter &
Pmu::progCounter(int i) const
{
    return prog.at(static_cast<std::size_t>(i));
}

void
Pmu::setProgValue(int i, Count v)
{
    // Context restore: the counter logically continues, so the class
    // split is preserved (unlike a wrmsr reset).
    prog.at(static_cast<std::size_t>(i)).value = v;
}

const obs::ModeAttrCounts &
Pmu::attrLatch(int i) const
{
    return readLatch.at(static_cast<std::size_t>(i));
}

void
Pmu::reset()
{
    for (auto &c : prog)
        c = Counter{};
    armedMask = 0;
    pendingMask = 0;
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        const EventType ev = fixed[i].event;
        fixed[i] = Counter{};
        fixed[i].event = ev;
    }
    attrCls = obs::AttrClass::User;
    for (auto &latch : readLatch)
        latch = {};
    tsc = 0;
    rebuildActive();
}

void
Pmu::rebuildActive()
{
    auto masks = [](const std::vector<Counter> &ctrs) {
        ActiveMasks table{};
        for (std::size_t i = 0; i < ctrs.size(); ++i) {
            const Counter &c = ctrs[i];
            if (!c.enabled)
                continue;
            const auto e = static_cast<std::size_t>(c.event);
            for (Mode m : {Mode::User, Mode::Kernel})
                if (plMaskIncludes(c.pl, m))
                    table[e][static_cast<std::size_t>(m)] |=
                        std::uint32_t{1} << i;
        }
        return table;
    };
    activeProg = masks(prog);
    activeFixed = masks(fixed);

    activeAnyMask = {0, 0};
    static_assert(numEvents <= 64);
    for (std::size_t e = 0; e < numEvents; ++e)
        for (std::size_t m = 0; m < 2; ++m)
            if ((activeProg[e][m] | activeFixed[e][m]) != 0)
                activeAnyMask[m] |= std::uint64_t{1} << e;
}

} // namespace pca::cpu
