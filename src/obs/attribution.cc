#include "obs/attribution.hh"

namespace pca::obs
{

const char *
attrClassName(AttrClass c)
{
    switch (c) {
      case AttrClass::User: return "user";
      case AttrClass::Syscall: return "syscall";
      case AttrClass::Timer: return "timer";
      case AttrClass::Io: return "io";
      case AttrClass::Preempt: return "preempt";
      case AttrClass::Pmi: return "pmi";
      case AttrClass::NumClasses: break;
    }
    return "?";
}

AttrClass
attrClassForVector(int vector)
{
    switch (vector) {
      case 0: return AttrClass::Timer;
      case 1: return AttrClass::Io;
      case 2: return AttrClass::Pmi;
    }
    return AttrClass::Pmi;
}

Count
modeTotal(const ModeAttrCounts &split, PlMask pl)
{
    Count n = 0;
    for (Mode m : {Mode::User, Mode::Kernel})
        if (plMaskIncludes(pl, m))
            for (Count c : split[static_cast<std::size_t>(m)])
                n += c;
    return n;
}

AttrCounts
classSplit(const ModeAttrCounts &split, PlMask pl)
{
    AttrCounts out{};
    for (Mode m : {Mode::User, Mode::Kernel})
        if (plMaskIncludes(pl, m))
            for (std::size_t c = 0; c < numAttrClasses; ++c)
                out[c] += split[static_cast<std::size_t>(m)][c];
    return out;
}

ErrorAttribution
attributeError(const AttrCounts &c0, const AttrCounts &c1,
               Count expected)
{
    auto delta = [&](AttrClass c) {
        const auto i = static_cast<std::size_t>(c);
        return static_cast<SCount>(c1[i]) - static_cast<SCount>(c0[i]);
    };
    ErrorAttribution a;
    a.patternOverhead = delta(AttrClass::User) -
        static_cast<SCount>(expected) + delta(AttrClass::Syscall);
    a.timerInterrupts = delta(AttrClass::Timer);
    a.ioInterrupts = delta(AttrClass::Io);
    a.preemption = delta(AttrClass::Preempt);
    a.other = delta(AttrClass::Pmi);
    return a;
}

std::ostream &
operator<<(std::ostream &os, const ErrorAttribution &a)
{
    return os << "pattern=" << a.patternOverhead
              << " timer=" << a.timerInterrupts
              << " io=" << a.ioInterrupts
              << " preempt=" << a.preemption << " other=" << a.other;
}

} // namespace pca::obs
