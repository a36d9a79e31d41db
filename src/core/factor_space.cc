#include "core/factor_space.hh"

#include "support/logging.hh"

namespace pca::core
{

using harness::AccessPattern;
using harness::CountingMode;
using harness::Interface;

const std::vector<cpu::EventType> &
defaultExtraEvents()
{
    static const std::vector<cpu::EventType> menu = {
        cpu::EventType::BrInstRetired,
        cpu::EventType::IcacheMiss,
        cpu::EventType::BrMispRetired,
        cpu::EventType::ItlbMiss,
        cpu::EventType::DcacheAccess,
    };
    return menu;
}

harness::HarnessConfig
FactorPoint::toHarnessConfig(std::uint64_t seed) const
{
    harness::HarnessConfig cfg;
    cfg.processor = processor;
    cfg.iface = iface;
    cfg.pattern = pattern;
    cfg.mode = mode;
    cfg.optLevel = optLevel;
    cfg.tsc = tsc;
    cfg.seed = seed;
    pca_assert(numCounters >= 1);
    const auto &menu = defaultExtraEvents();
    for (int i = 0; i + 1 < numCounters; ++i)
        cfg.extraEvents.push_back(
            menu[static_cast<std::size_t>(i) % menu.size()]);
    return cfg;
}

FactorSpace::FactorSpace()
    : procs(cpu::allProcessors()),
      ifaces(harness::allInterfaces()),
      pats(harness::allPatterns()),
      modeList({CountingMode::UserKernel, CountingMode::User}),
      opts({0, 1, 2, 3}),
      nctrs({1}),
      tscs({true})
{
}

FactorSpace &
FactorSpace::processors(std::vector<cpu::Processor> v)
{
    procs = std::move(v);
    return *this;
}

FactorSpace &
FactorSpace::interfaces(std::vector<Interface> v)
{
    ifaces = std::move(v);
    return *this;
}

FactorSpace &
FactorSpace::patterns(std::vector<AccessPattern> v)
{
    pats = std::move(v);
    return *this;
}

FactorSpace &
FactorSpace::modes(std::vector<CountingMode> v)
{
    modeList = std::move(v);
    return *this;
}

FactorSpace &
FactorSpace::optLevels(std::vector<int> v)
{
    opts = std::move(v);
    return *this;
}

FactorSpace &
FactorSpace::counterCounts(std::vector<int> v)
{
    nctrs = std::move(v);
    return *this;
}

FactorSpace &
FactorSpace::tscSettings(std::vector<bool> v)
{
    tscs = std::move(v);
    return *this;
}

std::vector<FactorPoint>
FactorSpace::generate() const
{
    std::vector<FactorPoint> out;
    for (cpu::Processor proc : procs) {
        const auto &arch = cpu::microArch(proc);
        for (Interface iface : ifaces) {
            for (AccessPattern pat : pats) {
                if (!harness::patternSupported(iface, pat))
                    continue;
                for (CountingMode mode : modeList) {
                    for (int opt : opts) {
                        for (int nc : nctrs) {
                            if (nc > arch.progCounters)
                                continue;
                            for (bool tsc : tscs) {
                                // TSC off only exists on perfctr.
                                if (!tsc &&
                                    harness::usesPerfmon(iface))
                                    continue;
                                out.push_back({proc, iface, pat,
                                               mode, opt, nc, tsc});
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

} // namespace pca::core
