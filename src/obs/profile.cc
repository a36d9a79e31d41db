#include "obs/profile.hh"

#include <algorithm>
#include <cstdlib>

#include "obs/spc.hh"
#include "support/logging.hh"
#include "support/strutil.hh"

namespace pca::obs
{

ProfileConfig
ProfileConfig::fromEnv()
{
    ProfileConfig cfg;
    const char *spec = std::getenv("PCA_PROFILE");
    if (!spec || !*spec)
        return cfg;
    const std::string s(spec);
    if (s == "off" || s == "0" || s == "none")
        return cfg;
    cfg.enabled = true;
    if (s == "on" || s == "1")
        return cfg;
    for (const std::string &item : split(s, ',')) {
        if (item.empty())
            continue;
        if (item.rfind("period=", 0) == 0) {
            cfg.periodTicks = std::strtoull(item.c_str() + 7,
                                            nullptr, 10);
            if (cfg.periodTicks == 0)
                pca_fatal("PCA_PROFILE: period must be >= 1");
        } else if (item.rfind("skid=", 0) == 0) {
            cfg.skidInstrs = std::strtoull(item.c_str() + 5,
                                           nullptr, 10);
        } else {
            pca_warn("PCA_PROFILE: unknown option '", item, "'");
        }
    }
    return cfg;
}

Profiler::Profiler(const ProfileConfig &cfg) : cfg(cfg)
{
    pca_assert(cfg.periodTicks >= 1);
}

void
Profiler::setSymbols(std::vector<ProfileSymbol> symbols)
{
    syms = std::move(symbols);
    std::sort(syms.begin(), syms.end(),
              [](const ProfileSymbol &a, const ProfileSymbol &b) {
                  return a.base < b.base;
              });
}

const std::string &
Profiler::symbolFor(Addr pc) const
{
    static const std::string unknown = "?";
    // Last symbol whose base is <= pc, if pc falls inside it.
    auto it = std::upper_bound(
        syms.begin(), syms.end(), pc,
        [](Addr a, const ProfileSymbol &s) { return a < s.base; });
    if (it == syms.begin())
        return unknown;
    --it;
    if (pc < it->base + it->size)
        return it->name;
    return unknown;
}

void
Profiler::latchSample(Addr pc)
{
    ++sampleCount;
    ++samplePcHist[pc];
    PCA_SPC_INC(ProfileSamples);
    const std::string &leaf = symbolFor(pc);
    if (leaf != symbolFor(pendingTickPc))
        ++misattributedCount;
    std::string stack = pendingStack;
    if (!stack.empty())
        stack += ';';
    stack += leaf;
    ++stacks[stack];
}

void
Profiler::onUserRetire(Addr pc, Cycles cycles)
{
    ++retiredCount;
    ++truePcHist[pc];
    retiredCycles += cycles;
    truePcCycles[pc] += cycles;
    if (pending) {
        if (pendingSkipLeft > 0) {
            --pendingSkipLeft;
            PCA_SPC_INC(ProfileSkidInstrs);
        } else {
            latchSample(pc);
            pending = false;
            pendingStack.clear();
        }
    }
}

void
Profiler::onTimerTick(Addr interrupted_pc,
                      const std::vector<Addr> &call_chain)
{
    ++tickCount;
    if (++ticksToSample < cfg.periodTicks)
        return;
    ticksToSample = 0;
    if (pending) {
        // The previous sample's skid latch is still in flight (very
        // deep skid or very short timeslices): drop this request
        // rather than nest latches, like a real PMI-in-PMI drop.
        ++droppedCount;
        return;
    }
    ++tickPcHist[interrupted_pc];
    pendingTickPc = interrupted_pc;
    pendingStack.clear();
    for (Addr ret : call_chain) {
        if (!pendingStack.empty())
            pendingStack += ';';
        pendingStack += symbolFor(ret);
    }
    if (cfg.skidInstrs == 0) {
        latchSample(interrupted_pc);
        pendingStack.clear();
    } else {
        pending = true;
        pendingSkipLeft = cfg.skidInstrs;
    }
}

void
Profiler::reset()
{
    tickCount = sampleCount = droppedCount = 0;
    retiredCount = retiredCycles = misattributedCount = 0;
    ticksToSample = 0;
    pending = false;
    pendingSkipLeft = 0;
    pendingTickPc = 0;
    pendingStack.clear();
    samplePcHist.clear();
    tickPcHist.clear();
    truePcHist.clear();
    truePcCycles.clear();
    stacks.clear();
}

namespace
{

std::map<Addr, Count>
sorted(const std::unordered_map<Addr, Count> &h)
{
    return {h.begin(), h.end()};
}

} // namespace

std::map<Addr, Count>
Profiler::sampleHist() const
{
    return sorted(samplePcHist);
}

std::map<Addr, Count>
Profiler::tickHist() const
{
    return sorted(tickPcHist);
}

std::map<Addr, Count>
Profiler::trueHist() const
{
    return sorted(truePcHist);
}

std::map<Addr, Count>
Profiler::trueCycleHist() const
{
    return sorted(truePcCycles);
}

std::vector<ProfileBiasRow>
Profiler::biasReport() const
{
    // Aggregate both histograms by symbol (deterministic: map).
    std::map<std::string, ProfileBiasRow> by_sym;
    for (const auto &[pc, n] : samplePcHist) {
        ProfileBiasRow &row = by_sym[symbolFor(pc)];
        row.samples += n;
    }
    for (const auto &[pc, n] : truePcHist) {
        ProfileBiasRow &row = by_sym[symbolFor(pc)];
        row.trueInstrs += n;
    }
    for (const auto &[pc, c] : truePcCycles) {
        ProfileBiasRow &row = by_sym[symbolFor(pc)];
        row.trueCycles += c;
    }
    std::vector<ProfileBiasRow> rows;
    rows.reserve(by_sym.size());
    for (auto &[name, row] : by_sym) {
        row.symbol = name;
        if (sampleCount > 0)
            row.estShare = static_cast<double>(row.samples) /
                           static_cast<double>(sampleCount);
        if (retiredCount > 0)
            row.trueShare = static_cast<double>(row.trueInstrs) /
                            static_cast<double>(retiredCount);
        if (retiredCycles > 0)
            row.trueCycleShare =
                static_cast<double>(row.trueCycles) /
                static_cast<double>(retiredCycles);
        rows.push_back(std::move(row));
    }
    std::sort(rows.begin(), rows.end(),
              [](const ProfileBiasRow &a, const ProfileBiasRow &b) {
                  if (a.trueShare != b.trueShare)
                      return a.trueShare > b.trueShare;
                  return a.symbol < b.symbol;
              });
    return rows;
}

void
Profiler::writeCollapsedStacks(std::ostream &os) const
{
    for (const auto &[stack, n] : stacks)
        os << stack << ' ' << n << '\n';
}

} // namespace pca::obs
