#include "obs/profile.hh"

#include <algorithm>
#include <cstdlib>

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
Profiler::onUserRetire(Addr pc, Cycles cycles)
{
    ++retiredCount;
    ++truePcHist[pc];
    retiredCycles += cycles;
    truePcCycles[pc] += cycles;
    // The windows of the ticks from openTick on are still filling;
    // they all have the same length, so they fill in tick order.
    for (std::size_t t = openTick; t < tickLog.size(); ++t)
        tickLog[t].next.push_back(pc);
    while (openTick < tickLog.size() &&
           tickLog[openTick].next.size() > cfg.skidInstrs)
        ++openTick;
}

void
Profiler::onTimerTick(Addr interrupted_pc,
                      const std::vector<Addr> &call_chain)
{
    Tick &t = tickLog.emplace_back();
    t.retiredBefore = retiredCount;
    t.pc = interrupted_pc;
    for (Addr ret : call_chain) {
        if (!t.callers.empty())
            t.callers += ';';
        t.callers += symbolFor(ret);
    }
    t.next.reserve(cfg.skidInstrs + 1);
}

void
Profiler::reset()
{
    retiredCount = retiredCycles = 0;
    truePcHist.clear();
    truePcCycles.clear();
    tickLog.clear();
    openTick = 0;
}

ProfileSamples
Profiler::sample(Count period, Count skid) const
{
    pca_assert(period >= 1 && skid <= cfg.skidInstrs);
    ProfileSamples out;
    bool accepted = false;
    Count lastRetired = 0; //!< retiredBefore of the last accepted tick
    for (std::size_t i = period - 1; i < tickLog.size(); i += period) {
        const Tick &t = tickLog[i];
        // The last accepted tick's latch, at its (skid+1)-th retire,
        // is still pending: drop this request rather than nest
        // latches, like a real PMI-in-PMI drop.
        if (skid > 0 && accepted && t.retiredBefore - lastRetired <= skid) {
            ++out.dropped;
            continue;
        }
        accepted = true;
        lastRetired = t.retiredBefore;
        ++out.tickHist[t.pc];
        if (skid > 0 && t.next.size() <= skid)
            continue; // the run ended before the latch
        const Addr pc = skid == 0 ? t.pc : t.next[skid];
        ++out.samples;
        ++out.sampleHist[pc];
        const std::string &leaf = symbolFor(pc);
        if (leaf != symbolFor(t.pc))
            ++out.misattributed;
        ++out.stacks[t.callers.empty() ? leaf : t.callers + ';' + leaf];
    }
    return out;
}

std::map<Addr, Count>
Profiler::trueHist() const
{
    return {truePcHist.begin(), truePcHist.end()};
}

std::vector<ProfileBiasRow>
Profiler::biasReport(const ProfileSamples &samples) const
{
    // Aggregate both histograms by symbol (deterministic: map).
    std::map<std::string, ProfileBiasRow> by_sym;
    for (const auto &[pc, n] : samples.sampleHist) {
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
        if (samples.samples > 0)
            row.estShare = static_cast<double>(row.samples) /
                           static_cast<double>(samples.samples);
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

} // namespace pca::obs
