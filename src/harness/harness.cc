#include "harness/harness.hh"

#include <cstdlib>
#include <cstring>

#include "harness/session.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace pca::harness
{

bool
defaultDecodeCache()
{
    const char *spec = std::getenv("PCA_DECODE");
    if (!spec || !*spec)
        return true;
    return !(std::strcmp(spec, "0") == 0 ||
             std::strcmp(spec, "off") == 0 ||
             std::strcmp(spec, "false") == 0);
}

const char *
countingModeName(CountingMode m)
{
    switch (m) {
      case CountingMode::User: return "user";
      case CountingMode::UserKernel: return "user+kernel";
      case CountingMode::Kernel: return "kernel";
    }
    return "?";
}

PlMask
toPlMask(CountingMode m)
{
    switch (m) {
      case CountingMode::User: return PlMask::User;
      case CountingMode::UserKernel: return PlMask::UserKernel;
      case CountingMode::Kernel: return PlMask::Kernel;
    }
    pca_panic("bad counting mode");
}

std::vector<cpu::EventType>
counterEvents(const HarnessConfig &cfg)
{
    std::vector<cpu::EventType> events{cfg.primaryEvent};
    events.insert(events.end(), cfg.extraEvents.begin(),
                  cfg.extraEvents.end());
    return events;
}

namespace detail
{

void
validateHarnessConfig(const HarnessConfig &cfg)
{
    pca_assert(cfg.optLevel >= 0 && cfg.optLevel <= 3);
    if (!patternSupported(cfg.iface, cfg.pattern))
        pca_fatal("interface ", interfaceCode(cfg.iface),
                  " does not support the ", patternName(cfg.pattern),
                  " pattern");
    const auto &arch = cpu::microArch(cfg.processor);
    const int want = 1 + static_cast<int>(cfg.extraEvents.size());
    if (want > arch.progCounters)
        pca_fatal(arch.name, " has only ", arch.progCounters,
                  " programmable counters; requested ", want);
}

} // namespace detail

MeasurementHarness::MeasurementHarness(const HarnessConfig &cfg)
    : cfg(cfg)
{
    detail::validateHarnessConfig(cfg);
}

std::vector<cpu::EventType>
MeasurementHarness::counterEvents() const
{
    return harness::counterEvents(cfg);
}

Measurement
MeasurementHarness::measure(const MicroBenchmark &bench) const
{
    return HarnessSession(cfg, bench).run(cfg.seed);
}

StatusOr<Measurement>
MeasurementHarness::tryMeasure(const MicroBenchmark &bench) const
{
    return HarnessSession(cfg, bench).tryRun(cfg.seed);
}

std::vector<Measurement>
MeasurementHarness::measureMany(const MicroBenchmark &bench,
                                int runs) const
{
    pca_assert(runs >= 1);
    HarnessSession sess(cfg, bench);
    std::vector<Measurement> out;
    out.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r)
        out.push_back(
            sess.run(mixSeed(cfg.seed, static_cast<std::uint64_t>(r))));
    return out;
}

std::vector<StatusOr<Measurement>>
MeasurementHarness::tryMeasureMany(const MicroBenchmark &bench,
                                   int runs) const
{
    pca_assert(runs >= 1);
    HarnessSession sess(cfg, bench);
    std::vector<StatusOr<Measurement>> out;
    out.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r)
        out.push_back(sess.tryRun(
            mixSeed(cfg.seed, static_cast<std::uint64_t>(r))));
    return out;
}

} // namespace pca::harness
