#include "harness/counter_api.hh"

#include "papi/papi.hh"
#include "support/logging.hh"

namespace pca::harness
{

using isa::Assembler;

namespace
{

perfmon::PfmSpec
toPfmSpec(const ApiConfig &cfg)
{
    perfmon::PfmSpec s;
    s.events = cfg.events;
    s.pl = cfg.pl;
    return s;
}

perfctr::ControlSpec
toPcSpec(const ApiConfig &cfg)
{
    perfctr::ControlSpec s;
    s.events = cfg.events;
    s.pl = cfg.pl;
    s.tsc = cfg.tsc;
    return s;
}

papi::PapiSpec
toPapiSpec(const ApiConfig &cfg)
{
    papi::PapiSpec s;
    for (cpu::EventType ev : cfg.events)
        s.events.push_back(papi::presetForEvent(ev));
    s.domain = cfg.pl;
    return s;
}

/**
 * Store a read's values in @p sink with the split each slot's RDPMC
 * latched: slot i is programmable counter i on every interface.
 */
void
capture(const cpu::Pmu *pmu, CaptureSink *sink, const std::vector<Count> &v)
{
    sink->values = v;
    sink->split.resize(v.size());
    for (std::size_t i = 0; i < v.size(); ++i)
        sink->split[i] = pmu->attrLatch(static_cast<int>(i));
    ++sink->captures;
}

perfmon::ReadCapture
valueCapture(const cpu::Pmu *pmu, CaptureSink *sink)
{
    return [pmu, sink](const std::vector<Count> &v) {
        capture(pmu, sink, v);
    };
}

perfctr::ReadCapture
pcCapture(const cpu::Pmu *pmu, CaptureSink *sink)
{
    return [pmu, sink](const std::vector<Count> &v, Count tsc) {
        capture(pmu, sink, v);
        sink->tsc = tsc;
    };
}

/** Direct libpfm use (pm). */
class PmApi : public CounterApi
{
  public:
    PmApi(perfmon::LibPfm &lib, const cpu::Pmu *pmu,
          const ApiConfig &cfg)
        : lib(lib), pmu(pmu), spec(toPfmSpec(cfg))
    {
    }

    void
    emitSetup(Assembler &a) override
    {
        lib.emitInitialize(a);
        lib.emitCreateContext(a);
        lib.emitWritePmcs(a, spec);
    }

    void
    emitStart(Assembler &a) override
    {
        lib.emitWritePmds(a, spec); // reset
        lib.emitStart(a);
    }

    void
    emitRead(Assembler &a, CaptureSink *sink) override
    {
        lib.emitRead(a, spec, valueCapture(pmu, sink));
    }

    void
    emitStopAndRead(Assembler &a, CaptureSink *sink) override
    {
        lib.emitStop(a);
        lib.emitRead(a, spec, valueCapture(pmu, sink));
    }

  private:
    perfmon::LibPfm &lib;
    const cpu::Pmu *pmu;
    perfmon::PfmSpec spec;
};

/** Direct libperfctr use (pc). */
class PcApi : public CounterApi
{
  public:
    PcApi(perfctr::LibPerfctr &lib, const cpu::Pmu *pmu,
          const ApiConfig &cfg)
        : lib(lib), pmu(pmu), spec(toPcSpec(cfg))
    {
    }

    void
    emitSetup(Assembler &a) override
    {
        lib.emitOpen(a);
    }

    void
    emitStart(Assembler &a) override
    {
        lib.emitControl(a, spec); // reset + program + start
    }

    void
    emitRead(Assembler &a, CaptureSink *sink) override
    {
        lib.emitRead(a, spec, pcCapture(pmu, sink));
    }

    void
    emitStopAndRead(Assembler &a, CaptureSink *sink) override
    {
        lib.emitStop(a);
        lib.emitRead(a, spec, pcCapture(pmu, sink));
    }

  private:
    perfctr::LibPerfctr &lib;
    const cpu::Pmu *pmu;
    perfctr::ControlSpec spec;
};

/** PAPI low-level API (PLpm / PLpc). */
class PapiLowApi : public CounterApi
{
  public:
    PapiLowApi(papi::Substrate sub, Machine &m, const ApiConfig &cfg)
        : low(sub, m.arch().processor, m.libPfm(), m.libPerfctr()),
          pmu(&m.core().pmu()), spec(toPapiSpec(cfg))
    {
    }

    void
    emitSetup(Assembler &a) override
    {
        low.emitLibraryInit(a);
        low.emitCreateEventSet(a, spec);
    }

    void
    emitStart(Assembler &a) override
    {
        low.emitStart(a);
    }

    void
    emitRead(Assembler &a, CaptureSink *sink) override
    {
        low.emitRead(a, valueCapture(pmu, sink));
    }

    void
    emitStopAndRead(Assembler &a, CaptureSink *sink) override
    {
        low.emitStopAndRead(a, valueCapture(pmu, sink));
    }

  private:
    papi::PapiLow low;
    const cpu::Pmu *pmu;
    papi::PapiSpec spec;
};

/** PAPI high-level API (PHpm / PHpc). */
class PapiHighApi : public CounterApi
{
  public:
    PapiHighApi(papi::Substrate sub, Machine &m, const ApiConfig &cfg)
        : low(sub, m.arch().processor, m.libPfm(), m.libPerfctr()),
          high(low), pmu(&m.core().pmu()), spec(toPapiSpec(cfg))
    {
    }

    void
    emitSetup(Assembler &a) override
    {
        // The high-level API needs no explicit setup: its start
        // initializes the library on first use.
        (void)a;
    }

    void
    emitStart(Assembler &a) override
    {
        high.emitStartCounters(a, spec);
    }

    void
    emitRead(Assembler &a, CaptureSink *sink) override
    {
        // Read-and-reset: legal only as a measurement's final read.
        high.emitReadCounters(a, valueCapture(pmu, sink));
    }

    void
    emitStopAndRead(Assembler &a, CaptureSink *sink) override
    {
        high.emitStopCounters(a, valueCapture(pmu, sink));
    }

  private:
    papi::PapiLow low;
    papi::PapiHigh high;
    const cpu::Pmu *pmu;
    papi::PapiSpec spec;
};

} // namespace

std::unique_ptr<CounterApi>
makeCounterApi(Machine &machine, const ApiConfig &cfg)
{
    pca_assert(!cfg.events.empty());
    const Interface iface = machine.iface();
    const papi::Substrate sub = usesPerfmon(iface)
        ? papi::Substrate::Perfmon
        : papi::Substrate::Perfctr;

    switch (iface) {
      case Interface::Pm:
        return std::make_unique<PmApi>(
            *machine.libPfm(), &machine.core().pmu(), cfg);
      case Interface::Pc:
        return std::make_unique<PcApi>(
            *machine.libPerfctr(), &machine.core().pmu(), cfg);
      case Interface::PLpm:
      case Interface::PLpc:
        return std::make_unique<PapiLowApi>(sub, machine, cfg);
      case Interface::PHpm:
      case Interface::PHpc:
        return std::make_unique<PapiHighApi>(sub, machine, cfg);
    }
    pca_panic("unknown interface");
}

} // namespace pca::harness
