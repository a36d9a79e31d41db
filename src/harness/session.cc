#include "harness/session.hh"

#include "isa/assembler.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace pca::harness
{

using isa::Assembler;
using isa::Reg;

namespace
{

/**
 * Harness code sizes per gcc optimization level (O0..O3). The
 * optimizable code is only the measurement scaffolding (the
 * benchmark is inline assembly), so levels differ in frame setup and
 * spill code *outside* the measured window — which is why the paper's
 * ANOVA finds the optimization level insignificant for instruction
 * error, while the resulting layout shift changes cycle counts.
 */
constexpr int prologueWork[4] = {26, 17, 12, 9};
constexpr int betweenWork[4] = {9, 6, 4, 3};
constexpr int epilogueWork[4] = {6, 4, 3, 2};

/**
 * Mark a harness phase in the virtual-time trace. The marker host-ops
 * are only emitted while tracing is enabled, so with tracing off the
 * measurement program is bit-for-bit the same. (Emit-time gate: arm
 * the tracer before building sessions.)
 */
void
tracePhase(isa::Assembler &a, const char *name, bool begin)
{
    if (!obs::traceEnabled())
        return;
    std::string n(name);
    a.host([n, begin](isa::CpuContext &ctx) {
        if (begin)
            obs::tracer().begin(n, "harness", ctx.cycles());
        else
            obs::tracer().end(ctx.cycles());
    });
}

void
countPatternOverhead(const Measurement &m)
{
    if (m.attribution.patternOverhead > 0)
        PCA_SPC_ADD(PatternOverheadInstrs,
                    static_cast<Count>(m.attribution.patternOverhead));
}

/** @p cfg, once it is known to be measurable (fatal otherwise). */
const HarnessConfig &
validated(const HarnessConfig &cfg)
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
    return cfg;
}

MachineConfig
toMachineConfig(const HarnessConfig &cfg)
{
    MachineConfig mc;
    mc.processor = cfg.processor;
    mc.iface = cfg.iface;
    mc.seed = cfg.seed;
    mc.interruptsEnabled = cfg.interruptsEnabled;
    mc.ioInterrupts = cfg.ioInterrupts;
    mc.preemptProb = cfg.preemptProb;
    mc.fastForward = cfg.fastForward;
    mc.decodeCache = cfg.decodeCache;
    mc.faults = cfg.faults;
    mc.profile = cfg.profile;
    mc.runInstrBudget = cfg.runInstrBudget;
    mc.runCycleBudget = cfg.runCycleBudget;
    return mc;
}

} // namespace

HarnessSession::HarnessSession(const HarnessConfig &cfg,
                               const MicroBenchmark &bench)
    : cfg(validated(cfg)), machine(toMachineConfig(cfg))
{
    ApiConfig acfg;
    acfg.events = {cfg.primaryEvent};
    acfg.events.insert(acfg.events.end(), cfg.extraEvents.begin(),
                       cfg.extraEvents.end());
    acfg.pl = toPlMask(cfg.mode);
    acfg.tsc = cfg.tsc;
    auto api = makeCounterApi(machine, acfg);

    Assembler a("main");

    // Harness scaffolding (outside the measured window). The pattern
    // calls below are straight-line and execute exactly once per
    // run, so counting them here (emit time) equals counting them at
    // run time without perturbing the emitted program.
    a.push(Reg::Ebp);
    a.work(prologueWork[cfg.optLevel]);
    tracePhase(a, "setup", true);
    api->emitSetup(a);
    tracePhase(a, "setup", false);
    PCA_SPC_INC(PatternCallsSetup);
    a.work(betweenWork[cfg.optLevel]);

    auto emitStart = [&] {
        api->emitStart(a);
        PCA_SPC_INC(PatternCallsStart);
    };
    auto emitRead = [&](CaptureSink *sink) {
        tracePhase(a, "read", true);
        api->emitRead(a, sink);
        tracePhase(a, "read", false);
        PCA_SPC_INC(PatternCallsRead);
    };
    auto emitStop = [&](CaptureSink *sink) {
        tracePhase(a, "stop+read", true);
        api->emitStopAndRead(a, sink);
        tracePhase(a, "stop+read", false);
        PCA_SPC_INC(PatternCallsStop);
    };
    auto emitBench = [&] {
        tracePhase(a, "bench", true);
        bench.emit(a);
        tracePhase(a, "bench", false);
    };

    switch (cfg.pattern) {
      case AccessPattern::StartRead:
        emitStart();
        emitBench();
        emitRead(&s1);
        break;
      case AccessPattern::StartStop:
        emitStart();
        emitBench();
        emitStop(&s1);
        break;
      case AccessPattern::ReadRead:
        emitStart();
        emitRead(&s0);
        emitBench();
        emitRead(&s1);
        break;
      case AccessPattern::ReadStop:
        emitStart();
        emitRead(&s0);
        emitBench();
        emitStop(&s1);
        break;
    }

    a.work(epilogueWork[cfg.optLevel]);
    a.pop(Reg::Ebp);
    a.halt();

    machine.addUserBlock(a.take());
    machine.finalize();

    // The analytical ground truth exists only for the benchmark's
    // retired user-mode instructions.
    if (cfg.primaryEvent == cpu::EventType::InstrRetired &&
        cfg.mode != CountingMode::Kernel) {
        expected = bench.expectedInstructions();
    }
}

Measurement
HarnessSession::run(std::uint64_t seed)
{
    return tryRun(seed).value();
}

StatusOr<Measurement>
HarnessSession::tryRun(std::uint64_t seed)
{
    return tryRun(seed, nullptr);
}

StatusOr<Measurement>
HarnessSession::tryRun(std::uint64_t seed, RetryBudget *budget)
{
    // Bounded retry-and-discard: a failed attempt's machine state is
    // discarded wholesale (the next attempt reboots), and only
    // transient faults earn another attempt. Attempt a > 0 derives
    // its seed from the run seed and the attempt index, so the retry
    // schedule is reproducible and two retries never replay the same
    // interrupt phases. Each retry charges the policy's exponential
    // backoff in virtual time (accounted, never slept) and, when a
    // budget is supplied, one retry token; a denied token ends the
    // run immediately — the quarantine path.
    const RetryPolicy &policy = cfg.faults.retry;
    const int max_retries = policy.retries < 0 ? 0 : policy.retries;
    Status last;
    int spent = 0;
    bool budget_denied = false;
    for (int a = 0; a <= max_retries; ++a) {
        const std::uint64_t attempt_seed = a == 0
            ? seed
            : mixSeed(seed, 0xb0ffULL + static_cast<std::uint64_t>(a));
        machine.reboot(attempt_seed);
        const bool later = attempted;
        attempted = true;
        // Result reuse: a seed that cannot reach the reference's last
        // cycle replays its interrupt-free trajectory exactly.
        const Cycles horizon = machine.seedHorizon();
        if (reference && reference->run.cycles < horizon) {
            PCA_SPC_INC(RunsReused);
            if (obs::traceEnabled())
                obs::tracer().instant("run-reused:main", "machine",
                                      machine.core().cycles());
            countPatternOverhead(*reference);
            return *reference;
        }
        if (later && horizon > 0)
            PCA_SPC_INC(RunsReuseBlockedIrq);
        s0 = CaptureSink{};
        s1 = CaptureSink{};

        const Cycles t0 = machine.core().cycles();
        StatusOr<cpu::RunResult> r = machine.tryRun("main");
        if (!r.ok()) {
            last = r.status();
            if (!last.transient())
                return last;
            if (a == max_retries) // attempts exhausted; no retry
                break;
            if (budget && !budget->tryTake()) {
                budget_denied = true;
                PCA_SPC_INC(RetryBudgetExhausted);
                break;
            }
            ++spent;
            PCA_SPC_INC(SessionRetries);
            const Cycles wait = policy.backoffFor(a + 1);
            backoff += wait;
            PCA_SPC_ADD(RetryBackoffCycles, wait);
            if (obs::traceEnabled())
                obs::tracer().complete(
                    "retry:" + std::string(
                                   statusCodeName(last.code())),
                    "harness", t0, machine.core().cycles() - t0);
            continue;
        }

        Measurement m;
        m.run = *r;
        m.c0 = s0.primary();
        m.c1 = s1.primary();
        m.tsc0 = s0.tsc;
        m.tsc1 = s1.tsc;
        m.c0All = s0.values;
        m.c1All = s1.values;
        m.expected = expected;
        m.attribution =
            obs::attributeError(s0.attr, s1.attr, m.expected);
        countPatternOverhead(m);
        if (!reference && m.run.interrupts == 0)
            reference = m;
        return m;
    }
    // The message is part of the degraded-row note in study CSVs:
    // keep it a pure function of (policy, outcome), never timing.
    if (budget_denied)
        return Status(last.code(),
                      last.message() +
                          " (retry budget exhausted after " +
                          std::to_string(spent) + " retries)");
    return Status(last.code(),
                  last.message() + " (after " +
                      std::to_string(max_retries) + " retries)");
}

std::vector<StatusOr<Measurement>>
measurePoint(const HarnessConfig &cfg, const MicroBenchmark &bench,
             int runs,
             const std::function<std::uint64_t(int)> &seed_for,
             std::optional<long> retry_budget)
{
    pca_assert(runs >= 1);
    RetryBudget budget(retry_budget
                           ? *retry_budget
                           : cfg.faults.retry.perPointBudget);
    HarnessSession session(cfg, bench);
    PCA_SPC_INC(ProgramCacheMisses);
    PCA_SPC_ADD(ProgramCacheHits, static_cast<Count>(runs - 1));
    std::vector<StatusOr<Measurement>> out;
    out.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r)
        out.push_back(session.tryRun(seed_for(r), &budget));
    if (budget.limited() && budget.denied() > 0)
        PCA_SPC_INC(PointsQuarantined);
    return out;
}

} // namespace pca::harness
