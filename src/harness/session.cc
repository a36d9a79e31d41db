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

/** @p cfg, once it is known to be measurable (fatal otherwise). */
const HarnessConfig &
validated(const HarnessConfig &cfg)
{
    pca_assert(cfg.optLevel >= 0 && cfg.optLevel <= 3);
    if (cfg.usePerfEvent)
        pca_fatal("the counter API cannot drive a perf_event machine "
                  "(usePerfEvent); drive Machine::libPerf() directly");
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

/**
 * This thread's idle machine: booted, its program unloaded (null
 * when there is none).
 */
thread_local std::unique_ptr<Machine> idleMachine;

/**
 * This thread's idle machine if it serves @p mc, else a new one; the
 * idle machine is dropped before the boot.
 */
std::unique_ptr<Machine>
takeMachine(const MachineConfig &mc)
{
    std::unique_ptr<Machine> m = std::move(idleMachine);
    if (m && sameMachine(m->config(), mc)) {
        PCA_SPC_INC(MachineReuses);
        return m;
    }
    m.reset();
    return std::make_unique<Machine>(mc);
}

} // namespace

HarnessSession::HarnessSession(const HarnessConfig &cfg,
                               const MicroBenchmark &bench)
    : cfg(validated(cfg)), machine(takeMachine(cfg))
{
    ApiConfig acfg;
    acfg.events.reserve(1 + cfg.extraEvents.size());
    acfg.events.push_back(cfg.primaryEvent);
    acfg.events.insert(acfg.events.end(), cfg.extraEvents.begin(),
                       cfg.extraEvents.end());
    acfg.pl = toPlMask(cfg.mode);
    acfg.tsc = cfg.tsc;
    auto api = makeCounterApi(*machine, acfg);

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
        emitRead(&current.s1);
        break;
      case AccessPattern::StartStop:
        emitStart();
        emitBench();
        emitStop(&current.s1);
        break;
      case AccessPattern::ReadRead:
        emitStart();
        emitRead(&current.s0);
        emitBench();
        emitRead(&current.s1);
        break;
      case AccessPattern::ReadStop:
        emitStart();
        emitRead(&current.s0);
        emitBench();
        emitStop(&current.s1);
        break;
    }

    a.work(epilogueWork[cfg.optLevel]);
    a.pop(Reg::Ebp);
    a.halt();

    machine->addUserBlock(a.take());
    machine->finalize();
    benchInstrs = bench.expectedInstructions();
    PCA_SPC_INC(ProgramCacheMisses);
}

HarnessSession::~HarnessSession()
{
    machine->unload();
    idleMachine = std::move(machine);
}

Measurement
HarnessSession::run()
{
    return run(cfg.seed);
}

Measurement
HarnessSession::run(std::uint64_t seed)
{
    return tryRun(seed).value();
}

StatusOr<Measurement>
HarnessSession::tryRun(std::uint64_t seed)
{
    return tryRun(seed, nullptr, cfg.mode);
}

Measurement
HarnessSession::reading(const Capture &c, CountingMode report) const
{
    // Only a User+Kernel session counts the rows another mode keeps,
    // and only an inert fault plan leaves each value its rows' sum
    // plus the written base.
    const bool derived = report != cfg.mode;
    pca_assert(!derived || (cfg.mode == CountingMode::UserKernel &&
                            !cfg.faults.enabled()));
    const PlMask keep = toPlMask(report);
    const PlMask drop =
        report == CountingMode::User ? PlMask::Kernel : PlMask::User;
    const auto values = [&](const CaptureSink &s) {
        std::vector<Count> v = s.values;
        if (derived)
            for (std::size_t i = 0; i < v.size(); ++i)
                v[i] -= obs::modeTotal(s.split[i], drop);
        return v;
    };
    const auto classes = [&](const CaptureSink &s) {
        return s.split.empty() ? obs::AttrCounts{}
                               : obs::classSplit(s.split[0], keep);
    };
    Measurement m;
    m.run = c.run;
    m.c0All = values(c.s0);
    m.c1All = values(c.s1);
    m.c0 = m.c0All.empty() ? 0 : m.c0All[0];
    m.c1 = m.c1All.empty() ? 0 : m.c1All[0];
    m.tsc0 = c.s0.tsc;
    m.tsc1 = c.s1.tsc;
    // The analytical ground truth exists only for the benchmark's
    // retired user-mode instructions.
    if (cfg.primaryEvent == cpu::EventType::InstrRetired &&
        report != CountingMode::Kernel)
        m.expected = benchInstrs;
    m.attribution =
        obs::attributeError(classes(c.s0), classes(c.s1), m.expected);
    if (derived)
        PCA_SPC_INC(ReadingsDerived);
    if (m.attribution.patternOverhead > 0)
        PCA_SPC_ADD(PatternOverheadInstrs,
                    static_cast<Count>(m.attribution.patternOverhead));
    return m;
}

StatusOr<Measurement>
HarnessSession::tryRun(std::uint64_t seed, RetryBudget *budget,
                       CountingMode report)
{
    if (attempted)
        PCA_SPC_INC(ProgramCacheHits);
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
        const bool later = attempted;
        attempted = true;
        // Result reuse: a seed that cannot reach the reference's last
        // cycle replays its interrupt-free trajectory exactly, so
        // only a run that executes reboots.
        const Cycles horizon = machine->seedHorizon(attempt_seed);
        if (reference && reference->run.cycles < horizon) {
            PCA_SPC_INC(RunsReused);
            // At cycle 0, where a rebooted machine would start.
            if (obs::traceEnabled())
                obs::tracer().instant("run-reused:main", "machine", 0);
            return reading(*reference, report);
        }
        if (later && horizon > 0)
            PCA_SPC_INC(RunsReuseBlockedIrq);
        machine->reboot(attempt_seed);
        current.s0.clear();
        current.s1.clear();

        const Cycles t0 = machine->core().cycles();
        StatusOr<cpu::RunResult> r = machine->tryRun("main");
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
                    "harness", t0, machine->core().cycles() - t0);
            continue;
        }

        current.run = *r;
        if (!reference && r->interrupts == 0)
            reference = current;
        return reading(current, report);
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
    HarnessSession session(cfg, bench);
    return measurePoint(session, cfg.mode, runs, seed_for,
                        retry_budget ? *retry_budget
                                     : cfg.faults.retry.perPointBudget);
}

std::vector<StatusOr<Measurement>>
measurePoint(HarnessSession &session, CountingMode mode, int runs,
             const std::function<std::uint64_t(int)> &seed_for,
             long retry_budget)
{
    pca_assert(runs >= 1);
    RetryBudget budget(retry_budget);
    std::vector<StatusOr<Measurement>> out;
    out.reserve(static_cast<std::size_t>(runs));
    for (int r = 0; r < runs; ++r)
        out.push_back(session.tryRun(seed_for(r), &budget, mode));
    if (budget.limited() && budget.denied() > 0)
        PCA_SPC_INC(PointsQuarantined);
    return out;
}

} // namespace pca::harness
