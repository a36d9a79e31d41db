#include "obs/spc.hh"

#include "support/logging.hh"
#include "support/strutil.hh"

namespace pca::obs
{

namespace detail
{

std::atomic<std::uint64_t> spcEnabledMask{0};
std::atomic<Count> spcValues[numSpcs]{};

} // namespace detail

const char *
spcName(Spc c)
{
    switch (c) {
      case Spc::MachineBoots: return "machine_boots";
      case Spc::RunsExecuted: return "runs_executed";
      case Spc::InterruptsTimer: return "interrupts_timer";
      case Spc::InterruptsIo: return "interrupts_io";
      case Spc::InterruptsPmi: return "interrupts_pmi";
      case Spc::Preemptions: return "preemptions";
      case Spc::ContextSwitches: return "context_switches";
      case Spc::KernelInstrs: return "kernel_instrs";
      case Spc::PatternCallsSetup: return "pattern_calls_setup";
      case Spc::PatternCallsStart: return "pattern_calls_start";
      case Spc::PatternCallsRead: return "pattern_calls_read";
      case Spc::PatternCallsStop: return "pattern_calls_stop";
      case Spc::PatternOverheadInstrs:
        return "pattern_overhead_instrs";
      case Spc::FastForwardIters: return "fast_forward_iters";
      case Spc::MachineReboots: return "machine_reboots";
      case Spc::ProgramCacheHits: return "program_cache_hits";
      case Spc::ProgramCacheMisses: return "program_cache_misses";
      case Spc::FaultsInjected: return "faults_injected";
      case Spc::SessionRetries: return "session_retries";
      case Spc::DegradedPoints: return "degraded_points";
      case Spc::ProfileSamples: return "profile_samples";
      case Spc::BlockEscapeCallret:
        return "block_escape_callret";
      case Spc::BlockEscapeTimeread:
        return "block_escape_timeread";
      case Spc::BlockEscapeSyscall:
        return "block_escape_syscall";
      case Spc::BlockEscapeOther: return "block_escape_other";
      case Spc::ParallelWorkerErrors:
        return "parallel_worker_errors";
      case Spc::DeadlineExceededRuns:
        return "deadline_exceeded_runs";
      case Spc::RetryBackoffCycles: return "retry_backoff_cycles";
      case Spc::RetryBudgetExhausted:
        return "retry_budget_exhausted";
      case Spc::PointsQuarantined: return "points_quarantined";
      case Spc::CheckpointPointsWritten:
        return "checkpoint_points_written";
      case Spc::CheckpointPointsResumed:
        return "checkpoint_points_resumed";
      case Spc::KernelImagesBuilt: return "kernel_images_built";
      case Spc::NopRunInstrs: return "nop_run_instrs";
      case Spc::UserInstrsBlock: return "user_instrs_block";
      case Spc::UserInstrsStep: return "user_instrs_step";
      case Spc::UserInstrsFolded: return "user_instrs_folded";
      case Spc::RunsForcedStepProfiler:
        return "runs_forced_step_profiler";
      case Spc::RunsForcedStepSampling:
        return "runs_forced_step_sampling";
      case Spc::RunsReused: return "runs_reused";
      case Spc::RunsReuseBlockedIrq: return "runs_reuse_blocked_irq";
      case Spc::MachineReuses: return "machine_reuses";
      case Spc::ReadingsDerived: return "readings_derived";
      case Spc::NumSpcs: break;
    }
    return "?";
}

const std::vector<Spc> &
allSpcs()
{
    static const std::vector<Spc> all = [] {
        std::vector<Spc> v;
        for (std::size_t i = 0; i < numSpcs; ++i)
            v.push_back(static_cast<Spc>(i));
        return v;
    }();
    return all;
}

Count
spcValue(Spc c)
{
    return detail::spcValues[static_cast<std::size_t>(c)].load(
        std::memory_order_relaxed);
}

int
spcAttach(const std::string &spec)
{
    std::uint64_t mask =
        detail::spcEnabledMask.load(std::memory_order_relaxed);
    if (spec == "none") {
        mask = 0;
    } else if (spec == "all") {
        mask = (1ULL << numSpcs) - 1;
    } else {
        for (const std::string &name : split(spec, ',')) {
            if (name.empty())
                continue;
            bool found = false;
            for (Spc c : allSpcs()) {
                if (name == spcName(c)) {
                    mask |= 1ULL << static_cast<unsigned>(c);
                    found = true;
                    break;
                }
            }
            if (!found)
                pca_warn("PCA_SPC: unknown counter \"", name, "\"");
        }
    }
    detail::spcEnabledMask.store(mask, std::memory_order_relaxed);
    return __builtin_popcountll(mask);
}

void
spcReset()
{
    detail::spcEnabledMask.store(0, std::memory_order_relaxed);
    for (auto &v : detail::spcValues)
        v.store(0, std::memory_order_relaxed);
}

void
spcDump(std::ostream &os)
{
    os << "pca software performance counters:\n";
    for (Spc c : allSpcs()) {
        if (!spcEnabled(c))
            continue;
        os << "  " << padRight(spcName(c), 26) << ' ' << spcValue(c)
           << '\n';
    }
}

} // namespace pca::obs
