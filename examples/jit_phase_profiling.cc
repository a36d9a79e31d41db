/**
 * @file
 * Scenario from the paper's introduction: measuring *short* execution
 * phases (JIT optimization phases, GC phases, signal handlers). The
 * fixed measurement error that is negligible for end-to-end runs
 * dominates when the measured section is only a few thousand
 * instructions long.
 *
 * This example sweeps phase lengths and prints the relative error
 * for a good configuration and a careless one, showing when each
 * becomes trustworthy.
 */

#include <iostream>

#include "harness/microbench.hh"
#include "harness/session.hh"
#include "obs/env.hh"
#include "stats/descriptive.hh"
#include "support/strutil.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using namespace pca::harness;

    obs::initObservabilityFromEnv();
    std::cout << "Profiling short phases: relative error vs phase "
                 "length\n\n";

    // A "JIT phase" of n loop iterations (3n+1 instructions).
    const std::vector<Count> phase_iters = {10,     100,    1000,
                                            10000,  100000, 1000000};

    struct Setup
    {
        const char *label;
        Interface iface;
        AccessPattern pattern;
        CountingMode mode;
    };
    const Setup setups[] = {
        // Careless: PAPI high level, counting kernel events too.
        {"PAPI high level, user+kernel", Interface::PHpm,
         AccessPattern::StartRead, CountingMode::UserKernel},
        // Careful: direct perfmon, read-read, user mode only
        // (Table 3's best user-mode configuration).
        {"libpfm direct, read-read, user", Interface::Pm,
         AccessPattern::ReadRead, CountingMode::User},
    };

    for (const Setup &s : setups) {
        std::cout << "--- " << s.label << " ---\n";
        TextTable t({"phase instrs", "median error", "rel. error"});
        for (Count iters : phase_iters) {
            const LoopBench phase(iters);
            HarnessConfig cfg;
            cfg.processor = cpu::Processor::Core2Duo;
            cfg.iface = s.iface;
            cfg.pattern = s.pattern;
            cfg.mode = s.mode;
            std::vector<double> errs;
            for (const StatusOr<Measurement> &m :
                 measurePoint(cfg, phase, 7, [](int r) {
                     return 90 + static_cast<std::uint64_t>(r);
                 }))
                errs.push_back(static_cast<double>(m.value().error()));
            const double med = stats::median(errs);
            const double expected =
                static_cast<double>(phase.expectedInstructions());
            t.addRow({fmtCount(static_cast<long long>(
                          phase.expectedInstructions())),
                      fmtDouble(med, 1),
                      fmtDouble(100.0 * med / expected, 2) + "%"});
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    std::cout
        << "Reading: with the careless configuration a 3000-"
           "instruction phase is\nmis-measured by ~30%; the careful "
           "configuration pushes that to ~1%.\nFor sub-1000-"
           "instruction phases even the best infrastructure "
           "distorts\nthe result noticeably — the paper's core "
           "warning.\n";
    return 0;
}
