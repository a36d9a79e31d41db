/**
 * @file
 * Ablation bench for the design decisions DESIGN.md §6 calls out
 * that no other exhibit runs:
 *
 *  1. measurement-code-as-simulated-code — switching off the
 *     privilege-level masks (counting everything) shows how much of
 *     the error the mode filtering explains;
 *  2. structural front-end model — with placement forced to the
 *     aligned best case the cycle bimodality disappears.
 *
 * Loop fast-forward and the basic-block engine change no result
 * (tier-1 asserts both); `perf_simulator --interp` times them.
 */

#include <iostream>

#include "bench_util.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "stats/histogram.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::AccessPattern;
    using harness::CountingMode;
    using harness::HarnessConfig;
    using harness::HarnessSession;
    using harness::Interface;
    using harness::LoopBench;

    bench::banner("Ablation", "Design-decision ablations");

    // --- 1. Privilege-level filtering ---
    std::cout << "1. Privilege-level masks (without per-mode "
                 "filtering, user-mode\n   measurements would "
                 "inherit the whole kernel-side error)\n\n";
    TextTable t({"interface", "user err", "u+k err", "kernel share"});
    for (auto iface : {Interface::Pm, Interface::Pc}) {
        HarnessConfig cfg;
        cfg.processor = cpu::Processor::Core2Duo;
        cfg.iface = iface;
        cfg.pattern = AccessPattern::StartRead;
        cfg.mode = CountingMode::User;
        const double u =
            stats::median(bench::nullErrors(cfg, 7));
        cfg.mode = CountingMode::UserKernel;
        const double uk =
            stats::median(bench::nullErrors(cfg, 7));
        t.addRow({harness::interfaceCode(iface), fmtDouble(u, 1),
                  fmtDouble(uk, 1),
                  fmtDouble(100.0 * (uk - u) / uk, 1) + "%"});
    }
    t.print(std::cout);

    // --- 2. Placement sensitivity ---
    std::cout << "\n2. Structural front-end model: cycles/iteration "
                 "across 16 placements\n   (a lookup-table model "
                 "would be placement-blind)\n\n";
    stats::Histogram h(1.5, 3.5, 8);
    for (int opt_level = 0; opt_level < 4; ++opt_level) {
        for (auto pat : harness::allPatterns()) {
            HarnessConfig cfg;
            cfg.processor = cpu::Processor::AthlonX2;
            cfg.iface = Interface::Pm;
            cfg.pattern = pat;
            cfg.optLevel = opt_level;
            cfg.mode = CountingMode::UserKernel;
            cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
            cfg.interruptsEnabled = false;
            const auto m =
                HarnessSession(cfg, LoopBench{200000}).run();
            h.add(static_cast<double>(m.delta()) / 200000.0);
        }
    }
    h.print(std::cout);
    std::cout << "\ndistinct cycle/iteration modes: "
              << h.modes(0.05).size() << " (bimodal on K8)\n";
    return 0;
}
