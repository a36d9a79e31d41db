/**
 * @file
 * Ablation bench for the design decisions DESIGN.md §6 calls out:
 *
 *  1. loop fast-forward — identical results, large wall-clock win;
 *  2. basic-block execution — identical measurements,
 *     several-fold interpreter speedup;
 *  3. measurement-code-as-simulated-code — switching off the
 *     privilege-level masks (counting everything) shows how much of
 *     the error the mode filtering explains;
 *  4. structural front-end model — with placement forced to the
 *     aligned best case the cycle bimodality disappears.
 */

#include <chrono>
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
    using Clock = std::chrono::steady_clock;

    bench::banner("Ablation", "Design-decision ablations");

    // --- 1. Fast-forward on/off ---
    std::cout << "1. Loop fast-forward (DESIGN.md #3)\n\n";
    TextTable t({"iters", "ff result", "interp result", "equal",
                 "ff ms", "interp ms"});
    for (Count iters : {100000u, 1000000u, 10000000u}) {
        HarnessConfig cfg;
        cfg.processor = cpu::Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.pattern = AccessPattern::StartRead;
        cfg.mode = CountingMode::UserKernel;
        cfg.seed = 4242;
        const LoopBench loop(iters);

        cfg.fastForward = true;
        auto t0 = Clock::now();
        const auto with_ff = HarnessSession(cfg, loop).run(cfg.seed);
        auto t1 = Clock::now();
        cfg.fastForward = false;
        const auto no_ff = HarnessSession(cfg, loop).run(cfg.seed);
        auto t2 = Clock::now();

        const double ff_ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        const double in_ms =
            std::chrono::duration<double, std::milli>(t2 - t1)
                .count();
        t.addRow({fmtCount(static_cast<long long>(iters)),
                  std::to_string(with_ff.delta()),
                  std::to_string(no_ff.delta()),
                  with_ff.delta() == no_ff.delta() &&
                          with_ff.run.cycles == no_ff.run.cycles
                      ? "yes"
                      : "NO",
                  fmtDouble(ff_ms, 2), fmtDouble(in_ms, 2)});
    }
    t.print(std::cout);

    // --- 2. Block engine on/off ---
    std::cout << "\n2. Basic-block execution (DESIGN.md #8)\n\n";
    TextTable td({"iters", "decoded result", "interp result",
                  "equal", "decoded ms", "interp ms"});
    for (Count iters : {100000u, 1000000u, 10000000u}) {
        HarnessConfig cfg;
        cfg.processor = cpu::Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.pattern = AccessPattern::StartRead;
        cfg.mode = CountingMode::UserKernel;
        cfg.fastForward = false; // isolate the block engine
        cfg.seed = 4242;
        const LoopBench loop(iters);

        cfg.decodeCache = true;
        auto t0 = Clock::now();
        const auto decoded = HarnessSession(cfg, loop).run(cfg.seed);
        auto t1 = Clock::now();
        cfg.decodeCache = false;
        const auto interp = HarnessSession(cfg, loop).run(cfg.seed);
        auto t2 = Clock::now();

        const double dec_ms =
            std::chrono::duration<double, std::milli>(t1 - t0)
                .count();
        const double in_ms =
            std::chrono::duration<double, std::milli>(t2 - t1)
                .count();
        td.addRow({fmtCount(static_cast<long long>(iters)),
                   std::to_string(decoded.delta()),
                   std::to_string(interp.delta()),
                   decoded.delta() == interp.delta() &&
                           decoded.run.cycles == interp.run.cycles
                       ? "yes"
                       : "NO",
                   fmtDouble(dec_ms, 2), fmtDouble(in_ms, 2)});
    }
    td.print(std::cout);

    // --- 3. Privilege-level filtering ---
    std::cout << "\n3. Privilege-level masks (without per-mode "
                 "filtering, user-mode\n   measurements would "
                 "inherit the whole kernel-side error)\n\n";
    TextTable t2({"interface", "user err", "u+k err",
                  "kernel share"});
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
        t2.addRow({harness::interfaceCode(iface), fmtDouble(u, 1),
                   fmtDouble(uk, 1),
                   fmtDouble(100.0 * (uk - u) / uk, 1) + "%"});
    }
    t2.print(std::cout);

    // --- 4. Placement sensitivity ---
    std::cout << "\n4. Structural front-end model: cycles/iteration "
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
                HarnessSession(cfg, LoopBench{200000}).run(cfg.seed);
            h.add(static_cast<double>(m.delta()) / 200000.0);
        }
    }
    h.print(std::cout);
    std::cout << "\ndistinct cycle/iteration modes: "
              << h.modes(0.05).size() << " (bimodal on K8)\n";
    return 0;
}
