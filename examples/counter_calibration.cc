/**
 * @file
 * Calibrating a measurement setup the way the paper's methodology
 * prescribes (§3.4-3.5): run the null benchmark under your exact
 * configuration to learn the fixed overhead, run the loop benchmark
 * to learn the duration-dependent overhead, then correct real
 * measurements with both.
 *
 * This is the workflow Najafzadeh et al. propose (null probes), as
 * core::Compensator implements it (§9); the example applies one
 * calibration to new measurements and shows what each part of the
 * correction removes.
 */

#include <iostream>

#include "core/compensate.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "obs/env.hh"
#include "support/strutil.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using namespace pca::harness;

    obs::initObservabilityFromEnv();

    // The configuration we want to calibrate: perfctr, start-read,
    // user+kernel counting on a Core 2 Duo.
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;
    cfg.pattern = AccessPattern::StartRead;
    cfg.mode = CountingMode::UserKernel;

    // Steps 1 and 2: the null benchmark's median error is the fixed
    // overhead; regressing loop errors on their instruction counts
    // gives the duration-dependent overhead.
    const auto comp = core::Compensator::calibrate(cfg);
    std::cout << "fixed overhead (null benchmark median):   "
              << comp.fixedOverhead() << " instructions\n";
    std::cout << "variable overhead (loop regression slope): "
              << fmtSci(comp.slopePerInstruction(), 3)
              << " instructions/instruction\n\n";

    // Step 3: correct new measurements.
    std::cout << "applying the calibration to new measurements:\n\n";
    TextTable t({"iters", "raw c-delta", "corrected", "model",
                 "residual"});
    for (Count size : {5000u, 50000u, 500000u, 2000000u}) {
        const LoopBench loop(size);
        const auto m = HarnessSession(cfg, loop).run(9000 + size);
        const double corrected = comp.compensate(m);
        const auto model =
            static_cast<double>(loop.expectedInstructions());
        t.addRow({fmtCount(static_cast<long long>(size)),
                  fmtCount(m.delta()),
                  fmtDouble(corrected, 1),
                  fmtCount(static_cast<long long>(model)),
                  fmtDouble(corrected - model, 1)});
    }
    t.print(std::cout);
    std::cout
        << "\nThe fixed overhead is removed exactly. The duration "
           "overhead is removed\nonly on average: a run that saw no "
           "timer interrupt is over-corrected by\nthe slope times its "
           "length, and a run that saw one still carries\nwhole "
           "interrupts of kernel work.\n";
    return 0;
}
