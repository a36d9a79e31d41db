/**
 * @file
 * Quickstart: measure a micro-benchmark with a chosen counter
 * infrastructure and compare the measured instruction count with the
 * analytical ground truth.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <iostream>

#include "harness/microbench.hh"
#include "harness/session.hh"
#include "obs/env.hh"
#include "support/random.hh"

int
main()
{
    using namespace pca;
    using namespace pca::harness;

    // Optional self-instrumentation: PCA_SPC=all dumps the
    // simulator's software counters at exit, PCA_TRACE=<file> writes
    // a Perfetto-loadable virtual-time trace.
    obs::initObservabilityFromEnv();

    // 1. Describe the measurement: which simulated processor, which
    //    access infrastructure (one of the paper's six), which
    //    pattern, and which privilege levels to count.
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;               // libperfctr, direct
    cfg.pattern = AccessPattern::ReadRead;   // c0=read ... c1=read
    cfg.mode = CountingMode::User;           // user-mode events only
    cfg.tsc = true;                          // fast user-mode reads
    cfg.seed = 1;

    // 2. Pick a benchmark with a known instruction count: the
    //    paper's loop executes exactly 1 + 3*MAX instructions.
    const LoopBench loop(100000);

    // 3. Run. A session boots a simulated machine (or takes this
    //    thread's idle one of the same kind) and builds the
    //    measurement program (library calls + inline benchmark);
    //    run() reboots the machine with a seed and executes it.
    const Measurement m = HarnessSession(cfg, loop).run();

    std::cout << "benchmark:            " << loop.name() << " x "
              << loop.iterations() << " iterations\n"
              << "expected instructions: " << m.expected << '\n'
              << "measured c0:           " << m.c0 << '\n'
              << "measured c1:           " << m.c1 << '\n'
              << "measured c-delta:      " << m.delta() << '\n'
              << "measurement error:     " << m.error()
              << " instructions\n\n";

    // 4. The same measurement counting kernel-mode events too: the
    //    error grows (syscalls and interrupt handlers are counted).
    //    The attribution breaks the error down by cause — its
    //    components sum to the error exactly.
    cfg.mode = CountingMode::UserKernel;
    const Measurement uk = HarnessSession(cfg, loop).run();
    std::cout << "user+kernel c-delta:   " << uk.delta() << '\n'
              << "user+kernel error:     " << uk.error()
              << " instructions\n"
              << "error attribution:     " << uk.attribution << '\n'
              << "interrupts during run: " << uk.run.interrupts
              << '\n';

    // 5. Repeat measurements with fresh seeds to see run-to-run
    //    variation (interrupt phase, preemption): measurePoint runs
    //    one session once per seed.
    std::cout << "\nfive repeated user+kernel measurements:";
    for (const StatusOr<Measurement> &rep :
         measurePoint(cfg, loop, 5, [&](int r) {
             return mixSeed(cfg.seed, static_cast<std::uint64_t>(r));
         }))
        std::cout << ' ' << rep.value().error();
    std::cout << '\n';
    return 0;
}
