/**
 * @file
 * Figure 9 of the paper: kernel-mode instruction counts by loop size
 * (perfctr on Core 2 Duo). The benchmark causes no kernel activity
 * of its own, so every counted kernel instruction is measurement
 * error: interrupt handlers attributed to the measured thread. The
 * average grows linearly — the paper measures ~1500 kernel
 * instructions at 500k iterations, ~2500 at 1M, slope 0.00204.
 */

#include <iostream>

#include "bench_util.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "stats/boxplot.hh"
#include "stats/regression.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::CountingMode;
    using harness::HarnessConfig;
    using harness::Interface;
    using harness::LoopBench;

    bench::banner("Figure 9",
                  "Kernel-mode instructions by loop size (pc on CD)");

    const std::vector<Count> sizes = {1,      25000,  50000,  75000,
                                      100000, 250000, 500000, 750000,
                                      1000000};
    // Interrupts are infrequent: many runs per size (paper: several
    // thousand; here enough for stable means).
    constexpr int runs = 60;

    HarnessConfig cfg;
    cfg.processor = cpu::Processor::Core2Duo;
    cfg.iface = Interface::Pc;
    cfg.pattern = harness::AccessPattern::StartRead;
    cfg.mode = CountingMode::Kernel;

    TextTable t({"loop size", "mean", "median", "q3", "max"});
    std::vector<double> xs, ys;
    std::vector<std::string> labels;
    std::vector<stats::BoxPlot> boxes;
    for (Count size : sizes) {
        const auto seed_of = [size](int r) {
            return mixSeed(909, size * 100 + static_cast<Count>(r));
        };
        std::vector<double> deltas;
        for (const StatusOr<harness::Measurement> &m :
             harness::measurePoint(cfg, LoopBench(size), runs, seed_of)) {
            const auto delta = static_cast<double>(m.value().delta());
            deltas.push_back(delta);
            xs.push_back(static_cast<double>(size));
            ys.push_back(delta);
        }
        const auto s = stats::summarize(deltas);
        t.addRow({fmtCount(static_cast<long long>(size)),
                  fmtDouble(s.mean, 1), fmtDouble(s.median, 1),
                  fmtDouble(s.q3, 1), fmtDouble(s.max, 1)});
        labels.push_back(fmtCount(static_cast<long long>(size)));
        boxes.push_back(stats::makeBoxPlot(deltas));
    }
    t.print(std::cout);
    std::cout << '\n';
    stats::renderBoxPlots(std::cout, labels, boxes);

    const auto fit = stats::linearFit(xs, ys);
    std::cout << "\nRegression through all points:\n";
    bench::paperRef("slope (kernel instr / iteration)", 0.00204,
                    fit.slope, 5);

    double mean_500k = 0, mean_1m = 0;
    {
        int n5 = 0, n1 = 0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            if (xs[i] == 500000) {
                mean_500k += ys[i];
                ++n5;
            }
            if (xs[i] == 1000000) {
                mean_1m += ys[i];
                ++n1;
            }
        }
        mean_500k /= n5;
        mean_1m /= n1;
    }
    bench::paperRef("mean kernel instr at 500k iters", 1500,
                    mean_500k);
    bench::paperRef("mean kernel instr at 1M iters", 2500, mean_1m);
    std::cout << "\nShape check: the regression slope matches the "
                 "user+kernel duration slope\nof Figure 7 for pc on "
                 "CD (the paper's crosscheck).\n";
    return 0;
}
