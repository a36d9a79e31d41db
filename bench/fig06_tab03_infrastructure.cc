/**
 * @file
 * Figure 6 + Table 3 of the paper: error by infrastructure. For each
 * of the six interfaces, the best access pattern is selected, the
 * TSC is enabled on perfctr, one counter register is used, and the
 * boxes aggregate all processors and optimization levels.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "stats/boxplot.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::AccessPattern;
    using harness::CountingMode;
    using harness::HarnessConfig;
    using harness::Interface;

    bench::banner("Figure 6 / Table 3",
                  "Error depends on the infrastructure");

    constexpr int runs = 5;

    struct Row
    {
        Interface iface;
        CountingMode mode;
        AccessPattern best_pattern = AccessPattern::StartRead;
        double median = 0;
        double min = 0;
        std::vector<double> errors; // best-pattern errors, all procs
    };
    std::vector<Row> rows;

    for (auto mode :
         {CountingMode::UserKernel, CountingMode::User}) {
        for (auto iface : harness::allInterfaces()) {
            Row best;
            best.iface = iface;
            best.mode = mode;
            best.median = 1e18;
            for (auto pat : harness::allPatterns()) {
                if (!harness::patternSupported(iface, pat))
                    continue;
                // Aggregate processors and optimization levels.
                std::vector<double> errs;
                for (auto proc : cpu::allProcessors()) {
                    for (int opt = 0; opt < 4; ++opt) {
                        HarnessConfig cfg;
                        cfg.processor = proc;
                        cfg.iface = iface;
                        cfg.pattern = pat;
                        cfg.mode = mode;
                        cfg.optLevel = opt;
                        auto e = bench::nullErrors(cfg, runs);
                        errs.insert(errs.end(), e.begin(), e.end());
                    }
                }
                const double med = stats::median(errs);
                if (med < best.median) {
                    best.median = med;
                    best.min = stats::minOf(errs);
                    best.best_pattern = pat;
                    best.errors = errs;
                }
            }
            rows.push_back(std::move(best));
        }
    }

    // Table 3.
    std::cout << "Table 3: best pattern per tool "
                 "(median/min over all processors, opt levels)\n\n";
    TextTable t({"Mode", "Tool", "Best Pattern", "Median", "Min"});
    for (const auto &r : rows) {
        t.addRow({harness::countingModeName(r.mode),
                  harness::interfaceCode(r.iface),
                  harness::patternName(r.best_pattern),
                  fmtDouble(r.median, 1), fmtDouble(r.min, 1)});
    }
    t.print(std::cout);

    // Figure 6 box plots.
    for (auto mode :
         {CountingMode::UserKernel, CountingMode::User}) {
        std::cout << "\n--- " << harness::countingModeName(mode)
                  << " ---\n";
        std::vector<std::string> labels;
        std::vector<stats::BoxPlot> boxes;
        for (const char *want : {"PHpm", "PHpc", "PLpm", "PLpc",
                                 "pm", "pc"}) {
            for (const auto &r : rows) {
                if (r.mode == mode &&
                    std::string(harness::interfaceCode(r.iface)) ==
                        want) {
                    labels.emplace_back(want);
                    boxes.push_back(stats::makeBoxPlot(r.errors));
                }
            }
        }
        stats::renderBoxPlots(std::cout, labels, boxes);
    }

    // Paper anchors.
    auto median_of = [&](CountingMode mode, Interface iface) {
        for (const auto &r : rows)
            if (r.mode == mode && r.iface == iface)
                return r.median;
        return -1.0;
    };
    std::cout << "\nPaper's Table 3 medians (cross-processor):\n";
    bench::paperRef("u+k pm", 726,
                    median_of(CountingMode::UserKernel,
                              Interface::Pm));
    bench::paperRef("u+k PLpm", 742,
                    median_of(CountingMode::UserKernel,
                              Interface::PLpm));
    bench::paperRef("u+k PHpm", 844,
                    median_of(CountingMode::UserKernel,
                              Interface::PHpm));
    bench::paperRef("u+k pc", 163,
                    median_of(CountingMode::UserKernel,
                              Interface::Pc));
    bench::paperRef("u+k PLpc", 251,
                    median_of(CountingMode::UserKernel,
                              Interface::PLpc));
    bench::paperRef("u+k PHpc", 339,
                    median_of(CountingMode::UserKernel,
                              Interface::PHpc));
    bench::paperRef("user pm", 37,
                    median_of(CountingMode::User, Interface::Pm));
    bench::paperRef("user PLpm", 134,
                    median_of(CountingMode::User, Interface::PLpm));
    bench::paperRef("user PHpm", 236,
                    median_of(CountingMode::User, Interface::PHpm));
    bench::paperRef("user pc", 67,
                    median_of(CountingMode::User, Interface::Pc));
    bench::paperRef("user PLpc", 152,
                    median_of(CountingMode::User, Interface::PLpc));
    bench::paperRef("user PHpc", 236,
                    median_of(CountingMode::User, Interface::PHpc));

    std::cout
        << "\nShape checks (Sec. 4.2):\n"
        << "  - lower-level APIs are more accurate than PAPI "
           "layers;\n"
        << "  - perfmon wins for user-mode counting, perfctr wins "
           "for user+kernel;\n"
        << "  - note: in this reproduction perfctr's read-read beats "
           "its start-read\n"
        << "    (consistent with the paper's own Figs. 4/5, where pc "
           "read-read medians\n"
        << "    are 84-110; Table 3 of the paper lists start-read as "
           "pc's best).\n";
    return 0;
}
