/**
 * @file
 * Figure 1 of the paper: violin plots of the measurement error over
 * a large set of infrastructures and configurations — user-mode
 * errors in the upper violin, user+kernel errors in the lower one.
 * The paper's headline: a significant share of configurations incur
 * thousands of superfluous instructions.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/factor_space.hh"
#include "core/study.hh"
#include "stats/violin.hh"

int
main()
{
    using namespace pca;
    using harness::CountingMode;

    bench::banner("Figure 1",
                  "Measurement error in instructions (all "
                  "configurations)");

    // The full §3 factor space: all processors, interfaces,
    // patterns, optimization levels, 1, 2, 4 or 18 counters (each
    // where the processor has that many), both TSC settings.
    auto points = core::FactorSpace()
                      .counterCounts({1, 2, 4, 18})
                      .tscSettings({true, false})
                      .generate();
    // 12 runs per point: the paper's violins pool many measurements
    // per configuration, and the study engine runs a point's extra
    // runs on its one assembled program instead of booting a machine
    // from scratch each time.
    const auto table = core::runNullErrorStudy(
        points, 12, 20260704, core::StudyObsOptions::fromEnv());

    std::cout << "configurations: " << points.size()
              << ", measurements: " << table.size() << "\n\n";

    for (const char *mode : {"user", "user+kernel"}) {
        const auto errs = table.filtered("mode", mode).values();
        const auto violin = stats::makeViolin(errs);
        stats::renderViolin(std::cout,
                            std::string("errors, ") + mode + " mode",
                            violin);
        std::cout << '\n';
    }

    const auto user = table.filtered("mode", "user").values();
    const auto uk = table.filtered("mode", "user+kernel").values();
    std::cout << "Paper's reading of Figure 1:\n";
    bench::paperRef("user-mode error reaches (instructions)", 2500,
                    stats::maxOf(user));
    bench::paperRef("user+kernel error reaches (instructions)", 10000,
                    stats::maxOf(uk));
    bench::paperRef("user IQR (\"about 1500\" in Sec. 4)", 1500,
                    stats::summarize(user).iqr());
    std::cout << "\nShape check: minimum error close to zero, long "
                 "upper tail, user+kernel\nerrors well above "
                 "user-only errors.\n";
    std::cout << "  min user error:        "
              << stats::minOf(user) << "\n  min user+kernel error: "
              << stats::minOf(uk) << "\n  median ratio (uk/user):  "
              << fmtDouble(stats::median(uk) / stats::median(user), 2)
              << "x\n";
    return 0;
}
