/**
 * @file
 * Related-work reproduction (paper §9): measuring a micro-benchmark
 * with the standalone tools (perfex, pfmon, papiex) instead of
 * fine-grained in-process instrumentation. The tools measure the
 * whole process — including loading, dynamic linking and libc
 * startup — so the error for short benchmarks exceeds 60000%, which
 * is why the paper excludes tool-based numbers from its fine-grained
 * study.
 */

#include <iostream>

#include "bench_util.hh"
#include "harness/session.hh"
#include "harness/tool.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::HarnessConfig;
    using harness::HarnessSession;
    using harness::LoopBench;
    using harness::ToolConfig;
    using harness::ToolKind;

    bench::banner("Related work (perfex/pfmon/papiex)",
                  "Whole-process tools vs in-process measurement");

    const LoopBench small_loop(1000);   // 3001 instructions
    const LoopBench big_loop(10000000); // 30M instructions

    TextTable t({"tool", "benchmark", "expected", "measured",
                 "error", "error %"});
    double worst_small_pct = 0;
    for (ToolKind tool :
         {ToolKind::Perfex, ToolKind::Pfmon, ToolKind::Papiex}) {
        for (const LoopBench *bench : {&small_loop, &big_loop}) {
            ToolConfig cfg;
            cfg.tool = tool;
            cfg.processor = cpu::Processor::Core2Duo;
            cfg.seed = 99;
            const auto m =
                harness::measureProcessWithTool(cfg, *bench);
            const double pct = 100.0 *
                static_cast<double>(m.error()) /
                static_cast<double>(m.expected);
            if (bench == &small_loop)
                worst_small_pct = std::max(worst_small_pct, pct);
            t.addRow({harness::toolName(tool),
                      "loop/" + std::to_string(bench->iterations()),
                      fmtCount(static_cast<long long>(m.expected)),
                      fmtCount(m.delta()),
                      fmtCount(m.error()),
                      fmtDouble(pct, 1) + "%"});
        }
    }
    t.print(std::cout);

    // In-process comparison for the same small benchmark.
    HarnessConfig in_process;
    in_process.processor = cpu::Processor::Core2Duo;
    in_process.iface = harness::Interface::Pm;
    in_process.pattern = harness::AccessPattern::ReadRead;
    in_process.mode = harness::CountingMode::UserKernel;
    in_process.seed = 99;
    const auto fine =
        HarnessSession(in_process, small_loop).run(in_process.seed);
    std::cout << "\nin-process (pm, read-read) for loop/1000: error "
              << fine.error() << " instructions ("
              << fmtDouble(100.0 * static_cast<double>(fine.error()) /
                               static_cast<double>(fine.expected),
                           1)
              << "%)\n\n";

    bench::paperRef("worst tool error for a small benchmark (%)",
                    60000, worst_small_pct);
    std::cout << "\nShape check: tool-based errors are 2-5 orders of "
                 "magnitude larger than\nin-process errors for short "
                 "benchmarks, and become tolerable only for\n"
                 "long-running ones — exactly why the paper excludes "
                 "them (Sec. 9).\n";
    return 0;
}
