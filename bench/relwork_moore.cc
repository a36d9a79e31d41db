/**
 * @file
 * Related-work reproduction (paper §9, Moore's counting-mode cost
 * study): the cycle cost of start/stop and of read, per platform.
 * Moore reports one number per platform for PAPI on Linux/x86 (3524
 * cycles for start/stop, 1299 for read); the paper's §9 criticism is
 * that a single number hides the configuration and run-to-run
 * spread — which this bench makes visible by reporting the cost for
 * every interface and processor, with min/median over repeats.
 */

#include <iostream>

#include "bench_util.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::AccessPattern;
    using harness::CountingMode;
    using harness::HarnessConfig;
    using harness::Interface;
    using harness::NullBench;

    bench::banner("Related work (Moore)",
                  "Cycle cost of counter accesses");

    // Cycle c-delta of the null benchmark = cycles burnt by the
    // access calls inside the measured window.
    auto cycle_cost = [](cpu::Processor proc, Interface iface,
                         AccessPattern pat) {
        HarnessConfig cfg;
        cfg.processor = proc;
        cfg.iface = iface;
        cfg.pattern = pat;
        cfg.mode = CountingMode::UserKernel;
        cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
        std::vector<double> cycles;
        for (const StatusOr<harness::Measurement> &m :
             harness::measurePoint(cfg, NullBench{}, 7, [](int r) {
                 return 606 + static_cast<std::uint64_t>(r);
             }))
            cycles.push_back(static_cast<double>(m.value().delta()));
        return stats::summarize(cycles);
    };

    for (auto proc : cpu::allProcessors()) {
        std::cout << "--- " << cpu::microArch(proc).name << " ---\n";
        TextTable t({"interface", "start/stop cyc (med)",
                     "read pair cyc (med)", "start/stop min",
                     "read min"});
        for (auto iface : harness::allInterfaces()) {
            const auto ss =
                cycle_cost(proc, iface, AccessPattern::StartStop);
            std::string rr_med = "n/a", rr_min = "n/a";
            if (harness::patternSupported(iface,
                                          AccessPattern::ReadRead)) {
                const auto rr =
                    cycle_cost(proc, iface, AccessPattern::ReadRead);
                rr_med = fmtDouble(rr.median, 0);
                rr_min = fmtDouble(rr.min, 0);
            }
            t.addRow({harness::interfaceCode(iface),
                      fmtDouble(ss.median, 0), rr_med,
                      fmtDouble(ss.min, 0), rr_min});
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    // Moore's Linux/x86 PAPI numbers for comparison.
    const auto ss = cycle_cost(cpu::Processor::PentiumD,
                               Interface::PLpc,
                               AccessPattern::StartStop);
    const auto rr = cycle_cost(cpu::Processor::PentiumD,
                               Interface::PLpc,
                               AccessPattern::ReadRead);
    std::cout << "Moore's single numbers (PAPI, Linux/x86, unnamed "
                 "processor):\n";
    bench::paperRef("start/stop cycles", 3524, ss.median);
    bench::paperRef("read cycles", 1299, rr.median);
    std::cout << "\nShape check: costs lie in the same range, but "
                 "vary by interface,\nprocessor, and run — the "
                 "paper's point about single-number reports.\n";
    return 0;
}
