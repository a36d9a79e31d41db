/**
 * @file
 * Figure 12 of the paper: the cycles-by-loop-size data for pm on K8
 * broken down by measurement pattern and optimization level. Each
 * (pattern, opt) cell forms a line with one slope; neither factor
 * alone determines the slope — only the combination does, because
 * together they determine the executable's layout and therefore the
 * loop's placement.
 */

#include <iostream>
#include <cmath>
#include <map>
#include <set>

#include "bench_util.hh"
#include "core/study.hh"
#include "stats/regression.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;

    bench::banner("Figure 12",
                  "Cycles by loop size, by pattern and opt level "
                  "(pm on K8)");

    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.interfaces = {harness::Interface::Pm};
    opt.loopSizes = {1, 250000, 500000, 750000, 1000000};
    opt.runsPerConfig = 1;
    opt.seed = 1212;
    const auto table = core::runCycleStudy(opt);

    // Slope (cycles per iteration) per (pattern, opt) cell.
    std::map<std::string, std::map<std::string, double>> slopes;
    const auto pat_idx = table.columnIndex("pattern");
    const auto opt_idx = table.columnIndex("opt");
    const auto size_idx = table.columnIndex("loopsize");
    for (const auto &group : table.groupBy({"pattern", "opt"})) {
        std::vector<double> xs, ys;
        for (std::size_t r = 0; r < table.size(); ++r) {
            if (table.cell(r, pat_idx) != group.keys[0] ||
                table.cell(r, opt_idx) != group.keys[1])
                continue;
            xs.push_back(std::stod(table.cell(r, size_idx)));
            ys.push_back(table.value(r));
        }
        slopes[group.keys[0]][group.keys[1]] =
            stats::linearFit(xs, ys).slope;
    }

    TextTable t({"pattern", "-O0", "-O1", "-O2", "-O3"});
    for (const auto &[pat, per_opt] : slopes) {
        std::vector<std::string> row{pat};
        for (const char *o : {"O0", "O1", "O2", "O3"})
            row.push_back(fmtDouble(per_opt.at(o), 2));
        t.addRow(row);
    }
    t.print(std::cout);
    std::cout << "\n(cell value = cycles per loop iteration for "
                 "that pattern x opt executable)\n\n";

    // Neither factor alone determines the slope.
    auto column_uniform = [&](const char *o) {
        std::set<long> vals;
        for (const auto &[pat, per_opt] : slopes)
            vals.insert(std::lround(per_opt.at(o) * 10));
        return vals.size() == 1;
    };
    auto row_uniform = [&](const std::string &pat) {
        std::set<long> vals;
        for (const char *o : {"O0", "O1", "O2", "O3"})
            vals.insert(std::lround(slopes.at(pat).at(o) * 10));
        return vals.size() == 1;
    };
    bool all_columns_uniform = true, all_rows_uniform = true;
    for (const char *o : {"O0", "O1", "O2", "O3"})
        all_columns_uniform &= column_uniform(o);
    for (const auto &[pat, per_opt] : slopes)
        all_rows_uniform &= row_uniform(pat);

    std::set<long> distinct;
    for (const auto &[pat, per_opt] : slopes)
        for (const char *o : {"O0", "O1", "O2", "O3"})
            distinct.insert(std::lround(per_opt.at(o) * 10));

    std::cout << "Shape checks (paper Sec. 6):\n"
              << "  distinct slopes across the 16 cells: "
              << distinct.size() << " (paper: 2 on K8: ~2 and ~3)\n"
              << "  opt level alone determines the slope:   "
              << (all_rows_uniform ? "yes" : "no (as in the paper)")
              << '\n'
              << "  pattern alone determines the slope:     "
              << (all_columns_uniform ? "yes"
                                      : "no (as in the paper)")
              << '\n'
              << "\nThe combination of pattern and optimization "
                 "level produces a different\nexecutable, placing "
                 "the (identical) loop code at a different address;\n"
                 "the placement alone decides between 2 and 3 "
                 "cycles per iteration.\n";
    return 0;
}
