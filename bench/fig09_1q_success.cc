/**
 * @file
 * Fig. 9 reproduction: measured success rate for TriQ-N vs TriQ-1QOpt
 * on IBMQ14 and UMDTI. Paper: 1Q fusion and error-free Z rotations give
 * up to 1.26x (geomean 1.09x IBM, 1.03x UMD).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

int
main()
{
    const int day = bench::defaultDay();
    const int trials = bench::defaultTrials();
    for (const char *dev_name : {"IBMQ14", "UMDTI"}) {
        Device dev = deviceByName(dev_name);
        Table tab("Fig. 9: success rate, TriQ-N vs TriQ-1QOpt on " +
                  dev.name() + " (" + std::to_string(trials) + " trials)");
        tab.setHeader(
            {"benchmark", "TriQ-N", "TriQ-1QOpt", "improvement"});
        bench::Ratios ratios;
        bench::forEachStudyBenchmark(
            dev,
            [&](const std::string &name, const Circuit &program) {
                auto n = bench::runTriq(program, dev, OptLevel::N, day,
                                        trials);
                auto o = bench::runTriq(program, dev, OptLevel::OneQOpt,
                                        day, trials);
                double ratio = n.executed.successRate > 0
                                   ? o.executed.successRate /
                                         n.executed.successRate
                                   : 0.0;
                ratios.add(ratio);
                tab.addRow({name, bench::successCell(n.executed),
                            bench::successCell(o.executed),
                            fmtFactor(ratio)});
            },
            [&](const std::string &name) {
                tab.addRow({name, "X", "X", "-"});
            });
        tab.print(std::cout);
        std::cout << "(* = correct answer not modal; paper plots these "
                     "as failed runs)\n";
        std::cout << "improvement " << ratios.summary() << "\n";
        std::cout << "paper geomean: "
                  << (dev.name() == "UMDTI" ? "1.03x" : "1.09x")
                  << " (max 1.26x)\n\n";
    }
    return 0;
}
