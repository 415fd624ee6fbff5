/**
 * @file
 * Fig. 8 reproduction: native 1Q operation counts (actual X/Y pulses)
 * for TriQ-N vs TriQ-1QOpt on IBMQ14, Rigetti Agave and UMDTI.
 * Paper: up to 4.6x reduction; geomean 1.4x (IBM), 1.4x (Rigetti),
 * 1.6x (UMD).
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
    for (const char *dev_name : {"IBMQ14", "Agave", "UMDTI"}) {
        Device dev = deviceByName(dev_name);
        Table tab("Fig. 8: native 1Q pulse counts on " + dev.name());
        tab.setHeader({"benchmark", "TriQ-N", "TriQ-1QOpt", "reduction"});
        bench::Ratios ratios;
        bench::forEachStudyBenchmark(
            dev,
            [&](const std::string &name, const Circuit &program) {
                auto naive =
                    bench::compileTriq(program, dev, OptLevel::N, day);
                auto fused = bench::compileTriq(program, dev,
                                                OptLevel::OneQOpt, day);
                double ratio =
                    fused.stats.pulses1q > 0
                        ? static_cast<double>(naive.stats.pulses1q) /
                              fused.stats.pulses1q
                        : 0.0;
                ratios.add(ratio);
                tab.addRow({name, fmtI(naive.stats.pulses1q),
                            fmtI(fused.stats.pulses1q),
                            fmtFactor(ratio)});
            },
            [&](const std::string &name) {
                tab.addRow({name, "X", "X", "-"});
            });
        tab.print(std::cout);
        std::cout << "reduction " << ratios.summary() << "\n";
        const char *paper = dev.name() == "UMDTI" ? "1.6x" : "1.4x";
        std::cout << "paper geomean: " << paper << " (max 4.6x)\n\n";
    }
    return 0;
}
