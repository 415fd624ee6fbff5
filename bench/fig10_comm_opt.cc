/**
 * @file
 * Fig. 10 reproduction: importance of communication optimization.
 * (a) 2Q gate counts on IBMQ14, TriQ-1QOpt (default mapping) vs
 *     TriQ-1QOptC (communication-optimized mapping); paper: up to 22x,
 *     geomean 2.1x.
 * (b) Same on Rigetti Agave; paper: up to 3.5x, geomean 1.3x.
 * (c) Success rates on IBMQ14 for both levels.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

void
gateCountTable(const std::string &dev_name, const char *paper_note)
{
    Device dev = deviceByName(dev_name);
    const int day = bench::defaultDay();
    Table tab("Fig. 10: 2Q gate counts on " + dev.name());
    tab.setHeader({"benchmark", "TriQ-1QOpt", "TriQ-1QOptC", "reduction"});
    bench::Ratios ratios;
    bench::forEachStudyBenchmark(
        dev,
        [&](const std::string &name, const Circuit &program) {
            auto deflt =
                bench::compileTriq(program, dev, OptLevel::OneQOpt, day);
            auto comm =
                bench::compileTriq(program, dev, OptLevel::OneQOptC, day);
            double ratio = comm.stats.twoQ > 0
                               ? static_cast<double>(deflt.stats.twoQ) /
                                     comm.stats.twoQ
                               : 0.0;
            ratios.add(ratio);
            tab.addRow({name, fmtI(deflt.stats.twoQ),
                        fmtI(comm.stats.twoQ), fmtFactor(ratio)});
        },
        [&](const std::string &name) {
            tab.addRow({name, "X", "X", "-"});
        });
    tab.print(std::cout);
    std::cout << "reduction " << ratios.summary() << "\npaper: "
              << paper_note << "\n\n";
}

} // namespace

int
main()
{
    gateCountTable("IBMQ14", "up to 22x, geomean 2.1x");
    gateCountTable("Agave", "up to 3.5x, geomean 1.3x");

    // (c) Success rates on IBMQ14.
    Device dev = deviceByName("IBMQ14");
    const int day = bench::defaultDay();
    const int trials = bench::defaultTrials();
    Table tab("Fig. 10(c): success rate on IBMQ14 (" +
              std::to_string(trials) + " trials)");
    tab.setHeader({"benchmark", "TriQ-1QOpt", "TriQ-1QOptC"});
    bench::forEachStudyBenchmark(
        dev, [&](const std::string &name, const Circuit &program) {
            auto o = bench::runTriq(program, dev, OptLevel::OneQOpt, day,
                                    trials);
            auto c = bench::runTriq(program, dev, OptLevel::OneQOptC, day,
                                    trials);
            tab.addRow({name, bench::successCell(o.executed),
                        bench::successCell(c.executed)});
        });
    tab.print(std::cout);
    std::cout << "(* = correct answer not modal; paper: failed run)\n"
              << "paper: comm-opt lets BV6/BV8/Toffoli succeed where the "
                 "default mapping fails;\nQFT can regress when "
                 "noise-unaware placement lands on bad qubits\n";
    return 0;
}
