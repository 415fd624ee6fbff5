/**
 * @file
 * Communication-topology what-if (Sec. 7): "machines with richer qubit
 * connectivity allow a wider variety of programs to execute
 * successfully." Here the same 8 qubits with identical error statistics
 * are wired as a line, a ring, a 2x4 grid and a complete graph; every
 * benchmark that fits is compiled noise-aware and executed. Topology is
 * the only variable.
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
    const int trials = bench::defaultTrials();
    const int day = bench::defaultDay();

    // Uniform error rates (no spatial/temporal spread): the comparison
    // must isolate topology, not which edges happened to be good.
    NoiseSpec spec = deviceByName("IBMQ14").noiseSpec();
    spec.spatialSigma = 0.0;
    spec.temporalSigma = 0.0;
    struct Variant
    {
        const char *name;
        Topology topo;
    };
    Variant variants[] = {
        {"line", Topology::line(8, true)},
        {"ring", Topology::ring(8, true)},
        {"grid2x4", Topology::grid(2, 4, true)},
        {"full", Topology::full(8)},
    };

    Table tab("Sec. 7 what-if: same 8 qubits / same errors, different "
              "topology (" +
              std::to_string(trials) + " trials, TriQ-1QOptCN)");
    tab.setHeader({"benchmark", "line 2Q", "ring 2Q", "grid 2Q",
                   "full 2Q", "line", "ring", "grid", "full"});
    std::vector<std::vector<double>> succ(4);
    for (const std::string &name : benchmarkNames()) {
        Circuit program = makeBenchmark(name);
        if (program.numQubits() > 8)
            continue;
        std::vector<std::string> counts, rates;
        for (size_t v = 0; v < 4; ++v) {
            // IBM gate set needs directed edges; the complete graph is
            // treated as an undirected CZ-style target.
            GateSet gs = variants[v].topo.fullyConnected()
                             ? GateSet::rigetti()
                             : GateSet::ibm();
            Device dev(std::string("Topo-") + variants[v].name,
                       variants[v].topo, gs, spec);
            auto pt = bench::runTriq(program, dev, OptLevel::OneQOptCN,
                                     day, trials);
            counts.push_back(fmtI(pt.compiled.stats.twoQ));
            rates.push_back(bench::successCell(pt.executed));
            succ[v].push_back(pt.executed.successRate);
        }
        tab.addRow({name, counts[0], counts[1], counts[2], counts[3],
                    rates[0], rates[1], rates[2], rates[3]});
    }
    tab.print(std::cout);
    std::cout << "\nmean success: line " << fmtF(mean(succ[0]), 3)
              << ", ring " << fmtF(mean(succ[1]), 3) << ", grid "
              << fmtF(mean(succ[2]), 3) << ", full "
              << fmtF(mean(succ[3]), 3)
              << "\nricher connectivity -> fewer swaps -> higher "
                 "success, the Sec. 7 ordering\n";
    return 0;
}
