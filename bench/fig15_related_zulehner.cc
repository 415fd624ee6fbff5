/**
 * @file
 * Sec. 8 comparison point vs [71] (Zulehner-Paler-Wille A* mapping):
 * "Compared to the open source implementation of [71], TriQ reduces 2Q
 * gate count by 1.2x (geomean), up to 2x." This harness runs the
 * layered A* router model against TriQ-1QOptC (both noise-unaware, so
 * the comparison isolates placement + routing policy) on the IBM
 * machines and reports translated 2Q gate counts.
 */

#include <iostream>

#include "baseline/astar_router.hh"
#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/decompose.hh"
#include "core/translate.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

int
astarTwoQCount(const Circuit &program, const Device &dev)
{
    Circuit lowered = decomposeToCnotBasis(program);
    AstarRoutingResult routed =
        routeAstarLayered(lowered, dev.topology());
    TranslateResult tr = translateForDevice(
        routed.circuit, dev.topology(), dev.gateSet(),
        TranslateOptions{});
    return tr.stats.twoQ;
}

} // namespace

int
main()
{
    for (const char *dev_name : {"IBMQ14", "IBMQ16"}) {
        Device dev = deviceByName(dev_name);
        Calibration calib = dev.calibrate(bench::defaultDay());
        Table tab("Sec. 8: 2Q gate count, A*-layered ([71] model) vs "
                  "TriQ-1QOptC on " +
                  dev.name());
        tab.setHeader(
            {"benchmark", "A* layered", "TriQ-1QOptC", "reduction"});
        std::vector<double> ratios;
        for (const std::string &name : benchmarkNames()) {
            Circuit program = makeBenchmark(name);
            int astar = astarTwoQCount(program, dev);
            CompileOptions opts;
            opts.level = OptLevel::OneQOptC;
            opts.emitAssembly = false;
            auto triq = compileForDevice(program, dev, calib, opts);
            double r = triq.stats.twoQ > 0
                           ? static_cast<double>(astar) /
                                 triq.stats.twoQ
                           : 0.0;
            if (r > 0)
                ratios.push_back(r);
            tab.addRow({name, fmtI(astar), fmtI(triq.stats.twoQ),
                        fmtFactor(r)});
        }
        tab.print(std::cout);
        std::cout << "geomean reduction: " << fmtFactor(geomean(ratios))
                  << "  max: " << fmtFactor(maxOf(ratios))
                  << "\npaper: geomean 1.2x, up to 2x\n\n";
    }
    return 0;
}
