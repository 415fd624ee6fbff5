/**
 * @file
 * Routing-policy ablation (Sec. 4.4): hold the placement fixed (the
 * identity layout) and vary only which reliability matrix steers SWAP
 * insertion — average error rates (hop-shortest paths) versus the
 * day's calibration (most-reliable paths). Isolates the router's share
 * of the noise-adaptivity win from the mapper's.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/decompose.hh"
#include "core/esp.hh"
#include "core/router.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

struct Outcome
{
    int twoQ;
    double success;
};

Outcome
routeAndRun(const Circuit &program, const Device &dev,
            const Calibration &truth, bool noise_aware_paths, int day,
            int trials)
{
    Circuit lowered = decomposeToCnotBasis(program);
    Calibration avg = dev.averageCalibration();
    ReliabilityMatrix rel(dev.topology(),
                          noise_aware_paths ? truth : avg,
                          dev.vendor());
    ProgramInfo info = ProgramInfo::fromCircuit(lowered);
    Mapping mapping = trivialMapping(info, rel);
    RoutingResult routed =
        routeCircuit(lowered, mapping, dev.topology(), rel);
    TranslateResult tr = translateForDevice(
        routed.circuit, dev.topology(), dev.gateSet(),
        TranslateOptions{});
    ExecutionResult run = executeNoisy(
        tr.circuit, dev, truth, trials,
        0x5EED0000 + static_cast<uint64_t>(day), bench::execOptions());
    return {tr.stats.twoQ, run.successRate};
}

} // namespace

int
main()
{
    const int trials = bench::defaultTrials();
    Device dev = deviceByName("IBMQ16");

    // Average over several days: path choice only matters when the
    // day's bad edges sit on the hop-shortest route.
    constexpr int kDays = 4;
    Table tab("Sec. 4.4 ablation: hop-shortest vs most-reliable swap "
              "paths, identity layout on " +
              dev.name() + " (" + std::to_string(trials) +
              " trials, avg of " + std::to_string(kDays) + " days)");
    tab.setHeader({"benchmark", "2Q (hop)", "2Q (reliable)",
                   "success (hop)", "success (reliable)",
                   "improvement"});
    std::vector<double> ratios;
    for (const std::string &name :
         {std::string("BV6"), std::string("BV8"), std::string("QFT"),
          std::string("Adder"), std::string("Fredkin"),
          std::string("Toffoli")}) {
        Circuit program = makeBenchmark(name);
        double hop_sum = 0.0, rel_sum = 0.0;
        int hop_2q = 0, rel_2q = 0;
        for (int day = 1; day <= kDays; ++day) {
            Calibration truth = dev.calibrate(day);
            Outcome hop =
                routeAndRun(program, dev, truth, false, day, trials);
            Outcome reliable =
                routeAndRun(program, dev, truth, true, day, trials);
            hop_sum += hop.success;
            rel_sum += reliable.success;
            hop_2q = hop.twoQ;
            rel_2q = reliable.twoQ;
        }
        double hop_avg = hop_sum / kDays, rel_avg = rel_sum / kDays;
        double r = hop_avg > 0 ? rel_avg / hop_avg : 0.0;
        if (r > 0)
            ratios.push_back(r);
        tab.addRow({name, fmtI(hop_2q), fmtI(rel_2q), fmtF(hop_avg, 3),
                    fmtF(rel_avg, 3), fmtFactor(r)});
    }
    tab.print(std::cout);
    std::cout << "geomean: " << fmtFactor(geomean(ratios))
              << "\nfinding: with the placement pinned, path choice "
                 "alone moves little (and can\nregress when dodging a "
                 "bad edge costs extra swaps whose dynamic remapping\n"
                 "the static estimate cannot see) — the noise-aware "
                 "*placement* carries most\nof TriQ-1QOptCN's win, "
                 "consistent with Sec. 6.3's emphasis on mapping\n";
    return 0;
}
