/**
 * @file
 * Mapper ablation (Sec. 4.3 design discussion): max-min objective vs
 * the whole-graph reliability product of prior work, across engines.
 * The paper's claim: max-min prunes drastically better (their SMT runs
 * three orders of magnitude faster than [46]) while giving comparable
 * success rates. This harness measures search nodes, compile time,
 * objective values and the resulting ESP on real device models.
 */

#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/decompose.hh"
#include "core/esp.hh"
#include "core/router.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

using namespace triq;

namespace
{

struct Point
{
    double ms;
    long nodes;
    double minRel;
    double esp;
    bool optimal;
};

Point
run(const Circuit &program, const Device &dev, const Calibration &calib,
    MappingObjective objective)
{
    Circuit lowered = decomposeToCnotBasis(program);
    ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
    ProgramInfo info = ProgramInfo::fromCircuit(lowered);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    opts.objective = objective;
    opts.nodeBudget = 5000000;
    opts.budget = CompileBudget::withDeadlineMs(60000.0);
    auto t0 = std::chrono::steady_clock::now();
    Mapping m = mapQubits(info, rel, opts);
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    RoutingResult routed =
        routeCircuit(lowered, m, dev.topology(), rel);
    TranslateResult tr = translateForDevice(
        routed.circuit, dev.topology(), dev.gateSet(),
        TranslateOptions{});
    double esp = estimatedSuccessProbability(tr.circuit, dev.topology(),
                                             calib);
    return {ms, m.nodesExplored, m.minReliability, esp, m.optimal};
}

} // namespace

int
main()
{
    const int day = bench::defaultDay();
    Table tab("ablation: max-min vs product mapping objective "
              "(branch-and-bound, exact)");
    tab.setHeader({"device", "benchmark", "maxmin nodes", "product nodes",
                   "node ratio", "maxmin ms", "product ms", "maxmin ESP",
                   "product ESP"});
    struct Case
    {
        const char *device;
        const char *bench;
    };
    const Case cases[] = {
        {"IBMQ14", "BV6"},    {"IBMQ14", "BV8"},  {"IBMQ14", "QFT"},
        {"IBMQ14", "Adder"},  {"IBMQ16", "BV8"},  {"IBMQ16", "QFT"},
        {"Aspen1", "Adder"},  {"Aspen3", "BV6"},  {"UMDTI", "Toffoli"},
    };
    for (const auto &c : cases) {
        Device dev = deviceByName(c.device);
        Calibration calib = dev.calibrate(day);
        Circuit program = makeBenchmark(c.bench);
        Point mm = run(program, dev, calib, MappingObjective::MaxMin);
        Point pr = run(program, dev, calib, MappingObjective::Product);
        double ratio = mm.nodes > 0
                           ? static_cast<double>(pr.nodes) / mm.nodes
                           : 0.0;
        tab.addRow({c.device, c.bench, fmtI(mm.nodes), fmtI(pr.nodes),
                    fmtFactor(ratio), fmtF(mm.ms, 2), fmtF(pr.ms, 2),
                    fmtF(mm.esp, 3), fmtF(pr.esp, 3)});
    }
    tab.print(std::cout);
    std::cout <<
        "\npaper: the max-min objective lets the solver discard bad\n"
        "placements early; product-objective search must place most\n"
        "qubits before its bound bites (Sec. 4.3). ESPs stay "
        "comparable.\n\n";

    // Scaling comparison on supremacy circuits (greedy vs exact).
    Table scale("ablation: mapper engines on supremacy circuits");
    scale.setHeader(
        {"qubits", "engine", "objective", "ms", "min reliability"});
    for (int side : {4, 5, 6}) {
        Device dev("Grid" + std::to_string(side * side),
                   Topology::grid(side, side), GateSet::ibm(),
                   deviceByName("IBMQ14").noiseSpec());
        Calibration calib = dev.calibrate(1);
        Circuit prog =
            makeSupremacy(side, side, 8 * side, 1, false);
        Circuit lowered = decomposeToCnotBasis(prog);
        ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
        ProgramInfo info = ProgramInfo::fromCircuit(lowered);
        for (MapperKind kind :
             {MapperKind::Greedy, MapperKind::BranchAndBound}) {
            MappingOptions opts;
            opts.kind = kind;
            opts.nodeBudget = 100000;
            opts.budget = CompileBudget::withDeadlineMs(30000.0);
            auto t0 = std::chrono::steady_clock::now();
            Mapping m = mapQubits(info, rel, opts);
            double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
            scale.addRow({fmtI(side * side),
                          kind == MapperKind::Greedy ? "greedy"
                                                     : "bnb(100k)",
                          "maxmin", fmtF(ms, 1),
                          fmtF(m.minReliability, 4)});
        }
    }
    scale.print(std::cout);
    return 0;
}
