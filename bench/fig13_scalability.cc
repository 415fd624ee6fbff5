/**
 * @file
 * Sec. 6.5 reproduction: toolflow compile-time scaling on quantum
 * supremacy circuits up to the 72-qubit Bristlecone-class grid, with
 * per-gate error rates sampled from superconducting-like statistics.
 * The paper reports that TriQ-1QOptCN scales to 72 qubits with compile
 * times independent of gate count (the mapper sees only the O(n^2)
 * distinct interacting pairs).
 */

#include <chrono>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "workloads/supremacy.hh"

using namespace triq;

namespace
{

double
compileTimeMs(const Circuit &program, const Device &dev, MapperKind kind)
{
    Calibration calib = dev.calibrate(1);
    CompileOptions opts;
    opts.level = OptLevel::OneQOptCN;
    opts.mapping.kind = kind;
    opts.mapping.nodeBudget = 200000;
    // Explicit wall-clock ceiling: the scalability sweep must terminate
    // even on configurations where the node budget alone is too lax.
    opts.budget = CompileBudget::withDeadlineMs(30000.0);
    opts.emitAssembly = false;
    auto res = compileForDevice(program, dev, calib, opts);
    return res.compileMs;
}

} // namespace

int
main()
{
    struct Config
    {
        int rows, cols, depth;
    };
    const Config configs[] = {
        {2, 3, 16}, {3, 4, 24}, {4, 4, 32}, {4, 6, 48},
        {6, 6, 64}, {6, 9, 96}, {6, 12, 128},
    };

    Table tab("Sec. 6.5: compile time for supremacy circuits "
              "(TriQ-1QOptCN)");
    tab.setHeader({"qubits", "depth", "2Q gates", "greedy(ms)",
                   "bnb(ms)", "smt(ms)"});
    for (const auto &cfg : configs) {
        Device dev("Grid" + std::to_string(cfg.rows * cfg.cols),
                   Topology::grid(cfg.rows, cfg.cols), GateSet::ibm(),
                   deviceByName("IBMQ14").noiseSpec());
        Circuit program = makeSupremacy(cfg.rows, cfg.cols, cfg.depth, 1);
        double greedy = compileTimeMs(program, dev, MapperKind::Greedy);
        double bnb =
            compileTimeMs(program, dev, MapperKind::BranchAndBound);
        // The SMT encoding is quadratic in device size per interaction;
        // measure it only where it stays snappy on one core (the B&B
        // engine carries the max-min objective to full scale).
        std::string smt = "-";
        if (smtMapperAvailable() && cfg.rows * cfg.cols <= 12)
            smt = fmtF(compileTimeMs(program, dev, MapperKind::Smt), 1);
        tab.addRow({fmtI(cfg.rows * cfg.cols), fmtI(cfg.depth),
                    fmtI(program.count2q()), fmtF(greedy, 1),
                    fmtF(bnb, 1), smt});
    }
    tab.print(std::cout);
    std::cout << "paper: full optimization of a 72-qubit, depth-128 "
                 "supremacy circuit completes;\ncompile time grows with "
                 "qubit count, not gate count\n";
    return 0;
}
