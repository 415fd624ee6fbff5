/**
 * @file
 * Pass ablations beyond the paper's Table-1 levels:
 *  (a) peephole inverse-pair cancellation (a rewrite TriQ as published
 *      does not perform; Sec. 8 compares against such optimizers);
 *  (b) crosstalk sensitivity: how predicted success degrades when
 *      simultaneous 2Q gates on adjacent edges interfere, and how much
 *      serialization recovers (motivates schedule-aware compilation,
 *      one of the paper's forward-looking directions).
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "core/serialize.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

void
peepholeAblation(int day, int trials)
{
    Device dev = deviceByName("IBMQ14");
    Table tab("ablation: peephole cancellation on IBMQ14 (" +
              std::to_string(trials) + " trials)");
    tab.setHeader({"benchmark", "2Q (off)", "2Q (on)", "success (off)",
                   "success (on)"});
    for (const std::string &name : benchmarkNames()) {
        Circuit program = makeBenchmark(name);
        Calibration calib = dev.calibrate(day);
        CompileOptions opts;
        opts.emitAssembly = false;
        opts.peephole = false;
        auto off = compileForDevice(program, dev, calib, opts);
        auto off_ex = bench::runCompiled(off, dev, day, trials);
        opts.peephole = true;
        auto on = compileForDevice(program, dev, calib, opts);
        auto on_ex = bench::runCompiled(on, dev, day, trials);
        tab.addRow({name, fmtI(off.stats.twoQ), fmtI(on.stats.twoQ),
                    bench::successCell(off_ex),
                    bench::successCell(on_ex)});
    }
    tab.print(std::cout);
    std::cout <<
        "Peres ends its Toffoli expansion with the same CNOT the "
        "program applies next,\nso the pass halves its 2Q count. "
        "QFT+IQFT boundary pairs stay blocked: the\nconservative pass "
        "will not commute phase gates off a CNOT target.\n\n";
}

void
crosstalkAblation(int trials)
{
    // Inflate crosstalk on an IBMQ14-like device, watch predicted
    // success degrade for parallel-heavy benchmarks, and measure how
    // much the serialization pass recovers (at the cost of idling).
    Table tab("ablation: crosstalk sensitivity and serialization "
              "recovery (HS6 on an IBMQ14-class device, " +
              std::to_string(trials) + " trials)");
    tab.setHeader({"crosstalk factor", "HS6", "HS6 serialized", "BV6"});
    Device base = deviceByName("IBMQ14");
    for (double factor : {0.0, 0.5, 1.0, 2.0}) {
        NoiseSpec spec = base.noiseSpec();
        spec.crosstalkFactor = factor;
        Device dev("IBMQ14", base.topology(), base.gateSet(), spec);
        Calibration calib = dev.calibrate(3);
        std::vector<std::string> row{fmtF(factor, 1)};

        auto hs = bench::runTriq(makeBenchmark("HS6"), dev,
                                 OptLevel::OneQOptCN, 3, trials);
        row.push_back(bench::successCell(hs.executed));
        Circuit serialized = serializeAdjacentTwoQ(
            hs.compiled.hwCircuit, dev.topology());
        ExecutionResult ser = executeNoisy(serialized, dev, calib, trials,
                                           12345, bench::execOptions());
        row.push_back(bench::successCell(ser));

        auto bv = bench::runTriq(makeBenchmark("BV6"), dev,
                                 OptLevel::OneQOptCN, 3, trials);
        row.push_back(bench::successCell(bv.executed));
        tab.addRow(row);
    }
    tab.print(std::cout);
    std::cout << "HS6 runs its CZ pairs simultaneously, so crosstalk "
                 "bites harder than on BV6's\nserial CNOT chain; "
                 "serializing adjacent 2Q gates buys the loss back "
                 "once the\ncrosstalk penalty exceeds the extra idle "
                 "decoherence\n";
}

} // namespace

int
main()
{
    const int day = bench::defaultDay();
    const int trials = bench::defaultTrials();
    peepholeAblation(day, trials);
    crosstalkAblation(trials);
    return 0;
}
