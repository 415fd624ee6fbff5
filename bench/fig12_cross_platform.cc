/**
 * @file
 * Fig. 12 reproduction: success rate for the 12 benchmarks on all seven
 * systems, compiled with TriQ-1QOptCN. The paper's observations to
 * check: UMDTI leads on benchmarks that fit its 5 qubits; triangle
 * benchmarks (Toffoli/Fredkin/Or/Peres) do well on IBMQ5's bowtie;
 * Agave trails due to its error rates; more qubits help when the
 * application-topology match is reasonable.
 *
 * The whole 12x7 grid is compiled in one sweep-engine pass (parallel,
 * deduplicated, memoized in the process compile cache — see
 * src/service/sweep.hh); only the noisy executions then run per cell.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

int
main()
{
    const int day = bench::defaultDay();
    const int trials = bench::defaultTrials();

    SweepConfig cfg;
    for (const std::string &name : benchmarkNames())
        cfg.programs.push_back({name, makeBenchmark(name)});
    cfg.devices = allStudyDevices();
    cfg.days = {day};
    cfg.levels = {OptLevel::OneQOptCN};
    cfg.options.emitAssembly = false;
    SweepResult sweep = runSweep(cfg, &bench::processCompileCache());

    Table tab("Fig. 12: success rate, 12 benchmarks x 7 systems, "
              "TriQ-1QOptCN (" +
              std::to_string(trials) + " trials)");
    std::vector<std::string> header{"benchmark"};
    for (const Device &d : cfg.devices)
        header.push_back(d.name());
    tab.setHeader(header);

    // Cells come back in grid order: programs x devices (one day, one
    // level), so the table is a straight walk.
    const size_t nd = cfg.devices.size();
    for (size_t pi = 0; pi < cfg.programs.size(); ++pi) {
        std::vector<std::string> row{cfg.programs[pi].name};
        for (size_t di = 0; di < nd; ++di) {
            const SweepCell &cell = sweep.cells[pi * nd + di];
            if (cell.source == CellSource::Skipped) {
                row.push_back("X");
                continue;
            }
            const Device &dev = cfg.devices[di];
            ExecutionResult ex = executeNoisy(
                cell.result->hwCircuit, dev, dev.calibrate(day), trials,
                0x5EED0000 + static_cast<uint64_t>(day),
                bench::execOptions());
            row.push_back(bench::successCell(ex));
        }
        tab.addRow(row);
    }
    tab.print(std::cout);
    std::cout << "(X = benchmark too large for machine; * = correct "
                 "answer not modal, a failed run)\n";
    std::cout << "compiled " << sweep.stats.compiles << " of "
              << sweep.stats.cells << " cells ("
              << sweep.stats.cacheHits << " cache hits) in "
              << sweep.stats.wallMs << " ms\n";
    return 0;
}
