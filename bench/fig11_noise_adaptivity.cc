/**
 * @file
 * Fig. 11 reproduction: importance of noise-adaptivity.
 * (a,b) IBMQ14: Qiskit-model vs TriQ-1QOptC vs TriQ-1QOptCN — 2Q gate
 *       counts and success rates (paper: up to 28x over Qiskit, geomean
 *       3.0x; up to 2.8x over 1QOptC, geomean 1.4x).
 * (c,d) Rigetti Agave / Aspen1: Quil-model vs TriQ-1QOptCN success
 *       rates (paper: up to 2.3x, geomean 1.45x).
 * (e,f) UMDTI: Toffoli / Fredkin chains of increasing length,
 *       TriQ-1QOptC vs TriQ-1QOptCN (paper: up to 1.47x / 1.35x,
 *       gains grow with program length).
 */

#include <iostream>

#include "baseline/vendor_compilers.hh"
#include "bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

void
ibmPanel(int day, int trials)
{
    Device dev = deviceByName("IBMQ14");
    Table counts("Fig. 11(a): 2Q gate count on IBMQ14");
    counts.setHeader(
        {"benchmark", "Qiskit", "TriQ-1QOptC", "TriQ-1QOptCN"});
    Table succ("Fig. 11(b): success rate on IBMQ14 (" +
               std::to_string(trials) + " trials)");
    succ.setHeader({"benchmark", "Qiskit", "TriQ-1QOptC", "TriQ-1QOptCN",
                    "CN/Qiskit", "CN/C"});
    bench::Ratios vs_qiskit, vs_c;
    bench::forEachStudyBenchmark(
        dev, [&](const std::string &name, const Circuit &program) {
            auto qk = compileQiskitLike(program, dev);
            auto qk_ex = bench::runCompiled(qk, dev, day, trials);
            auto c = bench::runTriq(program, dev, OptLevel::OneQOptC, day,
                                    trials);
            auto cn = bench::runTriq(program, dev, OptLevel::OneQOptCN,
                                     day, trials);
            counts.addRow({name, fmtI(qk.stats.twoQ),
                           fmtI(c.compiled.stats.twoQ),
                           fmtI(cn.compiled.stats.twoQ)});
            double rq = qk_ex.successRate > 0
                            ? cn.executed.successRate / qk_ex.successRate
                            : 0.0;
            double rc = c.executed.successRate > 0
                            ? cn.executed.successRate /
                                  c.executed.successRate
                            : 0.0;
            vs_qiskit.add(rq);
            vs_c.add(rc);
            succ.addRow({name, bench::successCell(qk_ex),
                         bench::successCell(c.executed),
                         bench::successCell(cn.executed), fmtFactor(rq),
                         fmtFactor(rc)});
        });
    counts.print(std::cout);
    std::cout << "\n";
    succ.print(std::cout);
    std::cout << "CN/Qiskit " << vs_qiskit.summary()
              << "; paper: 3.0x (max 28x)\n";
    std::cout << "CN/C " << vs_c.summary()
              << "; paper: 1.4x (max 2.8x)\n\n";
}

void
rigettiPanel(const std::string &dev_name, int day, int trials)
{
    Device dev = deviceByName(dev_name);
    Table tab("Fig. 11(c/d): success rate on " + dev.name() + " (" +
              std::to_string(trials) + " trials)");
    tab.setHeader({"benchmark", "Quil", "TriQ-1QOptCN", "improvement"});
    bench::Ratios ratios;
    bench::forEachStudyBenchmark(
        dev,
        [&](const std::string &name, const Circuit &program) {
            auto ql = compileQuilLike(program, dev);
            auto ql_ex = bench::runCompiled(ql, dev, day, trials);
            auto cn = bench::runTriq(program, dev, OptLevel::OneQOptCN,
                                     day, trials);
            double r = ql_ex.successRate > 0
                           ? cn.executed.successRate / ql_ex.successRate
                           : 0.0;
            ratios.add(r);
            tab.addRow({name, bench::successCell(ql_ex),
                        bench::successCell(cn.executed), fmtFactor(r)});
        },
        [&](const std::string &name) {
            tab.addRow({name, "X", "X", "-"});
        });
    tab.print(std::cout);
    std::cout << ratios.summary() << "; paper: 1.45x (max 2.3x)\n\n";
}

void
umdChains(int first_day, int trials)
{
    // Averaged over several calibration days: on a fully connected
    // machine the noise-unaware level picks an *arbitrary* ion triplet,
    // which is lucky on some days and unlucky on others; the mean
    // exposes the systematic gap the paper measures.
    constexpr int kDays = 4;
    Device dev = deviceByName("UMDTI");
    for (bool fredkin : {false, true}) {
        const int maxlen = fredkin ? 7 : 8;
        Table tab(std::string("Fig. 11") + (fredkin ? "(f)" : "(e)") +
                  ": " + (fredkin ? "Fredkin" : "Toffoli") +
                  " chains on UMDTI (" + std::to_string(trials) +
                  " trials, avg of " + std::to_string(kDays) + " days)");
        tab.setHeader({"chain length", "TriQ-1QOptC", "TriQ-1QOptCN",
                       "improvement"});
        for (int k = 1; k <= maxlen; ++k) {
            Circuit program =
                fredkin ? makeFredkinChain(k) : makeToffoliChain(k);
            double sum_c = 0.0, sum_cn = 0.0;
            for (int day = first_day; day < first_day + kDays; ++day) {
                sum_c += bench::runTriq(program, dev, OptLevel::OneQOptC,
                                        day, trials)
                             .executed.successRate;
                sum_cn += bench::runTriq(program, dev,
                                         OptLevel::OneQOptCN, day,
                                         trials)
                              .executed.successRate;
            }
            double c = sum_c / kDays, cn = sum_cn / kDays;
            tab.addRow({fmtI(k), fmtF(c, 3), fmtF(cn, 3),
                        fmtFactor(c > 0 ? cn / c : 0.0)});
        }
        tab.print(std::cout);
        std::cout << "paper: up to " << (fredkin ? "1.35x" : "1.47x")
                  << ", gains grow with length\n\n";
    }
}

} // namespace

int
main()
{
    const int day = bench::defaultDay();
    const int trials = bench::defaultTrials();
    ibmPanel(day, trials);
    rigettiPanel("Agave", day, trials);
    rigettiPanel("Aspen1", day, trials);
    umdChains(day, trials);
    return 0;
}
