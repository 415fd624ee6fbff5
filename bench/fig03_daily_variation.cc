/**
 * @file
 * Fig. 3 reproduction: daily variation of 2Q error rates on IBMQ14.
 * The paper tracks four hardware CNOTs over 26 days and observes the
 * 2Q error averaging 7.95% but varying ~9x across qubits and days.
 */

#include <algorithm>
#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

using namespace triq;

int
main()
{
    Device dev = deviceByName("IBMQ14");
    const Topology &topo = dev.topology();

    // The paper's four tracked gates: CNOT 6,8; 7,8; 9,8; 13,1.
    struct Tracked
    {
        int a, b;
    };
    const Tracked tracked[] = {{6, 8}, {7, 8}, {9, 8}, {13, 1}};

    Table tab("Fig. 3: daily 2Q error variation on IBMQ14 (26 days)");
    tab.setHeader({"day", "CNOT 6,8", "CNOT 7,8", "CNOT 9,8",
                   "CNOT 13,1"});

    double lo = 1.0, hi = 0.0, sum = 0.0;
    long count = 0;
    for (int day = 1; day <= 26; ++day) {
        Calibration c = dev.calibrate(day);
        std::vector<std::string> row{fmtI(day)};
        for (const auto &t : tracked) {
            int e = topo.edgeBetween(t.a, t.b);
            double err = c.err2q[static_cast<size_t>(e)];
            row.push_back(fmtF(err, 4));
        }
        tab.addRow(row);
        for (double err : c.err2q) {
            lo = std::min(lo, err);
            hi = std::max(hi, err);
            sum += err;
            ++count;
        }
    }
    tab.print(std::cout);
    std::cout << "\nall edges, all days: mean="
              << fmtF(100.0 * sum / static_cast<double>(count), 2)
              << "% min=" << fmtF(100 * lo, 2) << "% max="
              << fmtF(100 * hi, 2) << "%  spread=" << fmtFactor(hi / lo)
              << "\npaper: mean 7.95%, ~9x variation across qubits/days\n";
    return 0;
}
