/**
 * @file
 * Reliability-matrix tests, anchored on the paper's own worked example
 * (Fig. 6), plus path optimality checked against brute-force search.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "common/rng.hh"
#include "core/reliability.hh"
#include "device/machines.hh"

namespace triq
{
namespace
{

/** The Fig. 6 example matrix built from the figure's reliabilities. */
ReliabilityMatrix
fig6Matrix()
{
    static Device dev = makeExample8();
    Calibration calib = dev.averageCalibration();
    std::vector<double> rels = fig6Reliabilities();
    for (size_t e = 0; e < rels.size(); ++e)
        calib.err2q[e] = 1.0 - rels[e];
    // Use a non-IBM vendor so no orientation-fix terms perturb the
    // figure's pure-2Q arithmetic.
    return ReliabilityMatrix(dev.topology(), calib, Vendor::Rigetti);
}

TEST(Reliability, Fig6WorkedExample)
{
    ReliabilityMatrix rel = fig6Matrix();
    // (1,6): swap 1 next to 5 (0.9^3) then gate 5-6 (0.8).
    EXPECT_NEAR(rel.pairReliability(1, 6), 0.9 * 0.9 * 0.9 * 0.8, 1e-9);
    EXPECT_EQ(rel.bestNeighbor(1, 6), 5);
}

TEST(Reliability, Fig6SelectedEntries)
{
    ReliabilityMatrix rel = fig6Matrix();
    // Adjacent pairs: direct gate.
    EXPECT_NEAR(rel.pairReliability(0, 1), 0.9, 1e-9);
    EXPECT_NEAR(rel.pairReliability(1, 2), 0.8, 1e-9);
    // Row 0 of the printed matrix.
    EXPECT_NEAR(rel.pairReliability(0, 2), 0.583, 0.01);
    EXPECT_NEAR(rel.pairReliability(0, 3), 0.336, 0.01);
    EXPECT_NEAR(rel.pairReliability(0, 4), 0.9, 1e-9);
    EXPECT_NEAR(rel.pairReliability(0, 7), 0.24, 0.01);
    // The matrix is *asymmetric* by construction — it moves the control
    // next to the target. Fig. 6(b) itself shows (0,2) = 0.58 but
    // (2,0) = 0.46: moving q0 along strong edges beats moving q2.
    EXPECT_NEAR(rel.pairReliability(2, 0), 0.46, 0.01);
    EXPECT_NEAR(rel.pairReliability(3, 0), 0.33, 0.01);
    EXPECT_NEAR(rel.pairReliability(6, 1), 0.46, 0.01);
}

TEST(Reliability, SwapPathMatchesReliability)
{
    ReliabilityMatrix rel = fig6Matrix();
    for (int c = 0; c < 8; ++c) {
        for (int t = 0; t < 8; ++t) {
            if (c == t)
                continue;
            std::vector<HwQubit> path = rel.swapPath(c, t);
            ASSERT_GE(path.size(), 2u);
            EXPECT_EQ(path.front(), c);
            EXPECT_EQ(path.back(), t);
            double prod = 1.0;
            for (size_t i = 0; i + 1 < path.size(); ++i)
                prod *= rel.swapReliability(path[i], path[i + 1]);
            EXPECT_NEAR(prod, rel.swapPathReliability(c, t), 1e-9);
        }
    }
}

TEST(Reliability, PathOptimalityBruteForce)
{
    // Random edge reliabilities: Floyd-Warshall path must beat every
    // exhaustively enumerated simple path.
    Device dev = makeExample8();
    Calibration calib = dev.averageCalibration();
    Rng rng(404);
    for (auto &e : calib.err2q)
        e = rng.uniform(0.02, 0.4);
    ReliabilityMatrix rel(dev.topology(), calib, Vendor::Rigetti);
    const Topology &topo = dev.topology();

    // DFS all simple paths between two nodes, tracking best product.
    struct Dfs
    {
        const Topology &topo;
        const ReliabilityMatrix &rel;
        double best = 0.0;
        std::vector<bool> seen;
        void
        run(HwQubit cur, HwQubit goal, double prod)
        {
            if (cur == goal) {
                best = std::max(best, prod);
                return;
            }
            for (HwQubit nb : topo.neighbors(cur)) {
                if (seen[static_cast<size_t>(nb)])
                    continue;
                seen[static_cast<size_t>(nb)] = true;
                run(nb, goal, prod * rel.swapReliability(cur, nb));
                seen[static_cast<size_t>(nb)] = false;
            }
        }
    };
    for (int c = 0; c < 8; ++c) {
        for (int t = 0; t < 8; ++t) {
            if (c == t)
                continue;
            Dfs dfs{topo, rel, 0.0,
                    std::vector<bool>(8, false)};
            dfs.seen[static_cast<size_t>(c)] = true;
            dfs.run(c, t, 1.0);
            EXPECT_NEAR(rel.swapPathReliability(c, t), dfs.best, 1e-9)
                << c << "->" << t;
        }
    }
}

TEST(Reliability, IbmOrientationPenalty)
{
    // On a directed IBM edge, the reversed gate is less reliable.
    Topology t(2);
    t.addEdge(0, 1, true);
    Calibration calib;
    calib.numQubits = 2;
    calib.err1q = {0.01, 0.01};
    calib.errRO = {0.02, 0.02};
    calib.t2Us = {50.0, 50.0};
    calib.err2q = {0.05};
    calib.durations = {0.1, 0.4, 3.0};
    ReliabilityMatrix rel(t, calib, Vendor::IBM);
    EXPECT_NEAR(rel.gateReliability(0, 1), 0.95, 1e-12);
    EXPECT_NEAR(rel.gateReliability(1, 0),
                0.95 * std::pow(0.99, 4), 1e-12);
    EXPECT_GT(rel.pairReliability(0, 1), rel.pairReliability(1, 0));

    // A non-IBM vendor ignores direction.
    ReliabilityMatrix rel2(t, calib, Vendor::Rigetti);
    EXPECT_NEAR(rel2.gateReliability(1, 0), 0.95, 1e-12);
}

TEST(Reliability, ReadoutVector)
{
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(0);
    ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
    for (int q = 0; q < 5; ++q)
        EXPECT_NEAR(rel.readoutReliability(q),
                    1.0 - calib.errRO[static_cast<size_t>(q)], 1e-12);
}

TEST(Reliability, FullyConnectedNeedsNoSwaps)
{
    Device dev = makeUmdTi();
    Calibration calib = dev.calibrate(1);
    ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
    for (int i = 0; i < 5; ++i)
        for (int j = 0; j < 5; ++j)
            if (i != j) {
                // The end-to-end entry can only improve on the direct
                // gate (taking t' = i gives exactly the direct gate).
                EXPECT_GE(rel.pairReliability(i, j),
                          rel.gateReliability(i, j) - 1e-12);
                // Swap paths exist but the router never consults them:
                // every pair is already adjacent.
                auto path = rel.swapPath(i, j);
                EXPECT_EQ(path.front(), i);
                EXPECT_EQ(path.back(), j);
            }
}

TEST(Reliability, MismatchedCalibrationRejected)
{
    Device dev = makeIbmQ5();
    Calibration wrong = makeIbmQ14().calibrate(0);
    EXPECT_THROW(
        ReliabilityMatrix(dev.topology(), wrong, dev.vendor()),
        FatalError);
}

} // namespace
} // namespace triq
