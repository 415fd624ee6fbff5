/**
 * @file
 * Workload tests: every study benchmark has the right size and the
 * right deterministic answer; chains alternate correctly; supremacy
 * circuits match the paper's scaling shape.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "core/decompose.hh"
#include "device/topology.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

namespace triq
{
namespace
{

TEST(Benchmarks, TwelveNames)
{
    EXPECT_EQ(benchmarkNames().size(), 12u);
    for (const auto &name : benchmarkNames()) {
        Circuit c = makeBenchmark(name);
        EXPECT_EQ(c.name(), name == "QFT" ? "QFT" : c.name());
        EXPECT_GT(c.numGates(), 0) << name;
        EXPECT_FALSE(c.measuredQubits().empty()) << name;
    }
    EXPECT_THROW(makeBenchmark("nope"), FatalError);
}

TEST(Benchmarks, QubitCounts)
{
    EXPECT_EQ(makeBenchmark("BV4").numQubits(), 4);
    EXPECT_EQ(makeBenchmark("BV6").numQubits(), 6);
    EXPECT_EQ(makeBenchmark("BV8").numQubits(), 8);
    EXPECT_EQ(makeBenchmark("HS2").numQubits(), 2);
    EXPECT_EQ(makeBenchmark("HS4").numQubits(), 4);
    EXPECT_EQ(makeBenchmark("HS6").numQubits(), 6);
    EXPECT_EQ(makeBenchmark("Toffoli").numQubits(), 3);
    EXPECT_EQ(makeBenchmark("Fredkin").numQubits(), 3);
    EXPECT_EQ(makeBenchmark("Or").numQubits(), 3);
    EXPECT_EQ(makeBenchmark("Peres").numQubits(), 3);
    EXPECT_EQ(makeBenchmark("QFT").numQubits(), 4);
    EXPECT_EQ(makeBenchmark("Adder").numQubits(), 4);
}

TEST(Benchmarks, BvRecoversHiddenString)
{
    for (uint64_t hidden : {0b101ull, 0b111ull, 0b010ull, 0b001ull})
        EXPECT_EQ(idealOutcome(makeBV(4, hidden)), hidden)
            << "hidden=" << hidden;
    // Default hidden string is all-ones (star interaction shape).
    EXPECT_EQ(idealOutcome(makeBV(6)), 0b11111u);
    Circuit bv = decomposeToCnotBasis(makeBV(6));
    EXPECT_EQ(bv.count2q(), 5);
}

TEST(Benchmarks, HiddenShiftRecoversShift)
{
    for (uint64_t shift : {0b1111ull, 0b0110ull, 0b1001ull, 0b0000ull})
        EXPECT_EQ(idealOutcome(makeHiddenShift(4, shift)), shift)
            << "shift=" << shift;
    EXPECT_EQ(idealOutcome(makeHiddenShift(6)), 0b111111u);
    // Disjoint 2-qubit edges: n/2 distinct interacting pairs.
    Circuit hs = makeHiddenShift(6);
    int czs = hs.countIf(
        [](const Gate &g) { return g.kind == GateKind::Cz; });
    EXPECT_EQ(czs, 6); // Two oracle layers of 3 pairs.
}

TEST(Benchmarks, LogicGateAnswers)
{
    EXPECT_EQ(idealOutcome(makeToffoli()), 0b111u);
    EXPECT_EQ(idealOutcome(makeFredkin()), 0b101u);
    EXPECT_EQ(idealOutcome(makeOr()), 0b101u);   // a=1, b=0, or=1.
    EXPECT_EQ(idealOutcome(makePeres()), 0b101u); // a=1, b->0, c->1.
}

TEST(Benchmarks, AdderComputesSumAndCarry)
{
    // a=1, b=1, cin=0: sum=0 (qubit 1), carry=1 (qubit 3), a restored.
    uint64_t out = idealOutcome(makeAdder());
    EXPECT_EQ(out, 0b1100u);
}

TEST(Benchmarks, QftRoundTrip)
{
    for (uint64_t x : {0b0101ull, 0b1111ull, 0b0010ull})
        EXPECT_EQ(idealOutcome(makeQft(4, x)), x);
    EXPECT_EQ(idealOutcome(makeQft(3, 0b110)), 0b110u);
}

TEST(Benchmarks, QftGateCount)
{
    // n(n-1)/2 controlled-phase gates per direction.
    Circuit q = qftCircuit(5);
    int cps = q.countIf(
        [](const Gate &g) { return g.kind == GateKind::Cphase; });
    EXPECT_EQ(cps, 10);
}

class ChainLength : public ::testing::TestWithParam<int>
{
};

TEST_P(ChainLength, ToffoliParity)
{
    int k = GetParam();
    uint64_t out = idealOutcome(makeToffoliChain(k));
    // Controls stay 11; the target toggles k times.
    EXPECT_EQ(out & 0b11u, 0b11u);
    EXPECT_EQ((out >> 2) & 1, static_cast<uint64_t>(k % 2));
}

TEST_P(ChainLength, FredkinAlternates)
{
    int k = GetParam();
    uint64_t out = idealOutcome(makeFredkinChain(k));
    // Control stays 1; (a, b) = (1, 0) swaps each iteration.
    EXPECT_EQ(out & 1u, 1u);
    uint64_t a = (out >> 1) & 1, b = (out >> 2) & 1;
    if (k % 2 == 1) {
        EXPECT_EQ(a, 0u);
        EXPECT_EQ(b, 1u);
    } else {
        EXPECT_EQ(a, 1u);
        EXPECT_EQ(b, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Lengths, ChainLength, ::testing::Range(1, 9));

TEST(Benchmarks, InvalidSizesRejected)
{
    EXPECT_THROW(makeBV(1), FatalError);
    EXPECT_THROW(makeHiddenShift(3), FatalError);
    EXPECT_THROW(makeToffoliChain(0), FatalError);
    EXPECT_THROW(makeFredkinChain(-1), FatalError);
}

TEST(Supremacy, NamedGridsAreCapped)
{
    // A name cannot ask for more than the largest device (72 qubits)
    // or a depth past 1024; the name-based callers use at most 128.
    EXPECT_EQ(makeBenchmark("Sup6x12d128").numQubits(), 72);
    EXPECT_THROW(makeBenchmark("Sup1x2d1025"), FatalError);
    EXPECT_THROW(makeBenchmark("Sup9x9d8"), FatalError);
    EXPECT_THROW(makeBenchmark("Sup1x2d100000000"), FatalError);
    EXPECT_THROW(makeBenchmark("Sup100000x100000d1"), FatalError);
}

TEST(Supremacy, PaperScaleGateCount)
{
    // 72 qubits, depth 128: about 2032 2Q gates in the paper.
    Circuit c = makeSupremacy(6, 12, 128, 1);
    EXPECT_EQ(c.numQubits(), 72);
    EXPECT_NEAR(c.count2q(), 2032, 100);
    EXPECT_EQ(c.measuredQubits().size(), 72u);
}

TEST(Supremacy, DeterministicPerSeed)
{
    Circuit a = makeSupremacy(4, 4, 16, 7);
    Circuit b = makeSupremacy(4, 4, 16, 7);
    ASSERT_EQ(a.numGates(), b.numGates());
    for (int i = 0; i < a.numGates(); ++i)
        EXPECT_TRUE(a.gate(i) == b.gate(i));
    Circuit c = makeSupremacy(4, 4, 16, 8);
    bool same = a.numGates() == c.numGates();
    if (same)
        for (int i = 0; i < a.numGates(); ++i)
            same = same && a.gate(i) == c.gate(i);
    EXPECT_FALSE(same);
}

TEST(Supremacy, CzPatternsTouchAllEdgesOverTime)
{
    Circuit c = makeSupremacy(4, 4, 16, 3, false);
    Topology grid = Topology::grid(4, 4);
    std::set<int> used;
    for (const auto &g : c.gates())
        if (g.kind == GateKind::Cz) {
            int e = grid.edgeBetween(g.qubit(0), g.qubit(1));
            ASSERT_NE(e, -1) << "CZ off the grid: " << g.str();
            used.insert(e);
        }
    EXPECT_EQ(static_cast<int>(used.size()), grid.numEdges());
}

TEST(Supremacy, NoRepeated1qOnSameQubit)
{
    // The generator avoids the same random 1Q gate twice in a row on a
    // qubit (Google construction).
    Circuit c = makeSupremacy(3, 3, 24, 5, false);
    std::vector<GateKind> last(9, GateKind::Barrier);
    std::vector<double> lastp(9, -99);
    for (const auto &g : c.gates()) {
        if (!isOneQubitGate(g.kind) || g.kind == GateKind::H)
            continue;
        int q = g.qubit(0);
        bool same = g.kind == last[static_cast<size_t>(q)] &&
                    std::abs(g.params[0] -
                             lastp[static_cast<size_t>(q)]) < 1e-12;
        EXPECT_FALSE(same) << g.str();
        last[static_cast<size_t>(q)] = g.kind;
        lastp[static_cast<size_t>(q)] = g.params[0];
    }
}

} // namespace
} // namespace triq
