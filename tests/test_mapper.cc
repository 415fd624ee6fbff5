/**
 * @file
 * Mapper tests: interaction extraction, engine validity (injectivity),
 * branch-and-bound optimality against exhaustive search on random
 * instances, SMT/B&B agreement, the max-min objective semantics, golden
 * placements on the fig13 supremacy ladder, a golden digest of every
 * B&B output on the study corpus (pruning counters included), and local
 * optimality of the greedy hill-climb under the public scorers.
 */

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/decompose.hh"
#include "core/fingerprint.hh"
#include "core/mapper.hh"
#include "device/machines.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

namespace triq
{
namespace
{

ReliabilityMatrix
randomMatrix(const Device &dev, uint64_t seed)
{
    Calibration calib = dev.averageCalibration();
    Rng rng(seed);
    for (auto &e : calib.err2q)
        e = rng.uniform(0.01, 0.35);
    for (auto &e : calib.errRO)
        e = rng.uniform(0.01, 0.2);
    return ReliabilityMatrix(dev.topology(), calib, dev.vendor());
}

/** Exhaustive max-min search over all injective placements. */
double
bruteForceBest(const ProgramInfo &info, const ReliabilityMatrix &rel,
               bool include_ro)
{
    std::vector<HwQubit> hw(static_cast<size_t>(rel.numQubits()));
    std::iota(hw.begin(), hw.end(), 0);
    double best = -1.0;
    std::vector<HwQubit> map(static_cast<size_t>(info.numProgQubits));
    // Enumerate placements as permutations of hw prefixes.
    std::sort(hw.begin(), hw.end());
    std::vector<bool> used(hw.size(), false);
    struct Rec
    {
        const ProgramInfo &info;
        const ReliabilityMatrix &rel;
        bool ro;
        std::vector<HwQubit> &map;
        std::vector<bool> &used;
        double &best;
        void
        go(size_t k)
        {
            if (k == map.size()) {
                best = std::max(
                    best, mappingMinReliability(info, rel, map, ro));
                return;
            }
            for (size_t h = 0; h < used.size(); ++h) {
                if (used[h])
                    continue;
                used[h] = true;
                map[k] = static_cast<HwQubit>(h);
                go(k + 1);
                used[h] = false;
            }
        }
    } rec{info, rel, include_ro, map, used, best};
    rec.go(0);
    return best;
}

TEST(ProgramInfoTest, ExtractsPairsAndWeights)
{
    Circuit c(4);
    c.add(Gate::cnot(0, 1));
    c.add(Gate::cnot(1, 0)); // Same unordered pair.
    c.add(Gate::cnot(2, 3));
    c.add(Gate::measure(0));
    c.add(Gate::measure(3));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    ASSERT_EQ(info.pairs.size(), 2u);
    EXPECT_EQ(info.pairs[0].a, 0);
    EXPECT_EQ(info.pairs[0].b, 1);
    EXPECT_EQ(info.pairs[0].weight, 2);
    EXPECT_EQ(info.pairs[1].weight, 1);
    EXPECT_EQ(info.measured, (std::vector<ProgQubit>{0, 3}));
}

TEST(MapperTest, TrivialIsIdentity)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 1);
    Circuit c = decomposeToCnotBasis(makeBenchmark("BV4"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    Mapping m = trivialMapping(info, rel);
    for (size_t p = 0; p < m.progToHw.size(); ++p)
        EXPECT_EQ(m.progToHw[p], static_cast<HwQubit>(p));
}

class MapperEngines
    : public ::testing::TestWithParam<std::pair<MapperKind, uint64_t>>
{
};

TEST_P(MapperEngines, ProducesInjectiveValidMapping)
{
    auto [kind, seed] = GetParam();
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, seed);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = kind;
    Mapping m = mapQubits(info, rel, opts);
    ASSERT_EQ(m.progToHw.size(),
              static_cast<size_t>(info.numProgQubits));
    // hwToProg panics on non-injective or out-of-range mappings.
    auto inv = m.hwToProg(dev.numQubits());
    EXPECT_GT(m.minReliability, 0.0);
    EXPECT_NEAR(m.minReliability,
                mappingMinReliability(info, rel, m.progToHw, true),
                1e-12);
}

std::vector<std::pair<MapperKind, uint64_t>>
engineCases()
{
    std::vector<std::pair<MapperKind, uint64_t>> cases;
    for (MapperKind k : {MapperKind::Trivial, MapperKind::Greedy,
                         MapperKind::BranchAndBound, MapperKind::Smt})
        for (uint64_t seed : {1u, 2u, 3u})
            cases.push_back({k, seed});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, MapperEngines,
                         ::testing::ValuesIn(engineCases()));

class BnbOptimality : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(BnbOptimality, MatchesExhaustiveSearch)
{
    // 4 program qubits on the 5-qubit bowtie: 120 placements, checkable.
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, GetParam());
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_TRUE(m.optimal);
    double best = bruteForceBest(info, rel, opts.includeReadout);
    EXPECT_NEAR(m.minReliability, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCalibrations, BnbOptimality,
                         ::testing::Range(uint64_t{10}, uint64_t{30}));

TEST(MapperTest, SmtAgreesWithBnb)
{
    if (!smtMapperAvailable())
        GTEST_SKIP() << "built without Z3";
    Device dev = makeIbmQ14();
    for (uint64_t seed : {5u, 6u}) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        Circuit c = decomposeToCnotBasis(makeBenchmark("BV6"));
        ProgramInfo info = ProgramInfo::fromCircuit(c);
        MappingOptions opts;
        opts.kind = MapperKind::BranchAndBound;
        Mapping bnb = mapQubits(info, rel, opts);
        opts.kind = MapperKind::Smt;
        Mapping smt = mapQubits(info, rel, opts);
        ASSERT_TRUE(bnb.optimal);
        EXPECT_NEAR(smt.minReliability, bnb.minReliability, 1e-9);
    }
}

TEST(MapperTest, ReadoutAffectsObjective)
{
    // One qubit measured, no 2Q gates: the mapper must pick the best
    // readout unit when readout is part of the objective.
    Device dev = makeIbmQ5();
    Calibration calib = dev.averageCalibration();
    calib.errRO = {0.3, 0.3, 0.01, 0.3, 0.3};
    ReliabilityMatrix rel(dev.topology(), calib, dev.vendor());
    Circuit c(1);
    c.add(Gate::h(0));
    c.add(Gate::measure(0));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_EQ(m.progToHw[0], 2);
    EXPECT_NEAR(m.minReliability, 0.99, 1e-12);

    opts.includeReadout = false;
    Mapping m2 = mapQubits(info, rel, opts);
    EXPECT_NEAR(m2.minReliability, 1.0, 1e-12);
}

TEST(MapperTest, ProgramTooLargeIsFatal)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 9);
    Circuit c = decomposeToCnotBasis(makeBV(6));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    EXPECT_THROW(mapQubits(info, rel, MappingOptions{}), FatalError);
}

/** Exhaustive best weighted log-product over all injective placements. */
double
bruteForceBestProduct(const ProgramInfo &info,
                      const ReliabilityMatrix &rel, bool include_ro)
{
    double best = -1e300;
    std::vector<HwQubit> map(static_cast<size_t>(info.numProgQubits));
    std::vector<bool> used(static_cast<size_t>(rel.numQubits()), false);
    struct Rec
    {
        const ProgramInfo &info;
        const ReliabilityMatrix &rel;
        bool ro;
        std::vector<HwQubit> &map;
        std::vector<bool> &used;
        double &best;
        void
        go(size_t k)
        {
            if (k == map.size()) {
                best = std::max(
                    best, mappingLogProduct(info, rel, map, ro));
                return;
            }
            for (size_t h = 0; h < used.size(); ++h) {
                if (used[h])
                    continue;
                used[h] = true;
                map[k] = static_cast<HwQubit>(h);
                go(k + 1);
                used[h] = false;
            }
        }
    } rec{info, rel, include_ro, map, used, best};
    rec.go(0);
    return best;
}

class ProductOptimality : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(ProductOptimality, BnbMatchesExhaustiveSearch)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, GetParam());
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    opts.objective = MappingObjective::Product;
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_TRUE(m.optimal);
    double best = bruteForceBestProduct(info, rel, opts.includeReadout);
    EXPECT_NEAR(m.logProduct, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomCalibrations, ProductOptimality,
                         ::testing::Range(uint64_t{40}, uint64_t{52}));
INSTANTIATE_TEST_SUITE_P(MoreCalibrations, ProductOptimality,
                         ::testing::Range(uint64_t{1010}, uint64_t{1014}));

TEST(MapperTest, MaxMinPrunesBetterThanProduct)
{
    // The paper's scalability argument: for the same instance, the
    // max-min search explores far fewer nodes than the product search.
    Device dev = makeIbmQ16();
    ReliabilityMatrix rel = randomMatrix(dev, 77);
    Circuit c = decomposeToCnotBasis(makeBenchmark("BV8"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.kind = MapperKind::BranchAndBound;
    opts.nodeBudget = 5000000;
    opts.objective = MappingObjective::MaxMin;
    Mapping mm = mapQubits(info, rel, opts);
    opts.objective = MappingObjective::Product;
    Mapping pr = mapQubits(info, rel, opts);
    EXPECT_LT(mm.nodesExplored, pr.nodesExplored);
}

TEST(MapperTest, KindParsing)
{
    EXPECT_EQ(mapperKindFromString("trivial"), MapperKind::Trivial);
    EXPECT_EQ(mapperKindFromString("greedy"), MapperKind::Greedy);
    EXPECT_EQ(mapperKindFromString("bnb"), MapperKind::BranchAndBound);
    EXPECT_EQ(mapperKindFromString("smt"), MapperKind::Smt);
    EXPECT_THROW(mapperKindFromString("qiskit"), FatalError);
}

TEST(MapperTest, GreedyNeverBeatenBadlyByTrivial)
{
    // Sanity: greedy should never be worse than the identity layout.
    Device dev = makeIbmQ16();
    for (uint64_t seed = 50; seed < 60; ++seed) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        Circuit c = decomposeToCnotBasis(makeBenchmark("BV8"));
        ProgramInfo info = ProgramInfo::fromCircuit(c);
        MappingOptions opts;
        opts.kind = MapperKind::Greedy;
        Mapping greedy = mapQubits(info, rel, opts);
        Mapping trivial = trivialMapping(info, rel);
        EXPECT_GE(greedy.minReliability,
                  trivial.minReliability - 1e-12);
    }
}

// ---------------------------------------------------------------------
// Planner-grade search: symmetry pruning must keep the optimum, and the
// warm-start path must honor its never-worse contract.

/** The symmetric pair score the search uses (mapper-internal). */
double
symScore(const ReliabilityMatrix &rel, HwQubit a, HwQubit b)
{
    return std::max(rel.pairReliability(a, b),
                    rel.pairReliability(b, a));
}

TEST(PlannerSearch, UniformCalibrationKeepsOptimalityWithSymmetry)
{
    // The average calibration is uniform per gate type, so the bowtie's
    // graph automorphisms become real equivalence classes — the case
    // where symmetry pruning actually collapses subtrees. The optimum
    // must survive.
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel(dev.topology(), dev.averageCalibration(),
                          dev.vendor());
    std::vector<int> cls = rel.equivalenceClasses();
    ASSERT_EQ(cls.size(), static_cast<size_t>(rel.numQubits()));
    int num_classes = 0;
    for (size_t h = 0; h < cls.size(); ++h) {
        ASSERT_GE(cls[h], 0);
        ASSERT_LT(cls[h], rel.numQubits());
        num_classes = std::max(num_classes, cls[h] + 1);
        // Same class => identical scoring signature.
        for (size_t h2 = 0; h2 < h; ++h2) {
            if (cls[h2] != cls[h])
                continue;
            EXPECT_EQ(rel.readoutReliability(static_cast<HwQubit>(h2)),
                      rel.readoutReliability(static_cast<HwQubit>(h)));
            for (HwQubit x = 0; x < rel.numQubits(); ++x) {
                if (x == static_cast<HwQubit>(h) ||
                    x == static_cast<HwQubit>(h2))
                    continue;
                EXPECT_EQ(symScore(rel, static_cast<HwQubit>(h), x),
                          symScore(rel, static_cast<HwQubit>(h2), x));
            }
        }
    }
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    Mapping m = mapQubits(info, rel, MappingOptions{});
    EXPECT_TRUE(m.optimal);
    EXPECT_NEAR(m.minReliability, bruteForceBest(info, rel, true),
                1e-9);
    if (num_classes < rel.numQubits()) {
        EXPECT_GT(m.symmetryPruned, 0);
    }
}

TEST(WarmStart, MatchesColdSearchValue)
{
    // A warm start changes where the incumbent comes from, never what
    // the search proves: value identity with the cold search (the maps
    // themselves may differ between equal-valued optima).
    Device dev = makeIbmQ14();
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    for (uint64_t seed : {61u, 62u, 63u}) {
        ReliabilityMatrix rel = randomMatrix(dev, seed);
        MappingOptions cold_opts;
        Mapping cold = mapQubits(info, rel, cold_opts);
        ASSERT_TRUE(cold.optimal);
        MappingOptions warm_opts;
        warm_opts.warmStart.resize(
            static_cast<size_t>(info.numProgQubits));
        std::iota(warm_opts.warmStart.begin(),
                  warm_opts.warmStart.end(), 0);
        warm_opts.warmStartOrigin = "test(identity)";
        Mapping warm = mapQubits(info, rel, warm_opts);
        EXPECT_TRUE(warm.optimal);
        EXPECT_TRUE(warm.warmStarted);
        EXPECT_EQ(warm.warmStartOrigin, "test(identity)");
        EXPECT_NEAR(warm.minReliability, cold.minReliability, 1e-12);
    }
}

TEST(WarmStart, StaleOptimumShrinksProofTree)
{
    // The drift scenario: seeding from the (already optimal) cold map
    // can only tighten the root incumbent, so the proof tree shrinks
    // and the value is unchanged.
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, 71);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    Mapping cold = mapQubits(info, rel, MappingOptions{});
    ASSERT_TRUE(cold.optimal);
    MappingOptions warm_opts;
    warm_opts.warmStart = cold.progToHw;
    warm_opts.warmStartOrigin = "drift(test)";
    Mapping warm = mapQubits(info, rel, warm_opts);
    EXPECT_TRUE(warm.optimal);
    EXPECT_TRUE(warm.warmStarted);
    EXPECT_LE(warm.nodesExplored, cold.nodesExplored);
    EXPECT_NEAR(warm.minReliability, cold.minReliability, 1e-12);
}

TEST(WarmStart, NeverWorseThanColdUnderExhaustedBudget)
{
    // A deliberately terrible warm seed plus a node budget too small
    // to search: the engine must still return at least the cold
    // (greedy-seeded) value, because it keeps the better of the warm
    // and constructive seeds as its incumbent.
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, 81);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions greedy_opts;
    greedy_opts.kind = MapperKind::Greedy;
    Mapping greedy = mapQubits(info, rel, greedy_opts);
    MappingOptions warm_opts;
    warm_opts.nodeBudget = 1;
    warm_opts.warmStart.resize(
        static_cast<size_t>(info.numProgQubits));
    for (int p = 0; p < info.numProgQubits; ++p)
        warm_opts.warmStart[static_cast<size_t>(p)] =
            dev.numQubits() - 1 - p;
    Mapping warm = mapQubits(info, rel, warm_opts);
    EXPECT_FALSE(warm.optimal);
    EXPECT_GE(warm.minReliability, greedy.minReliability - 1e-12);
}

TEST(WarmStart, InvalidPlacementDegradesToGreedySeed)
{
    Device dev = makeIbmQ5();
    ReliabilityMatrix rel = randomMatrix(dev, 91);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.warmStart.assign(static_cast<size_t>(info.numProgQubits), 0);
    opts.warmStartOrigin = "test(bogus)";
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_FALSE(m.warmStarted);
    EXPECT_TRUE(m.warmStartOrigin.empty());
    EXPECT_TRUE(m.optimal);
    bool noted = false;
    for (const std::string &n : m.notes)
        noted = noted || n.find("invalid warm-start") != std::string::npos;
    EXPECT_TRUE(noted);
    EXPECT_NEAR(m.minReliability, bruteForceBest(info, rel, true),
                1e-9);
}

TEST(WarmStart, AnytimeUnderExpiredDeadline)
{
    // Deadline already fired: the engine must return the warm seed
    // verbatim (no search, no polish), marked timed out — the anytime
    // floor of the drift-remap path.
    Device dev = makeIbmQ14();
    ReliabilityMatrix rel = randomMatrix(dev, 95);
    Circuit c = decomposeToCnotBasis(makeBenchmark("Adder"));
    ProgramInfo info = ProgramInfo::fromCircuit(c);
    MappingOptions opts;
    opts.budget = CompileBudget::withDeadlineMs(0.0);
    opts.warmStart.resize(static_cast<size_t>(info.numProgQubits));
    std::iota(opts.warmStart.begin(), opts.warmStart.end(), 0);
    opts.warmStartOrigin = "drift(test)";
    Mapping m = mapQubits(info, rel, opts);
    EXPECT_EQ(m.engine, "warm");
    EXPECT_TRUE(m.timedOut);
    EXPECT_TRUE(m.warmStarted);
    EXPECT_FALSE(m.optimal);
    EXPECT_EQ(m.progToHw, opts.warmStart);
}

// ---------------------------------------------------------------------
// Golden placements on the fig13 supremacy ladder (IBMQ14 noise spec,
// calibration day 1, makeSupremacy seed 1): every engine output is
// pinned bit for bit — the placement's FNV-1a hash, both objective
// values as exact hex floats, and the B&B node and bound-prune counts.
// Any change to scoring order, tolerances, tie-breaks, candidate order
// or pruning that moves one placement or one counter fails here.

struct Golden
{
    uint64_t mapHash;
    double minReliability;
    double logProduct;
    long nodes;
    long boundPruned;
};

struct GoldenRung
{
    int rows, cols, depth;
    // MaxMin greedy, MaxMin B&B, Product greedy, Product B&B.
    Golden cases[4];
};

const GoldenRung kGoldenLadder[] = {
    {2, 3, 16,
     {{0x12dba2de5bf04c04ull, 0x1.aabdb4339d2bfp-1, -0x1.ecfd58002ae2fp+0,
       0, 0},
      {0x12dba2de5bf04c04ull, 0x1.aabdb4339d2bfp-1, -0x1.ecfd58002ae2fp+0,
       53, 106},
      {0xc95f848e2eecef84ull, 0x1.9b4489ace868cp-1, -0x1.dba735d76d6d2p+0,
       0, 0},
      {0x13c2bd6bb7f1b1a4ull, 0x1.9d7bcc2282ba7p-1, -0x1.c8be55fc66cb3p+0,
       478, 571}}},
    {3, 4, 24,
     {{0xbd270ac67adb0985ull, 0x1.9a9a5b999daeep-1, -0x1.6ae2ad83ffafp+2,
       0, 0},
      {0x6a9a9f8da5692885ull, 0x1.9c97fde6b6d7p-1, -0x1.cae24994ef3eep+2,
       7654, 38688},
      {0x2db37d1772309ac5ull, 0x1.8501d07d1cfd7p-1, -0x1.cae28c84dc489p+2,
       0, 0},
      {0x2db37d1772309ac5ull, 0x1.8501d07d1cfd7p-1, -0x1.cae28c84dc489p+2,
       20001, 78480}}},
    {4, 4, 32,
     {{0x8184891d8db906a5ull, 0x1.73f7a156d85a6p-1, -0x1.d349bd4368469p+3,
       0, 0},
      {0xb0be7c66c3e23d25ull, 0x1.9fb4672b2ab22p-1, -0x1.4f4afb79af7e4p+3,
       20001, 84280},
      {0x2989f1441b02f265ull, 0x1.73f7a156d85a6p-1, -0x1.a437c976f2f6dp+3,
       0, 0},
      {0x2989f1441b02f265ull, 0x1.73f7a156d85a6p-1, -0x1.a437c976f2f6dp+3,
       20001, 86020}}},
    {4, 6, 48,
     {{0x79de894574504625ull, 0x1.4e5bbde3b2346p-1, -0x1.7b9191a19537dp+5,
       0, 0},
      {0x79de894574504625ull, 0x1.4e5bbde3b2346p-1, -0x1.7b9191a19537dp+5,
       20001, 162799},
      {0x9cd9d580127375e5ull, 0x1.127100f6d169dp-1, -0x1.582e258d8ff77p+5,
       0, 0},
      {0x9cd9d580127375e5ull, 0x1.127100f6d169dp-1, -0x1.582e258d8ff77p+5,
       20001, 89291}}},
    {6, 6, 64,
     {{0x08622776b99ddec5ull, 0x1.16e12bd659477p-1, -0x1.c045b7442a74ep+6,
       0, 0},
      {0x08622776b99ddec5ull, 0x1.16e12bd659477p-1, -0x1.c045b7442a74ep+6,
       20001, 170117},
      {0x35d7fc777c33df85ull, 0x1.ce3883ee6d448p-2, -0x1.93bcb93fbe4ep+6,
       0, 0},
      {0x35d7fc777c33df85ull, 0x1.ce3883ee6d448p-2, -0x1.93bcb93fbe4ep+6,
       20001, 220218}}},
    {6, 9, 96,
     {{0x1228095bfcfd0de4ull, 0x1.ee96e06d88e1p-2, -0x1.440f5ab3ce3bbp+8,
       0, 0},
      {0x1228095bfcfd0de4ull, 0x1.ee96e06d88e1p-2, -0x1.440f5ab3ce3bbp+8,
       20001, 373578},
      {0x72d4eccb6a8c41c4ull, 0x1.c408772147ab4p-3, -0x1.32b03b4ae3183p+8,
       0, 0},
      {0x72d4eccb6a8c41c4ull, 0x1.c408772147ab4p-3, -0x1.32b03b4ae3183p+8,
       20001, 75962}}},
    {6, 12, 128,
     {{0xc1f124e8b51b7465ull, 0x1.47f31ca435ad3p-1, -0x1.33cc44b2d6f05p+8,
       0, 0},
      {0xc1f124e8b51b7465ull, 0x1.47f31ca435ad3p-1, -0x1.33cc44b2d6f05p+8,
       20001, 588896},
      {0xcc0d85913629f085ull, 0x1.fb4fddd689fc1p-2, -0x1.624b30b014ef6p+8,
       0, 0},
      {0xcc0d85913629f085ull, 0x1.fb4fddd689fc1p-2, -0x1.624b30b014ef6p+8,
       20001, 505178}}},
};

uint64_t
placementHash(const std::vector<HwQubit> &map)
{
    Fnv1a h;
    for (HwQubit q : map)
        h.i64(q);
    return h.value();
}

/** A Golden initializer for `m`, to show what a mismatching case got. */
std::string
goldenLiteral(const Mapping &m)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "{0x%016llxull, %a, %a, %ld, %ld}",
                  static_cast<unsigned long long>(placementHash(m.progToHw)),
                  m.minReliability, m.logProduct, m.nodesExplored,
                  m.boundPruned);
    return buf;
}

TEST(GoldenMapping, Fig13LadderIsBitIdentical)
{
    const NoiseSpec noise = makeIbmQ14().noiseSpec();
    for (const GoldenRung &rung : kGoldenLadder) {
        const int n = rung.rows * rung.cols;
        Device dev("Grid" + std::to_string(n),
                   Topology::grid(rung.rows, rung.cols), GateSet::ibm(),
                   noise);
        Circuit lowered = decomposeToCnotBasis(
            makeSupremacy(rung.rows, rung.cols, rung.depth, 1),
            dev.gateSet().nativeCphase);
        ProgramInfo info = ProgramInfo::fromCircuit(lowered);
        ReliabilityMatrix rel(dev.topology(), dev.calibrate(1),
                              dev.vendor());
        int i = 0;
        for (MappingObjective obj :
             {MappingObjective::MaxMin, MappingObjective::Product})
            for (MapperKind kind :
                 {MapperKind::Greedy, MapperKind::BranchAndBound}) {
                const Golden &want = rung.cases[i++];
                MappingOptions opts;
                opts.kind = kind;
                opts.objective = obj;
                opts.nodeBudget = 20000;
                Mapping m = mapQubits(info, rel, opts);
                SCOPED_TRACE(std::to_string(n) + "q " +
                             mapperKindName(kind) +
                             (obj == MappingObjective::MaxMin
                                  ? " max-min"
                                  : " product") +
                             ": got " + goldenLiteral(m));
                EXPECT_EQ(placementHash(m.progToHw), want.mapHash);
                EXPECT_EQ(m.minReliability, want.minReliability);
                EXPECT_EQ(m.logProduct, want.logProduct);
                EXPECT_EQ(m.nodesExplored, want.nodes);
                EXPECT_EQ(m.boundPruned, want.boundPruned);
            }
    }
}

// The 16-qubit rung at fig13's own 200000-node budget: the max-min
// search proves this optimum, which the 20000-node ladder above leaves
// unproved. Pins the placement, both objective bits and the proof's
// node and bound-prune counts.
TEST(GoldenMapping, Fig13SixteenQubitProofIsBitIdentical)
{
    Device dev("Grid16", Topology::grid(4, 4), GateSet::ibm(),
               makeIbmQ14().noiseSpec());
    Circuit lowered = decomposeToCnotBasis(makeSupremacy(4, 4, 32, 1),
                                           dev.gateSet().nativeCphase);
    ProgramInfo info = ProgramInfo::fromCircuit(lowered);
    ReliabilityMatrix rel(dev.topology(), dev.calibrate(1), dev.vendor());
    MappingOptions opts;
    opts.nodeBudget = 200000;
    Mapping m = mapQubits(info, rel, opts);
    const Golden want = {0xb0be7c66c3e23d25ull, 0x1.9fb4672b2ab22p-1,
                         -0x1.4f4afb79af7e4p+3, 187006, 1194160};
    SCOPED_TRACE("got " + goldenLiteral(m));
    EXPECT_TRUE(m.optimal);
    EXPECT_EQ(placementHash(m.progToHw), want.mapHash);
    EXPECT_EQ(m.minReliability, want.minReliability);
    EXPECT_EQ(m.logProduct, want.logProduct);
    EXPECT_EQ(m.nodesExplored, want.nodes);
    EXPECT_EQ(m.boundPruned, want.boundPruned);
}

// ---------------------------------------------------------------------
// Golden digest of the study corpus: every fig07 program on every study
// machine wide enough for it, on the day-0 calibration and on the
// average one (the TriQ-1QOptC matrix), B&B under both objectives. The
// fig13 ladder's sampled calibrations make every symmetry class a
// singleton and never fire dominance; the average calibrations have
// real classes, so this digest pins the symmetry and dominance counters
// as well.

TEST(GoldenMapping, StudyCorpusIsBitIdentical)
{
    Fnv1a digest;
    int calls = 0, symmetry_calls = 0, dominance_calls = 0,
        exhausted_calls = 0;
    for (const Device &dev : allStudyDevices()) {
        const ReliabilityMatrix mats[] = {
            {dev.topology(), dev.calibrate(0), dev.vendor()},
            {dev.topology(), dev.averageCalibration(), dev.vendor()}};
        for (const std::string &name : benchmarkNames()) {
            Circuit lowered = decomposeToCnotBasis(
                makeBenchmark(name), dev.gateSet().nativeCphase);
            if (lowered.numQubits() > dev.numQubits())
                continue;
            ProgramInfo info = ProgramInfo::fromCircuit(lowered);
            for (const ReliabilityMatrix &rel : mats)
                for (MappingObjective obj :
                     {MappingObjective::MaxMin, MappingObjective::Product}) {
                    MappingOptions opts;
                    opts.objective = obj;
                    opts.nodeBudget = 20000;
                    Mapping m = mapQubits(info, rel, opts);
                    for (HwQubit q : m.progToHw)
                        digest.i64(q);
                    digest.f64(m.minReliability)
                        .f64(m.logProduct)
                        .i64(m.nodesExplored)
                        .i64(m.boundPruned)
                        .i64(m.symmetryPruned)
                        .i64(m.dominancePruned)
                        .b(m.optimal);
                    ++calls;
                    symmetry_calls += m.symmetryPruned > 0;
                    dominance_calls += m.dominancePruned > 0;
                    exhausted_calls += m.nodesExplored > opts.nodeBudget;
                }
        }
    }
    EXPECT_EQ(calls, 300);
    EXPECT_EQ(symmetry_calls, 36);
    EXPECT_EQ(dominance_calls, 6);
    EXPECT_EQ(exhausted_calls, 8);
    EXPECT_EQ(digest.value(), 0x08cd0457f1c2a72full);
}

// ---------------------------------------------------------------------
// The greedy engine's hill-climb must stop at a true local optimum of
// its own comparator. Checked with the public evaluators only, so the
// climb's internal scoring and move screening are tested against code
// they do not share.

/** The climb's lexicographic key: (primary, tie-break) objective. */
std::pair<double, double>
climbKey(const ProgramInfo &info, const ReliabilityMatrix &rel,
         MappingObjective obj, const std::vector<HwQubit> &map)
{
    double mn = mappingMinReliability(info, rel, map, true);
    double lp = mappingLogProduct(info, rel, map, true);
    return obj == MappingObjective::MaxMin ? std::make_pair(mn, lp)
                                           : std::make_pair(lp, mn);
}

/** Would the climb accept `cand` over `cur`? (1e-15 / 1e-12 tolerances) */
bool
climbAccepts(const std::pair<double, double> &cand,
             const std::pair<double, double> &cur)
{
    if (cand.first > cur.first + 1e-15)
        return true;
    if (cand.first < cur.first - 1e-15)
        return false;
    return cand.second > cur.second + 1e-12;
}

/** A seeded random CNOT program on 2..10 qubits, some measured. */
ProgramInfo
randomProgram(uint64_t seed)
{
    Rng rng(seed);
    const int nq = 2 + rng.uniformInt(9);
    Circuit c(nq);
    const int gates = nq + rng.uniformInt(3 * nq);
    for (int g = 0; g < gates; ++g) {
        int a = rng.uniformInt(nq);
        int b = rng.uniformInt(nq - 1);
        if (b >= a)
            ++b;
        c.add(Gate::cnot(a, b));
    }
    for (int q = 0; q < nq; ++q)
        if (rng.bernoulli(0.7))
            c.add(Gate::measure(q));
    return ProgramInfo::fromCircuit(c);
}

TEST(GreedyClimb, StopsAtLocalOptimumOfPublicScorers)
{
    for (const Device &dev :
         {makeIbmQ14(), makeIbmQ16(), makeRigettiAspen1()}) {
        for (uint64_t seed = 1; seed <= 12; ++seed) {
            ProgramInfo info = randomProgram(seed * 7919 + 13);
            ReliabilityMatrix rel(dev.topology(),
                                  dev.calibrate(static_cast<int>(seed)),
                                  dev.vendor());
            for (MappingObjective obj :
                 {MappingObjective::MaxMin, MappingObjective::Product}) {
                MappingOptions opts;
                opts.kind = MapperKind::Greedy;
                opts.objective = obj;
                Mapping m = mapQubits(info, rel, opts);
                const auto cur = climbKey(info, rel, obj, m.progToHw);
                std::vector<ProgQubit> inv = m.hwToProg(rel.numQubits());
                for (int p = 0; p < info.numProgQubits; ++p)
                    for (HwQubit h = 0; h < rel.numQubits(); ++h) {
                        HwQubit old = m.progToHw[static_cast<size_t>(p)];
                        if (h == old)
                            continue;
                        std::vector<HwQubit> moved = m.progToHw;
                        moved[static_cast<size_t>(p)] = h;
                        ProgQubit occupant = inv[static_cast<size_t>(h)];
                        if (occupant != -1)
                            moved[static_cast<size_t>(occupant)] = old;
                        EXPECT_FALSE(climbAccepts(
                            climbKey(info, rel, obj, moved), cur))
                            << dev.name() << " seed " << seed
                            << (obj == MappingObjective::MaxMin
                                    ? " max-min"
                                    : " product")
                            << ": moving program qubit " << p << " to "
                            << h << " improves the greedy mapping";
                    }
            }
        }
    }
}

} // namespace
} // namespace triq
