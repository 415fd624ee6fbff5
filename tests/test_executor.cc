/**
 * @file
 * Noise-model and executor tests: error-site enumeration, analytic
 * cross-checks of measured success rates, determinism, the modal
 * outcome flag and golden histograms over the study matrix.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "core/compiler.hh"
#include "core/fingerprint.hh"
#include "device/machines.hh"
#include "sim/compact.hh"
#include "sim/executor.hh"
#include "sim/noise.hh"
#include "sim/pauli_frame.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

/** A 2-qubit line device with fully controllable error rates. */
Device
probe(double e1, double e2, double ro, double t2 = 1e18)
{
    Topology t = Topology::line(2);
    NoiseSpec spec{e1, e2, ro, t2, 0.0, 0.0, {0.1, 0.4, 3.0}};
    return Device("Probe2", std::move(t), GateSet::rigetti(), spec);
}

TEST(Noise, SiteEnumeration)
{
    Device dev = probe(0.01, 0.05, 0.1);
    Calibration c = dev.averageCalibration();
    Circuit circ(2);
    circ.add(Gate::rx(0, kPi / 2)); // 1 pulse -> one site (p=0.01)
    circ.add(Gate::rz(0, 1.0));     // virtual -> no site
    circ.add(Gate::cz(0, 1));       // -> one site (p=0.05)
    circ.add(Gate::measure(0));     // readout handled classically
    auto sites = collectErrorSites(circ, dev.topology(), c);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_DOUBLE_EQ(sites[0].prob, 0.01);
    EXPECT_EQ(sites[0].q1, -1);
    EXPECT_DOUBLE_EQ(sites[1].prob, 0.05);
    EXPECT_EQ(sites[1].q1, 1);
    EXPECT_NEAR(noErrorProbability(sites), 0.99 * 0.95, 1e-12);
}

TEST(Noise, IdleSitesFromCoherence)
{
    Device dev = probe(0.0, 0.0, 0.0, 10.0);
    Calibration c = dev.averageCalibration();
    Circuit circ(2);
    circ.add(Gate::rx(1, kPi / 2));
    for (int i = 0; i < 5; ++i)
        circ.add(Gate::rx(0, kPi / 2)); // q1 idles 0.4us.
    circ.add(Gate::cz(0, 1));
    auto sites = collectErrorSites(circ, dev.topology(), c);
    ASSERT_EQ(sites.size(), 1u);
    EXPECT_TRUE(sites[0].idle);
    EXPECT_EQ(sites[0].q0, 1);
    EXPECT_NEAR(sites[0].prob, 1.0 - std::exp(-0.4 / 10.0), 1e-9);
}

TEST(Executor, ReadoutOnlyErrorsMatchAnalytic)
{
    // Only readout errors: success = (1-ro)^2 exactly (in expectation).
    Device dev = probe(0.0, 0.0, 0.08);
    Calibration c = dev.averageCalibration();
    Circuit circ(2, "ro");
    circ.add(Gate::x(0));
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    ExecutionResult r = executeNoisy(circ, dev, c, 40000, 7);
    EXPECT_EQ(r.correctOutcome, 1u);
    EXPECT_NEAR(r.successRate, 0.92 * 0.92, 0.01);
    EXPECT_EQ(r.simulatedTrajectories, 0);
    EXPECT_DOUBLE_EQ(r.noErrorProb, 1.0);
}

TEST(Executor, TwoQubitErrorsReduceSuccess)
{
    Device dev = probe(0.0, 0.10, 0.0);
    Calibration c = dev.averageCalibration();
    Circuit circ(2, "chain");
    for (int i = 0; i < 5; ++i)
        circ.add(Gate::cz(0, 1));
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    ExecutionResult r = executeNoisy(circ, dev, c, 20000, 11);
    // ESP = 0.9^5 ~ 0.59; many sampled Paulis (Z-type) still leave the
    // |00> outcome intact, so success exceeds ESP but stays below 1.
    EXPECT_NEAR(r.esp, std::pow(0.9, 5), 1e-9);
    EXPECT_GT(r.successRate, r.esp - 0.02);
    EXPECT_LT(r.successRate, 1.0);
    EXPECT_GT(r.simulatedTrajectories, 0);
}

TEST(Executor, XErrorAlwaysFlipsOutcome)
{
    // A single 1Q error site with p=1: the injected Pauli is X, Y or Z
    // uniformly; X/Y flip the measured bit, so success ~ 1/3.
    Device dev = probe(1.0, 0.0, 0.0);
    Calibration c = dev.averageCalibration();
    c.err1q = {1.0, 0.0};
    Circuit circ(2, "flip");
    circ.add(Gate::rx(0, 2 * kPi)); // Identity rotation, but one pulse.
    circ.add(Gate::measure(0));
    ExecutionResult r = executeNoisy(circ, dev, c, 30000, 13);
    EXPECT_NEAR(r.successRate, 1.0 / 3.0, 0.01);
}

TEST(Executor, DeterministicForFixedSeed)
{
    Device dev = makeIbmQ5();
    Calibration c = dev.calibrate(2);
    Circuit program = makeBenchmark("Peres");
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, c, opts);
    ExecutionResult a = executeNoisy(res.hwCircuit, dev, c, 2000, 99);
    ExecutionResult b = executeNoisy(res.hwCircuit, dev, c, 2000, 99);
    EXPECT_DOUBLE_EQ(a.successRate, b.successRate);
    ExecutionResult d = executeNoisy(res.hwCircuit, dev, c, 2000, 100);
    EXPECT_NE(a.successRate, d.successRate);
}

TEST(Executor, ModalFlagDropsUnderHeavyNoise)
{
    // With near-certain bit flips the correct answer cannot dominate.
    Device dev = probe(0.0, 0.0, 0.95);
    Calibration c = dev.averageCalibration();
    Circuit circ(2, "hopeless");
    circ.add(Gate::x(0));
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    ExecutionResult r = executeNoisy(circ, dev, c, 5000, 3);
    EXPECT_FALSE(r.correctIsModal);
    EXPECT_LT(r.successRate, 0.2);

    Device good = probe(0.0, 0.0, 0.01);
    ExecutionResult g =
        executeNoisy(circ, good, good.averageCalibration(), 5000, 3);
    EXPECT_TRUE(g.correctIsModal);
}

TEST(Executor, OutcomeForProgramUnscramblesRouting)
{
    Device dev = makeIbmQ14();
    Calibration c = dev.calibrate(4);
    Circuit program = makeBV(6, 0b10110);
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, c, opts);
    ExecutionResult r = executeNoisy(res.hwCircuit, dev, c, 100, 5);
    uint64_t recovered = outcomeForProgram(
        r.correctOutcome, res.hwCircuit, res.finalMap,
        program.measuredQubits());
    EXPECT_EQ(recovered, 0b10110u);
}

TEST(Executor, TrialsValidation)
{
    Device dev = probe(0.0, 0.0, 0.0);
    Circuit circ(2, "v");
    circ.add(Gate::measure(0));
    EXPECT_THROW(
        executeNoisy(circ, dev, dev.averageCalibration(), 0),
        FatalError);
    Circuit nomeas(2, "nm");
    nomeas.add(Gate::x(0));
    EXPECT_THROW(
        executeNoisy(nomeas, dev, dev.averageCalibration(), 10),
        FatalError);
}

TEST(Noise, CrosstalkScalesSimultaneousAdjacent2q)
{
    // Line of 4 with two parallel CZs on (0,1) and (2,3): edges are
    // spatially adjacent (qubits 1 and 2 are neighbors) and the gates
    // overlap in time, so both sites scale by (1 + factor).
    Topology t = Topology::line(4);
    NoiseSpec spec{0.0, 0.05, 0.0, 1e18, 0.0, 0.0, {0.1, 0.4, 3.0}};
    spec.crosstalkFactor = 1.0;
    Device dev("XTalk", std::move(t), GateSet::rigetti(), spec);
    Calibration c = dev.averageCalibration();
    EXPECT_DOUBLE_EQ(c.crosstalkFactor, 1.0);

    Circuit parallel(4);
    parallel.add(Gate::cz(0, 1));
    parallel.add(Gate::cz(2, 3));
    auto sites = collectErrorSites(parallel, dev.topology(), c);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_DOUBLE_EQ(sites[0].prob, 0.10);
    EXPECT_DOUBLE_EQ(sites[1].prob, 0.10);

    // Serialized via a barrier: no temporal overlap, no scaling.
    Circuit serial(4);
    serial.add(Gate::cz(0, 1));
    serial.add(Gate::barrier());
    serial.add(Gate::cz(2, 3));
    auto serial_sites = collectErrorSites(serial, dev.topology(), c);
    ASSERT_EQ(serial_sites.size(), 2u);
    EXPECT_DOUBLE_EQ(serial_sites[0].prob, 0.05);
    EXPECT_DOUBLE_EQ(serial_sites[1].prob, 0.05);
}

TEST(Noise, CrosstalkRequiresSpatialAdjacency)
{
    // Line of 5: CZs on (0,1) and (3,4) are simultaneous but separated
    // by an uninvolved qubit, so no scaling applies.
    Topology t = Topology::line(5);
    NoiseSpec spec{0.0, 0.05, 0.0, 1e18, 0.0, 0.0, {0.1, 0.4, 3.0}};
    spec.crosstalkFactor = 1.0;
    Device dev("XTalk5", std::move(t), GateSet::rigetti(), spec);
    Calibration c = dev.averageCalibration();
    Circuit circ(5);
    circ.add(Gate::cz(0, 1));
    circ.add(Gate::cz(3, 4));
    auto sites = collectErrorSites(circ, dev.topology(), c);
    ASSERT_EQ(sites.size(), 2u);
    EXPECT_DOUBLE_EQ(sites[0].prob, 0.05);
    EXPECT_DOUBLE_EQ(sites[1].prob, 0.05);
}

TEST(Executor, BitIdenticalAcrossThreadCounts)
{
    Device dev = makeIbmQ5();
    Calibration c = dev.calibrate(2);
    Circuit program = makeBenchmark("Peres");
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, c, opts);
    ExecutionResult base = executeNoisy(res.hwCircuit, dev, c, 1500, 99);
    EXPECT_GT(base.simulatedTrajectories, 0);
    // Threaded fused runs must match bit for bit, and so must an
    // unfused serial run. Fusion reassociates floating point, so that
    // last equality is empirical (a uniform draw would have to land
    // within ~1e-13 of a cumulative-probability boundary to flip), not
    // algebraic.
    std::vector<ExecutionResult> runs;
    for (int threads : {2, 8}) {
        ExecOptions t;
        t.threads = threads;
        runs.push_back(executeNoisy(res.hwCircuit, dev, c, 1500, 99, t));
    }
    runs.push_back(detail::executeNoisyWith(res.hwCircuit, dev, c, 1500, 99,
                                            {}, {.gateFusion = false}));
    for (const ExecutionResult &r : runs) {
        EXPECT_DOUBLE_EQ(r.successRate, base.successRate);
        EXPECT_EQ(r.simulatedTrajectories, base.simulatedTrajectories);
        EXPECT_EQ(r.correctOutcome, base.correctOutcome);
        EXPECT_EQ(r.histogram, base.histogram);
    }
    // sortedHistogram: ascending keys, counts summing to trials.
    auto sorted = base.sortedHistogram();
    long total = 0;
    for (size_t i = 0; i < sorted.size(); ++i) {
        if (i > 0) {
            EXPECT_LT(sorted[i - 1].first, sorted[i].first);
        }
        total += sorted[i].second;
    }
    EXPECT_EQ(total, base.trials);
}

TEST(Executor, CheckpointedReplayMatchesFullReplay)
{
    // Certain 1Q error sites force every trial onto the trajectory
    // path, so checkpointed and full replay are both fully exercised.
    Device dev = probe(1.0, 0.3, 0.02);
    Calibration c = dev.averageCalibration();
    c.err1q = {1.0, 1.0};
    Circuit circ(2, "forced");
    for (int i = 0; i < 6; ++i) {
        circ.add(Gate::rx(0, kPi / 3));
        circ.add(Gate::rx(1, kPi / 5));
        circ.add(Gate::cz(0, 1));
    }
    circ.add(Gate::measure(0));
    circ.add(Gate::measure(1));
    // Fusion off keeps the replay strictly gate by gate. A 2-qubit
    // state keeps a checkpoint after every gate but the last, so
    // checkpointed replays resume right after their first faulted gate;
    // a resume that lands before it (a first fault past the last
    // checkpoint) is pinned by
    // GoldenHistogram.WideNonCliffordIsBitIdentical (17 qubits, 32
    // checkpoints).
    ExecutionResult a =
        detail::executeNoisyWith(circ, dev, c, 800, 21, {},
                                 {.gateFusion = false, .checkpoints = false});
    EXPECT_EQ(a.simulatedTrajectories, a.trials);
    ExecutionResult b = detail::executeNoisyWith(circ, dev, c, 800, 21, {},
                                                 {.gateFusion = false});
    EXPECT_DOUBLE_EQ(b.successRate, a.successRate);
    EXPECT_EQ(b.simulatedTrajectories, a.simulatedTrajectories);
    EXPECT_EQ(b.histogram, a.histogram);
}

// ---------------------------------------------------------------------
// Golden histograms over the paper's study matrix: the 12 fig07
// programs on the 7 study devices (programs wider than a device are
// skipped), calibration day 3, default compile and execution options,
// 8192 trials (5000 on UMDTI) and seed 2019. Each cell pins the FNV-1a
// hash of its sorted histogram and its success rate as an exact hex
// float, so any change to the sampling order, the RNG streams, the
// noise model or a compiled circuit that moves one count fails here.

struct GoldenCell
{
    const char *bench;
    const char *device;
    uint64_t histogramHash;
    double successRate;
};

const GoldenCell kGoldenStudy[] = {
    {"BV4", "IBMQ5", 0x172c129278ec5480ull, 0x1.798p-1},
    {"BV4", "IBMQ14", 0xb2cc68778dadbe6cull, 0x1.596p-1},
    {"BV4", "IBMQ16", 0x33d88cfaa1018408ull, 0x1.936p-1},
    {"BV4", "Agave", 0xa0f6b1970e4525c8ull, 0x1.1c6p-2},
    {"BV4", "Aspen1", 0x4a8ce86d679454a1ull, 0x1.388p-1},
    {"BV4", "Aspen3", 0xb1cafd3bb198197dull, 0x1.30ep-1},
    {"BV4", "UMDTI", 0x8ca1d5f4bc6d3be0ull, 0x1.f03afb7e90ff9p-1},
    {"BV6", "IBMQ14", 0x4470cf253f695713ull, 0x1.9ccp-2},
    {"BV6", "IBMQ16", 0xfc0917f70f463b44ull, 0x1.0cep-1},
    {"BV6", "Aspen1", 0x5657d273de7d8bedull, 0x1.1f8p-2},
    {"BV6", "Aspen3", 0x51394a1274290ff1ull, 0x1.2ecp-2},
    {"BV8", "IBMQ14", 0x3187260f781186dfull, 0x1.77cp-3},
    {"BV8", "IBMQ16", 0x01fd1651b23dd9a0ull, 0x1.2b8p-2},
    {"BV8", "Aspen1", 0x9627dcbdeed19205ull, 0x1.b2p-4},
    {"BV8", "Aspen3", 0x36619cfb1b5161a5ull, 0x1.26p-4},
    {"HS2", "IBMQ5", 0x5f91fd96ea82e859ull, 0x1.b45p-1},
    {"HS2", "IBMQ14", 0x96c6a2618cc4c942ull, 0x1.8dfp-1},
    {"HS2", "IBMQ16", 0x474417da0f021e2eull, 0x1.bcp-1},
    {"HS2", "Agave", 0xc226ce9cb1510126ull, 0x1.59bp-1},
    {"HS2", "Aspen1", 0xf250373308bcb88dull, 0x1.762p-1},
    {"HS2", "Aspen3", 0x05ca8e3034d2be81ull, 0x1.968p-1},
    {"HS2", "UMDTI", 0x1fe4259ba8cacad6ull, 0x1.f50b0f27bb2ffp-1},
    {"HS4", "IBMQ5", 0x712a0c2c83f8c2dfull, 0x1.4aep-1},
    {"HS4", "IBMQ14", 0xa1be07ed4c66ae0dull, 0x1.32p-1},
    {"HS4", "IBMQ16", 0x751c74dcbf1d7c46ull, 0x1.7eap-1},
    {"HS4", "Agave", 0xb574f51b3bea7295ull, 0x1.694p-2},
    {"HS4", "Aspen1", 0xbe4b1a3c4eee5f9dull, 0x1.136p-1},
    {"HS4", "Aspen3", 0xcf819c3c80379fa4ull, 0x1.236p-1},
    {"HS4", "UMDTI", 0x597a51dd48b6a3c1ull, 0x1.e6e978d4fdf3bp-1},
    {"HS6", "IBMQ14", 0xd60046e68a70a50bull, 0x1.e74p-2},
    {"HS6", "IBMQ16", 0x8ccef64d83332797ull, 0x1.4d8p-1},
    {"HS6", "Aspen1", 0xa385c6c6f88b485dull, 0x1.7aap-2},
    {"HS6", "Aspen3", 0xe749c643298107afull, 0x1.ad2p-2},
    {"Toffoli", "IBMQ5", 0x8362e18d48b1082eull, 0x1.56bp-1},
    {"Toffoli", "IBMQ14", 0x8ea7a56bca16fbb9ull, 0x1.0e8p-1},
    {"Toffoli", "IBMQ16", 0x3a16b30316aed110ull, 0x1.1eap-1},
    {"Toffoli", "Agave", 0x1f67420cb99a5c4dull, 0x1.6dcp-3},
    {"Toffoli", "Aspen1", 0xe3fbf8e04835538aull, 0x1.0e4p-2},
    {"Toffoli", "Aspen3", 0x7891a201bdb1202cull, 0x1.b3cp-2},
    {"Toffoli", "UMDTI", 0xd3423991dde63e95ull, 0x1.e2339c0ebedfap-1},
    {"Fredkin", "IBMQ5", 0xc254c876a22e37a5ull, 0x1.315p-1},
    {"Fredkin", "IBMQ14", 0x712e54ff16672451ull, 0x1.afep-2},
    {"Fredkin", "IBMQ16", 0xd4788cffdac29acaull, 0x1.e1ap-2},
    {"Fredkin", "Agave", 0x3f9d69f9f5bcbdc1ull, 0x1.134p-3},
    {"Fredkin", "Aspen1", 0xf31b83cdfeb03aa6ull, 0x1.474p-2},
    {"Fredkin", "Aspen3", 0xec6f9c2004384a1bull, 0x1.752p-2},
    {"Fredkin", "UMDTI", 0x534bd5778021e7c5ull, 0x1.df6fd21ff2e49p-1},
    {"Or", "IBMQ5", 0x04f302190ddc3f12ull, 0x1.56ap-1},
    {"Or", "IBMQ14", 0x33af3b8d09ba6e53ull, 0x1.023p-1},
    {"Or", "IBMQ16", 0x8214c27ecea76916ull, 0x1.1bbp-1},
    {"Or", "Agave", 0x8e9dd6d6285a10a3ull, 0x1.79p-3},
    {"Or", "Aspen1", 0x20cac35d4c1e9c45ull, 0x1.326p-2},
    {"Or", "Aspen3", 0x16c551bf850dc57eull, 0x1.cfep-2},
    {"Or", "UMDTI", 0xb8e36fcddbe5b7abull, 0x1.e2339c0ebedfap-1},
    {"Peres", "IBMQ5", 0x5b100dbd7fe4b746ull, 0x1.4bbp-1},
    {"Peres", "IBMQ14", 0x932d0943263061d7ull, 0x1.7d2p-2},
    {"Peres", "IBMQ16", 0x8450f102e1afc939ull, 0x1.c86p-2},
    {"Peres", "Agave", 0xe221ca3729265140ull, 0x1.678p-3},
    {"Peres", "Aspen1", 0x38fc883876e959d1ull, 0x1.216p-2},
    {"Peres", "Aspen3", 0x25cdaf121557a40bull, 0x1.bd6p-2},
    {"Peres", "UMDTI", 0xac56f2580bd0ccbfull, 0x1.e28240b780347p-1},
    {"QFT", "IBMQ5", 0xaf22fdc3d0d17485ull, 0x1.978p-3},
    {"QFT", "IBMQ14", 0x084295a13f9558caull, 0x1.028p-3},
    {"QFT", "IBMQ16", 0xef9a67a903cde577ull, 0x1.2a4p-3},
    {"QFT", "Agave", 0x54b1fccdff3a3df2ull, 0x1.ebp-5},
    {"QFT", "Aspen1", 0xbcf99364dda8eb75ull, 0x1.7fp-4},
    {"QFT", "Aspen3", 0xa0081f690f0c4b1cull, 0x1.1bcp-3},
    {"QFT", "UMDTI", 0x63f280f358d98a9cull, 0x1.a1ff2e48e8a72p-1},
    {"Adder", "IBMQ5", 0xddf36d6c431dddacull, 0x1.7dcp-2},
    {"Adder", "IBMQ14", 0x44bd67f0a1b4339aull, 0x1.708p-3},
    {"Adder", "IBMQ16", 0x437aae43c89889d5ull, 0x1.7bp-3},
    {"Adder", "Agave", 0x459a8dd2b6f27c68ull, 0x1.27p-4},
    {"Adder", "Aspen1", 0x1bd65444987ba9cfull, 0x1.738p-4},
    {"Adder", "Aspen3", 0xf8288d431e56e50cull, 0x1.f98p-4},
    {"Adder", "UMDTI", 0x5ae2404fa353ac12ull, 0x1.c1205bc01a36ep-1},
};

uint64_t
histogramHash(const ExecutionResult &r)
{
    Fnv1a h;
    for (const auto &[key, count] : r.sortedHistogram())
        h.u64(key).i64(count);
    return h.value();
}

TEST(GoldenHistogram, Fig07StudyIsBitIdentical)
{
    const std::vector<Device> devices = allStudyDevices();
    size_t i = 0;
    for (const std::string &name : benchmarkNames()) {
        Circuit program = makeBenchmark(name);
        for (const Device &dev : devices) {
            if (program.numQubits() > dev.numQubits())
                continue;
            ASSERT_LT(i, std::size(kGoldenStudy));
            const GoldenCell &want = kGoldenStudy[i++];
            ASSERT_EQ(name, want.bench);
            ASSERT_EQ(dev.name(), want.device);
            Calibration calib = dev.calibrate(3);
            CompileResult res =
                compileForDevice(program, dev, calib, CompileOptions{});
            const int trials = dev.name() == "UMDTI" ? 5000 : 8192;
            ExecutionResult r =
                executeNoisy(res.hwCircuit, dev, calib, trials, 2019);
            const uint64_t hash = histogramHash(r);
            char got[64];
            std::snprintf(got, sizeof got, "0x%016llxull, %a",
                          static_cast<unsigned long long>(hash),
                          r.successRate);
            SCOPED_TRACE(name + " on " + dev.name() + ": got " + got);
            EXPECT_EQ(hash, want.histogramHash);
            EXPECT_EQ(r.successRate, want.successRate);
        }
    }
    EXPECT_EQ(i, std::size(kGoldenStudy));
}

// Golden histograms above 12 qubits: two circuits whose compact
// registers exceed 12 qubits on Google72 (greedy mapper, calibration
// day 3, default execution options, 64 trials, seed 2019). The study
// matrix never simulates more than 10 qubits, so these cells pin the
// fused kernels on the wider states that trajectory replays walk in
// the `wide` bench workload.
const GoldenCell kGoldenWide[] = {
    {"GHZ14", "Google72", 0xa19f78c479109d29ull, 0x1.4p-4},
    {"HS16", "Google72", 0xb6ef5906903df375ull, 0x1p-2},
};

TEST(GoldenHistogram, WideRegistersAreBitIdentical)
{
    const Device dev = makeGoogle72();
    const Calibration calib = dev.calibrate(3);
    CompileOptions opts;
    opts.mapping.kind = MapperKind::Greedy;
    const Circuit programs[] = {makeGhzRoundTrip(14),
                                makeHiddenShift(16, 0x5A5A5)};
    for (size_t i = 0; i < std::size(kGoldenWide); ++i) {
        const GoldenCell &want = kGoldenWide[i];
        ASSERT_EQ(dev.name(), want.device);
        CompileResult res =
            compileForDevice(programs[i], dev, calib, opts);
        ASSERT_GT(compactCircuit(res.hwCircuit).circuit.numQubits(), 12)
            << want.bench;
        ExecutionResult r = executeNoisy(res.hwCircuit, dev, calib, 64, 2019);
        const uint64_t hash = histogramHash(r);
        char got[64];
        std::snprintf(got, sizeof got, "0x%016llxull, %a",
                      static_cast<unsigned long long>(hash), r.successRate);
        SCOPED_TRACE(std::string(want.bench) + ": got " + got);
        EXPECT_EQ(hash, want.histogramHash);
        EXPECT_EQ(r.successRate, want.successRate);
    }
}

// A wide cell that is neither Clifford nor deterministic: a 4x4
// depth-8 supremacy circuit, compiled and run like kGoldenWide. Its
// compact register (17 qubits: greedy routing adds a relay) always
// takes the trajectory-replay path, so it keeps the large-register
// kernels pinned.
const GoldenCell kGoldenWideNonClifford = {
    "Sup4x4d8", "Google72", 0x95ff85199e92fe11ull, 0x0p+0};

TEST(GoldenHistogram, WideNonCliffordIsBitIdentical)
{
    const GoldenCell &want = kGoldenWideNonClifford;
    const Device dev = makeGoogle72();
    ASSERT_EQ(dev.name(), want.device);
    const Calibration calib = dev.calibrate(3);
    CompileOptions opts;
    opts.mapping.kind = MapperKind::Greedy;
    CompileResult res =
        compileForDevice(makeBenchmark(want.bench), dev, calib, opts);
    ASSERT_GT(compactCircuit(res.hwCircuit).circuit.numQubits(), 12);
    ExecutionResult r = executeNoisy(res.hwCircuit, dev, calib, 64, 2019);
    const uint64_t hash = histogramHash(r);
    char got[64];
    std::snprintf(got, sizeof got, "0x%016llxull, %a",
                  static_cast<unsigned long long>(hash), r.successRate);
    SCOPED_TRACE(std::string(want.bench) + ": got " + got);
    EXPECT_EQ(hash, want.histogramHash);
    EXPECT_EQ(r.successRate, want.successRate);
}

// The two draws Rng::bernoulli skips: a site whose crosstalk-scaled
// probability saturates at exactly 1 fires without a draw, and a
// readout error of exactly 0 flips nothing without a draw. No study
// cell reaches either, so these cells pin both on a 4-qubit line whose
// two simultaneous adjacent CZs (2Q error 0.4, crosstalk factor 2)
// saturate, with qubit 1 read out perfectly and idle dephasing sites
// around them. One variant replays (a T gate makes it non-Clifford);
// the other is a deterministic Clifford circuit on the frame path.
// Average calibration, 3000 trials (a partial last chunk), seed 2019.
const GoldenCell kGoldenSaturated[] = {
    {"replay", "Sat4", 0x38dca5bb19733fe5ull, 0x1.d0369d0369d03p-5},
    {"frame", "Sat4", 0xe845a886f485a193ull, 0x1.9c54a6921735fp-5},
};

TEST(GoldenHistogram, SaturatedAndSilentDrawsAreBitIdentical)
{
    NoiseSpec spec{0.02, 0.4, 0.05, 20.0, 0.0, 0.0, {0.1, 0.4, 3.0}};
    spec.crosstalkFactor = 2.0;
    const Device dev("Sat4", Topology::line(4), GateSet::rigetti(), spec);
    Calibration calib = dev.averageCalibration();
    calib.errRO[1] = 0.0;

    // Qubit 0's two pulses hold CZ(0, 1) back while CZ(2, 3) starts,
    // and CZ(1, 2) waits on qubit 1: qubits 1 and 2 idle.
    Circuit replay(4, "replay");
    for (const Gate &g : {Gate::h(0), Gate::t(0), Gate::h(0), Gate::x(1),
                          Gate::h(2), Gate::cz(0, 1), Gate::cz(2, 3),
                          Gate::x(1), Gate::cz(1, 2), Gate::h(0)})
        replay.add(g);
    Circuit frame(4, "frame");
    for (const Gate &g : {Gate::x(0), Gate::y(0), Gate::x(1), Gate::x(2),
                          Gate::cz(0, 1), Gate::cz(2, 3), Gate::x(1),
                          Gate::cz(1, 2)})
        frame.add(g);
    for (int q = 0; q < 4; ++q) {
        replay.add(Gate::measure(q));
        frame.add(Gate::measure(q));
    }

    const Circuit *circuits[] = {&replay, &frame};
    for (size_t i = 0; i < std::size(kGoldenSaturated); ++i) {
        const GoldenCell &want = kGoldenSaturated[i];
        const Circuit &hw = *circuits[i];
        ASSERT_EQ(hw.name(), want.bench);
        ASSERT_EQ(dev.name(), want.device);
        const NoisyCircuit nc = noisyCircuit(hw, dev.topology(), calib);
        EXPECT_TRUE(std::any_of(nc.sites.begin(), nc.sites.end(),
                                [](const ErrorSite &s) {
                                    return s.prob == 1.0;
                                }))
            << want.bench;
        EXPECT_EQ(std::count(nc.roErr.begin(), nc.roErr.end(), 0.0), 1)
            << want.bench;
        const auto table = pauliFlipTable(nc.circuit, nc.sites, nc.measured);
        EXPECT_EQ(table && table->deterministic, hw.name() == "frame")
            << want.bench;

        ExecutionResult r = executeNoisy(hw, dev, calib, 3000, 2019);
        const uint64_t hash = histogramHash(r);
        char got[64];
        std::snprintf(got, sizeof got, "0x%016llxull, %a",
                      static_cast<unsigned long long>(hash), r.successRate);
        SCOPED_TRACE(std::string(want.bench) + ": got " + got);
        EXPECT_EQ(hash, want.histogramHash);
        EXPECT_EQ(r.successRate, want.successRate);
    }
}

} // namespace
} // namespace triq
