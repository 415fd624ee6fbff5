/**
 * @file
 * End-to-end pipeline tests: compile benchmarks for real device models
 * at every optimization level, check that the compiled circuit still
 * computes the right answer (ideal simulation), that hardware
 * constraints hold (adjacency, software-visible gates only), and that
 * the noisy executor behaves sanely.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "sim/executor.hh"
#include "sim/statevector.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

/**
 * Check that the compiled circuit produces the program's ideal outcome:
 * measured program qubit k sits at finalMap[k]'s compact position.
 */
void
expectSameAnswer(const Circuit &program, const CompileResult &res)
{
    uint64_t want = idealOutcome(program);
    std::vector<ProgQubit> prog_measured = program.measuredQubits();

    std::vector<double> dist = idealMeasurementDistribution(res.hwCircuit);
    uint64_t got_basis = 0;
    double bestp = -1.0;
    for (uint64_t i = 0; i < dist.size(); ++i)
        if (dist[i] > bestp) {
            bestp = dist[i];
            got_basis = i;
        }
    ASSERT_GT(bestp, 0.99) << program.name();

    // The hw circuit measures hardware qubits; measured qubits are
    // sorted ascending in the distribution key. Recover each program
    // qubit's bit through the final map.
    std::vector<ProgQubit> hw_measured = res.hwCircuit.measuredQubits();
    ASSERT_EQ(hw_measured.size(), prog_measured.size());
    for (size_t k = 0; k < prog_measured.size(); ++k) {
        HwQubit h = res.finalMap[static_cast<size_t>(prog_measured[k])];
        auto it =
            std::find(hw_measured.begin(), hw_measured.end(), h);
        ASSERT_NE(it, hw_measured.end())
            << program.name() << ": program qubit " << prog_measured[k]
            << " (hw " << h << ") is not measured";
        size_t pos = static_cast<size_t>(it - hw_measured.begin());
        uint64_t got_bit = (got_basis >> pos) & 1;
        uint64_t want_bit = (want >> k) & 1;
        EXPECT_EQ(got_bit, want_bit)
            << program.name() << " program qubit " << prog_measured[k];
    }
}

struct PipelineCase
{
    std::string device;
    std::string bench;
    OptLevel level;
};

std::string
caseName(const ::testing::TestParamInfo<PipelineCase> &info)
{
    std::string s = info.param.device + "_" + info.param.bench + "_" +
                    optLevelName(info.param.level);
    std::string out;
    for (char c : s)
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += c;
    return out;
}

class Pipeline : public ::testing::TestWithParam<PipelineCase>
{
};

TEST_P(Pipeline, PreservesSemanticsAndConstraints)
{
    const auto &pc = GetParam();
    Device dev = deviceByName(pc.device);
    Circuit program = makeBenchmark(pc.bench);
    if (program.numQubits() > dev.numQubits())
        GTEST_SKIP() << "benchmark too large for device";

    CompileOptions opts;
    opts.level = pc.level;
    Calibration calib = dev.calibrate(3);
    CompileResult res = compileForDevice(program, dev, calib, opts);

    // Hardware constraints: 2Q gates on edges, correct gate set.
    for (const auto &g : res.hwCircuit.gates()) {
        if (isTwoQubitGate(g.kind)) {
            EXPECT_TRUE(dev.topology().adjacent(g.qubit(0), g.qubit(1)))
                << g.str();
            switch (dev.vendor()) {
              case Vendor::IBM:
                EXPECT_EQ(g.kind, GateKind::Cnot) << g.str();
                EXPECT_TRUE(dev.topology().orientationNative(g.qubit(0),
                                                             g.qubit(1)))
                    << g.str();
                break;
              case Vendor::Rigetti:
                EXPECT_EQ(g.kind, GateKind::Cz) << g.str();
                break;
              case Vendor::UMD:
                EXPECT_EQ(g.kind, GateKind::Xx) << g.str();
                break;
            }
        }
    }

    // Semantics: the compiled circuit computes the same answer.
    expectSameAnswer(program, res);

    // Assembly is emitted and non-trivial.
    EXPECT_FALSE(res.assembly.empty());
}

std::vector<PipelineCase>
pipelineCases()
{
    std::vector<PipelineCase> cases;
    // Representative devices at every optimization level...
    const std::vector<std::string> devices{"IBMQ5", "IBMQ14", "Agave",
                                           "UMDTI"};
    const std::vector<std::string> benches{"BV4", "HS4", "Toffoli",
                                           "QFT", "Adder"};
    for (const auto &d : devices)
        for (const auto &b : benches)
            for (OptLevel lvl : {OptLevel::N, OptLevel::OneQOpt,
                                 OptLevel::OneQOptC, OptLevel::OneQOptCN})
                cases.push_back({d, b, lvl});
    // ...plus the full 12-benchmark x 7-machine grid of Fig. 12 at the
    // level the cross-platform study uses (skipping combinations the
    // first block already covers).
    for (const Device &dev : allStudyDevices())
        for (const auto &b : benchmarkNames()) {
            bool covered = false;
            for (const auto &c : cases)
                covered = covered ||
                          (c.device == dev.name() && c.bench == b &&
                           c.level == OptLevel::OneQOptCN);
            if (!covered)
                cases.push_back({dev.name(), b, OptLevel::OneQOptCN});
        }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, Pipeline,
                         ::testing::ValuesIn(pipelineCases()), caseName);

TEST(Executor, NoiselessCalibrationIsPerfect)
{
    Device dev = makeIbmQ5();
    Circuit program = makeBenchmark("BV4");
    Calibration zero = dev.averageCalibration();
    std::fill(zero.err1q.begin(), zero.err1q.end(), 0.0);
    std::fill(zero.err2q.begin(), zero.err2q.end(), 0.0);
    std::fill(zero.errRO.begin(), zero.errRO.end(), 0.0);
    std::fill(zero.t2Us.begin(), zero.t2Us.end(), 1e18);
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, zero, opts);
    ExecutionResult ex = executeNoisy(res.hwCircuit, dev, zero, 200);
    EXPECT_DOUBLE_EQ(ex.successRate, 1.0);
    EXPECT_DOUBLE_EQ(ex.noErrorProb, 1.0);
    EXPECT_EQ(ex.simulatedTrajectories, 0);
}

TEST(Executor, SuccessTracksEsp)
{
    Device dev = makeIbmQ14();
    Circuit program = makeBenchmark("BV4");
    Calibration calib = dev.calibrate(5);
    CompileOptions opts;
    CompileResult res = compileForDevice(program, dev, calib, opts);
    ExecutionResult ex = executeNoisy(res.hwCircuit, dev, calib, 3000);
    // ESP is a lower-bound-ish estimate: every error is counted fatal,
    // while some sampled faults still yield the right answer.
    EXPECT_GT(ex.successRate, ex.esp - 0.05);
    EXPECT_LT(ex.esp, 1.0);
    EXPECT_GT(ex.successRate, 0.2);
    EXPECT_LT(ex.successRate, 1.0);
}

} // namespace
} // namespace triq
