/**
 * @file
 * The Clifford frame path: gate recognition, flip masks checked against
 * injected Paulis, and frame histograms checked bit for bit against
 * trajectory replay (detail::executeNoisyWith, frame layer off) on the
 * study's Clifford cells and on random Clifford programs.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "sim/executor.hh"
#include "sim/noise.hh"
#include "sim/pauli_frame.hh"
#include "sim/statevector.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

bool
isClifford(const Gate &g)
{
    return cliffordImages(g).has_value();
}

TEST(CliffordRecognition, AcceptsCliffordGates)
{
    const Gate accepted[] = {
        Gate::h(0),    Gate::s(0),      Gate::sdg(0),     Gate::x(0),
        Gate::y(0),    Gate::z(0),      Gate::cnot(0, 1), Gate::cz(0, 1),
        Gate::swap(0, 1),
        // The entangler UMDTI emits for a CNOT.
        Gate::xx(0, 1, kPi / 4),
        // pi/2 in floating point, as the 1Q optimizer leaves it.
        Gate::u3(0, std::acos(-1.0) / 2, 3 * std::acos(-1.0) / 2,
                 std::atan2(1.0, 0.0)),
    };
    for (const Gate &g : accepted)
        EXPECT_TRUE(isClifford(g)) << g.str();
}

TEST(CliffordRecognition, RejectsNonCliffordGates)
{
    const Gate rejected[] = {
        Gate::t(0),
        Gate::tdg(0),
        Gate::rz(0, 0.3),
        Gate::cphase(0, 1, kPi / 4),
        Gate::xx(0, 1, 0.3),
        // The test is linear in angle error: 1e-9 rad off is too far.
        Gate::rz(0, kPi / 2 + 1e-9),
    };
    for (const Gate &g : rejected)
        EXPECT_FALSE(isClifford(g)) << g.str();
}

TEST(CliffordRecognition, ImagesFollowConjugationRules)
{
    // U^dagger P U for P = X_0, Z_0, X_1, Z_1, as (x, z) operand masks.
    auto images = [](const Gate &g) {
        std::vector<std::pair<uint64_t, uint64_t>> out;
        const std::optional<std::vector<PauliMask>> img = cliffordImages(g);
        for (const PauliMask &p : *img)
            out.push_back({p.x, p.z});
        return out;
    };
    using V = std::vector<std::pair<uint64_t, uint64_t>>;
    EXPECT_EQ(images(Gate::h(0)), (V{{0, 1}, {1, 0}}));
    EXPECT_EQ(images(Gate::s(0)), (V{{1, 1}, {0, 1}}));
    // Control 0, target 1: X on the control spreads to the target and
    // Z on the target spreads to the control.
    EXPECT_EQ(images(Gate::cnot(0, 1)),
              (V{{3, 0}, {0, 1}, {2, 0}, {0, 3}}));
    EXPECT_EQ(images(Gate::swap(0, 1)),
              (V{{2, 0}, {0, 2}, {1, 0}, {0, 1}}));
}

/**
 * A seeded random Clifford program: layers of H/S/Sdg/X/Y/Z and
 * CNOT/CZ/SWAP, then their inverse, then an X layer that sets the
 * answer, so the ideal output is deterministic.
 */
Circuit
randomCliffordProgram(int n, int layers, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Gate> gates;
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            const int other = (q + 1 + rng.uniformInt(n - 1)) % n;
            switch (rng.uniformInt(9)) {
              case 0: gates.push_back(Gate::h(q)); break;
              case 1: gates.push_back(Gate::s(q)); break;
              case 2: gates.push_back(Gate::sdg(q)); break;
              case 3: gates.push_back(Gate::x(q)); break;
              case 4: gates.push_back(Gate::y(q)); break;
              case 5: gates.push_back(Gate::z(q)); break;
              case 6: gates.push_back(Gate::cnot(q, other)); break;
              case 7: gates.push_back(Gate::cz(q, other)); break;
              default: gates.push_back(Gate::swap(q, other)); break;
            }
        }
    }
    Circuit c(n, "RandClifford" + std::to_string(seed));
    for (const Gate &g : gates)
        c.add(g);
    for (auto it = gates.rbegin(); it != gates.rend(); ++it) {
        Gate inv = *it;
        if (inv.kind == GateKind::S)
            inv.kind = GateKind::Sdg;
        else if (inv.kind == GateKind::Sdg)
            inv.kind = GateKind::S;
        c.add(inv);
    }
    const uint64_t answer = rng.next();
    for (int q = 0; q < n; ++q)
        if ((answer >> q) & 1)
            c.add(Gate::x(q));
    for (int q = 0; q < n; ++q)
        c.add(Gate::measure(q));
    return c;
}

TEST(PauliFrame, FlipMasksMatchInjectedPaulis)
{
    // A 4-qubit Clifford circuit with one error site per gate and an
    // idle site: inject each site's every Pauli after its gate and
    // read the (still deterministic) outcome off the state.
    const Circuit c = randomCliffordProgram(4, 3, 5);
    const int num_unitary = c.numGates() - 4;
    std::vector<ErrorSite> sites;
    for (int gi = 0; gi < num_unitary; ++gi) {
        const Gate &g = c.gate(gi);
        sites.push_back({gi, g.qubit(0), g.arity() == 2 ? g.qubit(1) : -1,
                         0.1, false});
    }
    sites.push_back({5, 1, -1, 0.1, true}); // an idle Z after gate 5
    const std::vector<ProgQubit> measured = c.measuredQubits();
    std::optional<FlipTable> table = pauliFlipTable(c, sites, measured);
    ASSERT_TRUE(table.has_value());
    EXPECT_TRUE(table->deterministic);

    auto run = [&](int after, int q0, int p0, int q1, int p1) {
        StateVector sv(4);
        for (int gi = 0; gi < num_unitary; ++gi) {
            sv.applyGate(c.gate(gi));
            if (gi != after)
                continue;
            for (auto [q, p] : {std::pair{q0, p0}, std::pair{q1, p1}}) {
                if (p == 1 || p == 2)
                    sv.applyX(q);
                if (p == 2 || p == 3)
                    sv.applyZ(q);
            }
        }
        double prob = 0.0;
        uint64_t basis = sv.dominantBasisState(&prob);
        EXPECT_NEAR(prob, 1.0, 1e-12);
        return basis; // every qubit is measured, in order
    };
    const uint64_t correct = run(-1, 0, 0, 0, 0);
    for (size_t si = 0; si < sites.size(); ++si) {
        const ErrorSite &s = sites[si];
        for (int code = 0; code < kPauliCodes; ++code) {
            uint64_t want;
            if (s.idle) {
                if (code != 0)
                    continue;
                want = run(s.gateIdx, s.q0, 3, 0, 0);
            } else if (s.q1 == -1) {
                if (code > 2)
                    continue;
                want = run(s.gateIdx, s.q0, code + 1, 0, 0);
            } else {
                if (code == 0)
                    continue;
                want = run(s.gateIdx, s.q0, code & 3, s.q1, code >> 2);
            }
            EXPECT_EQ(correct ^ table->flips[kPauliCodes * si + code], want)
                << "site " << si << " code " << code;
        }
    }
}

TEST(PauliFrame, NoTableBeyondSixtyFourQubits)
{
    // The masks are 64 bits wide, so a wider register has no table even
    // when every gate is Clifford: executeNoisy replays it instead.
    Circuit c(65, "WideX");
    for (int q = 0; q < 65; ++q)
        c.add(Gate::x(q));
    for (int q = 0; q < 65; ++q)
        c.add(Gate::measure(q));
    EXPECT_FALSE(pauliFlipTable(c, {}, c.measuredQubits()).has_value());
}

/** The flip table executeNoisy builds for a compiled circuit. */
std::optional<FlipTable>
flipTableOf(const Circuit &hw, const Device &dev, const Calibration &calib)
{
    const NoisyCircuit nc = noisyCircuit(hw, dev.topology(), calib);
    return pauliFlipTable(nc.circuit, nc.sites, nc.measured);
}

/**
 * True when executeNoisy took the frame path for this cell: its flip
 * table is deterministic. The state-vector test, an ideal probability
 * of at least 1 - 1e-9, must agree on every Clifford cell; that is the
 * evidence that the table alone may pick the path.
 */
bool
takesFramePath(const Circuit &hw, const Device &dev,
               const Calibration &calib, const ExecutionResult &r)
{
    const std::optional<FlipTable> table = flipTableOf(hw, dev, calib);
    if (!table)
        return false;
    EXPECT_EQ(table->deterministic, r.idealOutcomeProb >= 1.0 - 1e-9)
        << "ideal probability " << r.idealOutcomeProb;
    return table->deterministic;
}

/**
 * executeNoisy against replay, fusion on and off: bit-identical
 * results.
 * @return Whether executeNoisy took the frame path.
 */
bool
frameMatchesReplay(const Circuit &hw, const Device &dev,
                   const Calibration &calib, int trials, uint64_t seed)
{
    ExecutionResult frame = executeNoisy(hw, dev, calib, trials, seed);
    for (bool fusion : {true, false}) {
        ExecutionResult replay = detail::executeNoisyWith(
            hw, dev, calib, trials, seed, {},
            {.frame = false, .gateFusion = fusion});
        SCOPED_TRACE(fusion ? "fused replay" : "unfused replay");
        EXPECT_EQ(frame.histogram, replay.histogram);
        EXPECT_EQ(frame.successRate, replay.successRate);
        EXPECT_EQ(frame.correctOutcome, replay.correctOutcome);
        EXPECT_EQ(frame.simulatedTrajectories,
                  replay.simulatedTrajectories);
        EXPECT_EQ(frame.correctIsModal, replay.correctIsModal);
    }
    return takesFramePath(hw, dev, calib, frame);
}

TEST(FrameVsReplay, GoldenStudyCliffordCellsAreBitIdentical)
{
    // The BV and HS cells of GoldenHistogram.Fig07StudyIsBitIdentical:
    // day 3, default compile options, 8192 trials (5000 on UMDTI),
    // seed 2019.
    int cells = 0;
    for (const char *name : {"BV4", "BV6", "BV8", "HS2", "HS4", "HS6"}) {
        const Circuit program = makeBenchmark(name);
        for (const Device &dev : allStudyDevices()) {
            if (program.numQubits() > dev.numQubits())
                continue;
            SCOPED_TRACE(std::string(name) + " on " + dev.name());
            const Calibration calib = dev.calibrate(3);
            CompileResult res =
                compileForDevice(program, dev, calib, CompileOptions{});
            EXPECT_TRUE(frameMatchesReplay(
                res.hwCircuit, dev, calib,
                dev.name() == "UMDTI" ? 5000 : 8192, 2019));
            ++cells;
        }
    }
    EXPECT_EQ(cells, 33);
}

TEST(FrameVsReplay, RandomCliffordProgramsAreBitIdentical)
{
    const OptLevel levels[] = {OptLevel::N, OptLevel::OneQOpt,
                               OptLevel::OneQOptC, OptLevel::OneQOptCN};
    int cells = 0, frame_cells = 0;
    for (uint64_t seed = 1; seed <= 6; ++seed) {
        // Four qubits fit every study device.
        const Circuit program =
            randomCliffordProgram(3 + static_cast<int>(seed % 2), 4, seed);
        for (const Device &dev : allStudyDevices()) {
            const Calibration calib = dev.calibrate(static_cast<int>(seed));
            for (OptLevel level : levels) {
                SCOPED_TRACE(program.name() + " on " + dev.name() + " at " +
                             optLevelName(level));
                CompileOptions opts;
                opts.level = level;
                CompileResult res =
                    compileForDevice(program, dev, calib, opts);
                frame_cells += frameMatchesReplay(res.hwCircuit, dev, calib,
                                                  512, seed);
                ++cells;
            }
        }
    }
    // A few cells replay: the 1Q optimizer can split a Clifford Z
    // rotation into two non-Clifford ones (Rz(3pi/4) Rz(pi/4) is
    // Clifford only as a product), and the test is per gate.
    EXPECT_EQ(cells, 168);
    EXPECT_GE(frame_cells, cells * 9 / 10);
}

TEST(FrameVsReplay, NonDeterministicCliffordCircuitStaysOnReplay)
{
    // GHZ measured without uncompute: Clifford, but half the trials
    // read 000 and half 111, which no flip mask can express.
    Circuit ghz(3, "GhzNoUncompute");
    ghz.add(Gate::h(0));
    ghz.add(Gate::cnot(0, 1));
    ghz.add(Gate::cnot(1, 2));
    for (int q = 0; q < 3; ++q)
        ghz.add(Gate::measure(q));
    const Device dev = makeIbmQ5();
    const Calibration calib = dev.calibrate(3);
    CompileResult res = compileForDevice(ghz, dev, calib, CompileOptions{});

    std::optional<FlipTable> table = flipTableOf(res.hwCircuit, dev, calib);
    ASSERT_TRUE(table.has_value());
    EXPECT_FALSE(table->deterministic);

    ExecutionResult r = executeNoisy(res.hwCircuit, dev, calib, 2000, 7);
    ExecutionResult replay = detail::executeNoisyWith(
        res.hwCircuit, dev, calib, 2000, 7, {}, {.frame = false});
    EXPECT_NEAR(r.idealOutcomeProb, 0.5, 1e-9);
    EXPECT_EQ(r.histogram, replay.histogram);
    EXPECT_GT(r.histogram[0], 700);
    EXPECT_GT(r.histogram[7], 700);
}

} // namespace
} // namespace triq
