/**
 * @file
 * Intra-state kernel parallelism and cache-blocked tiling tests.
 *
 * The contract under test is exact: for every gate family, for every
 * kernel-thread setting, and with tiling on or off, amplitudes must be
 * BIT-identical (memcmp) to the serial untiled path — sharding never
 * changes any per-amplitude arithmetic, only who executes it. The
 * raised 30-qubit ceiling is checked structurally (admission math, no
 * giant allocation ever happens in-process).
 */

#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/resource.hh"
#include "common/rng.hh"
#include "core/compiler.hh"
#include "core/unitary.hh"
#include "device/machines.hh"
#include "service/cost_model.hh"
#include "sim/executor.hh"
#include "sim/fusion.hh"
#include "sim/sim_cost.hh"
#include "sim/statevector.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

/** Bitwise equality of two equal-size states. */
bool
bitIdentical(const StateVector &a, const StateVector &b)
{
    return a.dim() == b.dim() &&
           std::memcmp(a.amps().data(), b.amps().data(),
                       a.dim() * sizeof(Cplx)) == 0;
}

/** A non-trivial dense state: every amplitude nonzero and distinct. */
StateVector
preparedState(int num_qubits, uint64_t seed)
{
    Rng rng(seed);
    StateVector sv(num_qubits);
    for (int q = 0; q < num_qubits; ++q)
        sv.applyGate(Gate::u3(q, rng.uniform(0.1, kPi - 0.1),
                              rng.uniform(-kPi, kPi),
                              rng.uniform(-kPi, kPi)));
    for (int q = 0; q + 1 < num_qubits; ++q)
        sv.applyGate(Gate::cnot(q, q + 1));
    return sv;
}

/**
 * Per-gate-family kernel workloads. Each body applies the family's
 * kernels at qubit positions that exercise every code path: qubit 0
 * (the stride-1 AVX2 layout), middle qubits, and the top qubit (one
 * group per shard-boundary stride).
 */
struct Family
{
    const char *name;
    void (*apply)(StateVector &sv);
};

const Family kFamilies[] = {
    {"dense1q",
     [](StateVector &sv) {
         const Matrix m = gateMatrix(Gate::u3(0, 0.7, -0.3, 1.1));
         sv.applyMatrix1(m, 0);
         sv.applyMatrix1(m, sv.numQubits() / 2);
         sv.applyMatrix1(m, sv.numQubits() - 1);
         sv.applyX(1);
         sv.applyY(2);
         sv.applyZ(0);
     }},
    {"diagonal",
     [](StateVector &sv) {
         sv.applyPhase1(0, Cplx(0.6, 0.8));
         sv.applyRz(sv.numQubits() - 1, 0.9);
         const int qs[3] = {0, 1, sv.numQubits() - 1};
         Cplx table[8];
         for (int i = 0; i < 8; ++i)
             table[i] = Cplx(std::cos(0.1 * i), std::sin(0.1 * i));
         sv.applyDiagonal(table, qs, 3);
     }},
    {"cnot-cz-cphase",
     [](StateVector &sv) {
         const int top = sv.numQubits() - 1;
         sv.applyCnot(0, top);
         sv.applyCnot(top, 0);
         sv.applyCz(1, top);
         sv.applyCphase(0, 2, 1.3);
     }},
    {"swap",
     [](StateVector &sv) {
         sv.applySwap(0, sv.numQubits() - 1);
         sv.applySwap(1, 2);
     }},
    {"fused-dense",
     [](StateVector &sv) {
         const Matrix m1 = gateMatrix(Gate::u3(0, 0.4, 0.2, -0.9));
         Cplx f1[4] = {m1(0, 0), m1(0, 1), m1(1, 0), m1(1, 1)};
         sv.applyFused1(f1, 0); // stride-1 adjacent-pair path
         sv.applyFused1(f1, sv.numQubits() - 1);
         const Matrix m2 = gateMatrix(Gate::xx(0, 1, 0.8));
         Cplx f2[16];
         for (int r = 0; r < 4; ++r)
             for (int c = 0; c < 4; ++c)
                 f2[r * 4 + c] = m2(r, c);
         sv.applyFused2(f2, 0, sv.numQubits() - 1); // stride-1 dense
         sv.applyFused2(f2, 1, 2);                  // general path
         // An 8x8 unitary: ccx's matrix is unitary and asymmetric
         // enough to catch index bugs.
         const Matrix m3 = gateMatrix(Gate::ccx(0, 1, 2));
         Cplx f3[64];
         for (int r = 0; r < 8; ++r)
             for (int c = 0; c < 8; ++c)
                 f3[r * 8 + c] = m3(r, c);
         sv.applyFused3(f3, 0, 1, sv.numQubits() - 1); // stride-1
         sv.applyFused3(f3, 1, 2, 3);                  // general
     }},
};

TEST(Kernels, PerFamilyBitIdenticalAcrossThreadCounts)
{
    // TRIQ_KERNEL_THREADS in {1, 2, 7} plus adaptive (0): every
    // family's amplitudes must match the serial run bit for bit.
    for (const Family &fam : kFamilies) {
        StateVector serial = preparedState(11, 0xC0FFEE);
        serial.setKernelThreads(1);
        fam.apply(serial);
        for (int setting : {2, 7, 0}) {
            StateVector sv = preparedState(11, 0xC0FFEE);
            sv.setKernelThreads(setting);
            fam.apply(sv);
            EXPECT_TRUE(bitIdentical(sv, serial))
                << fam.name << " diverged at kernel threads "
                << setting;
        }
    }
}

TEST(Kernels, SmallRegistersStayExactUnderForcedThreads)
{
    // Below the sharding grain the kernels take the serial fast path;
    // forced thread counts larger than the register must still be
    // exact and must not crash.
    for (int nq : {3, 4}) {
        for (const Family &fam : kFamilies) {
            if (nq < 4 && std::strcmp(fam.name, "fused-dense") == 0)
                continue; // needs 4 distinct qubits
            StateVector serial = preparedState(nq, 7);
            serial.setKernelThreads(1);
            fam.apply(serial);
            StateVector sv = preparedState(nq, 7);
            sv.setKernelThreads(7);
            fam.apply(sv);
            EXPECT_TRUE(bitIdentical(sv, serial))
                << fam.name << " on " << nq << " qubits";
        }
    }
}

TEST(Kernels, ApplyGateCircuitBitIdenticalAcrossThreadCounts)
{
    // Whole-circuit evolution through applyGate (the executor's
    // replay path) across thread settings.
    Rng rng(31);
    Circuit c(10, "mix");
    for (int i = 0; i < 120; ++i) {
        int a = rng.uniformInt(10), b = (a + 1 + rng.uniformInt(9)) % 10;
        switch (rng.uniformInt(6)) {
          case 0:
            c.add(Gate::h(a));
            break;
          case 1:
            c.add(Gate::u3(a, rng.uniform(0, kPi),
                           rng.uniform(-kPi, kPi),
                           rng.uniform(-kPi, kPi)));
            break;
          case 2:
            c.add(Gate::cnot(a, b));
            break;
          case 3:
            c.add(Gate::cphase(a, b, rng.uniform(-kPi, kPi)));
            break;
          case 4:
            c.add(Gate::swap(a, b));
            break;
          default:
            c.add(Gate::rz(a, rng.uniform(-kPi, kPi)));
            break;
        }
    }
    StateVector serial(10);
    serial.setKernelThreads(1);
    serial.applyCircuit(c);
    for (int setting : {2, 7, 0}) {
        StateVector sv(10);
        sv.setKernelThreads(setting);
        sv.applyCircuit(c);
        EXPECT_TRUE(bitIdentical(sv, serial))
            << "kernel threads " << setting;
    }
}

TEST(Kernels, ExecutorHistogramsBitIdenticalAcrossKernelThreads)
{
    // Full executor stack (fusion + checkpoints) with kernel
    // threading forced on: histograms and rates must equal the serial
    // kernels' run exactly.
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(2);
    CompileOptions copts;
    copts.emitAssembly = false;
    CompileResult res =
        compileForDevice(makeBenchmark("Peres"), dev, calib, copts);
    ExecOptions base;
    base.threads = 1;
    base.kernelThreads = 1;
    ExecutionResult a =
        executeNoisy(res.hwCircuit, dev, calib, 1500, 42, base);
    for (int setting : {2, 7, -1}) {
        ExecOptions opt;
        opt.threads = 1;
        opt.kernelThreads = setting;
        ExecutionResult b =
            executeNoisy(res.hwCircuit, dev, calib, 1500, 42, opt);
        EXPECT_DOUBLE_EQ(b.successRate, a.successRate)
            << "kernel threads " << setting;
        EXPECT_EQ(b.histogram, a.histogram)
            << "kernel threads " << setting;
    }
}

TEST(Kernels, EnvDefaultKernelThreads)
{
    unsetenv("TRIQ_KERNEL_THREADS");
    EXPECT_EQ(defaultKernelThreads(), 1);
    setenv("TRIQ_KERNEL_THREADS", "0", 1);
    EXPECT_EQ(defaultKernelThreads(), 0);
    setenv("TRIQ_KERNEL_THREADS", "5", 1);
    EXPECT_EQ(defaultKernelThreads(), 5);
    setenv("TRIQ_KERNEL_THREADS", "lots", 1);
    EXPECT_EQ(defaultKernelThreads(), 1); // warn-and-fallback
    unsetenv("TRIQ_KERNEL_THREADS");
}

/**
 * A 9-qubit circuit whose tail is a long run of low-qubit gates: the
 * prefix touches high qubits (stays a Pass/unfused region), the tail
 * fuses into >= 2 consecutive tileable ops when tileQubits = 6.
 */
Circuit
tiledCircuit()
{
    Circuit c(9, "tiled");
    for (int q = 0; q < 9; ++q)
        c.add(Gate::h(q));
    c.add(Gate::cnot(7, 8));
    // Low-qubit tail: dense 2-3 qubit regions and a diagonal run.
    Rng rng(5);
    for (int rep = 0; rep < 6; ++rep) {
        c.add(Gate::u3(0, 0.3, 0.1, -0.2));
        c.add(Gate::cnot(0, 1));
        c.add(Gate::u3(1, -0.4, 0.7, 0.2));
        c.add(Gate::cnot(1, 2));
        c.add(Gate::t(0));
        c.add(Gate::cz(0, 2));
        c.add(Gate::rz(1, rng.uniform(-kPi, kPi)));
        c.add(Gate::cphase(1, 2, rng.uniform(-kPi, kPi)));
    }
    return c;
}

TEST(Kernels, TilingEngagesAndIsBitExact)
{
    Circuit c = tiledCircuit();
    FusionOptions untiled;
    untiled.tileQubits = 0;
    FusedProgram plain(c, untiled);
    EXPECT_EQ(plain.stats().tileRuns, 0);

    FusionOptions tiled;
    tiled.tileQubits = 6;
    FusedProgram blocked(c, tiled);
    ASSERT_GT(blocked.stats().tileRuns, 0);
    ASSERT_GE(blocked.stats().tiledOps, 2);

    StateVector a(9), b(9);
    plain.applyAll(a);
    blocked.applyAll(b);
    EXPECT_TRUE(bitIdentical(a, b));

    // Tiling composes with kernel threading (shards are whole tiles).
    StateVector t2(9), t7(9);
    t2.setKernelThreads(2);
    t7.setKernelThreads(7);
    blocked.applyAll(t2);
    blocked.applyAll(t7);
    EXPECT_TRUE(bitIdentical(t2, a));
    EXPECT_TRUE(bitIdentical(t7, a));

    // Partial ranges (checkpoint resume / fault injection boundaries):
    // a split inside a fused op replays plain gates for that op in
    // both programs, so the tiled program must match the untiled one
    // bit for bit at every split point — tiling never changes what a
    // range boundary replays.
    for (int split : {1, 9, 10, 17, 25, c.numGates() - 1}) {
        StateVector p(9), s(9);
        plain.apply(p, 0, split);
        plain.apply(p, split, c.numGates());
        blocked.apply(s, 0, split);
        blocked.apply(s, split, c.numGates());
        EXPECT_TRUE(bitIdentical(s, p)) << "split " << split;
    }
}

TEST(Kernels, TilingDisabledBelowOneTile)
{
    // A register that fits inside one tile never builds tile runs.
    Circuit c(5, "small");
    for (int rep = 0; rep < 6; ++rep) {
        c.add(Gate::u3(0, 0.3, 0.1, -0.2));
        c.add(Gate::cnot(0, 1));
        c.add(Gate::t(1));
        c.add(Gate::cz(1, 2));
    }
    FusionOptions opt;
    opt.tileQubits = 6;
    FusedProgram fused(c, opt);
    EXPECT_EQ(fused.stats().tileRuns, 0);
}

TEST(Kernels, Fig07HistogramsIdenticalTiledVsUntiled)
{
    // The whole Fig. 7 study set through the executor, tiled
    // (TRIQ_SIM_TILE=6, so even small compact registers tile) vs.
    // untiled: bit-identical histograms, every benchmark.
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(2);
    int compared = 0;
    for (const std::string &name : benchmarkNames()) {
        Circuit program = makeBenchmark(name);
        if (program.numQubits() > dev.numQubits())
            continue;
        CompileOptions copts;
        copts.emitAssembly = false;
        CompileResult res =
            compileForDevice(program, dev, calib, copts);
        ExecOptions eo;
        eo.threads = 1;
        eo.fusion = 1;
        setenv("TRIQ_SIM_TILE", "0", 1);
        ExecutionResult untiled =
            executeNoisy(res.hwCircuit, dev, calib, 300, 11, eo);
        setenv("TRIQ_SIM_TILE", "6", 1);
        ExecutionResult tiled =
            executeNoisy(res.hwCircuit, dev, calib, 300, 11, eo);
        unsetenv("TRIQ_SIM_TILE");
        EXPECT_EQ(tiled.histogram, untiled.histogram) << name;
        EXPECT_DOUBLE_EQ(tiled.successRate, untiled.successRate)
            << name;
        ++compared;
    }
    EXPECT_GE(compared, 8);
}

TEST(Kernels, ThirtyQubitCeilingIsStructural)
{
    // The representation accepts 30 qubits; what actually runs is
    // decided by admission math, never by an allocator crash. A
    // 30-qubit state is 16 GiB — the test only does arithmetic.
    EXPECT_EQ(StateVector::maxQubits(), 30);
    EXPECT_THROW(StateVector(31), FatalError);
    EXPECT_EQ(stateVectorBytes(30), uint64_t{16} << 30);

    // Admission against a small budget rejects 30 qubits up front
    // (even the degraded 2-state plan needs 32 GiB)...
    ResourceGovernor tight(uint64_t{1} << 30);
    EXPECT_FALSE(tight.wouldFit(predictLowMemSimulationBytes(30)));
    // ...and the reservation path reports it structurally.
    EXPECT_THROW(tight.reserve(predictLowMemSimulationBytes(30),
                               "30-qubit simulation"),
                 ResourceError);

    // The service-level verdict carries the same numbers: a 30-qubit
    // simulate request against a tight process budget is refused with
    // a sized reason, not a bad_alloc.
    ResourceGovernor &gov = processGovernor();
    const uint64_t saved = gov.budgetBytes();
    gov.setBudgetBytes(uint64_t{1} << 30);
    AdmissionVerdict v = checkAdmission(30, 1, 50, 200, 0.0, true);
    gov.setBudgetBytes(saved);
    EXPECT_FALSE(v.fits);
    EXPECT_GE(v.predictedBytes, uint64_t{32} << 30);
    EXPECT_FALSE(v.reason.empty());

    // And with a roomy budget the same request is admitted — the
    // ceiling itself never rejects.
    gov.setBudgetBytes(uint64_t{128} << 30);
    AdmissionVerdict roomy = checkAdmission(30, 1, 50, 200, 0.0, true);
    gov.setBudgetBytes(saved);
    EXPECT_TRUE(roomy.fits);
}

} // namespace
} // namespace triq
