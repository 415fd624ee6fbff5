/**
 * @file
 * Compiler-driver tests: the four Table-1 levels differ exactly as
 * specified; statistics are consistent; ESP ordering across levels is
 * sane on rigged calibrations.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"

#include "core/compiler.hh"
#include "core/esp.hh"
#include "device/machines.hh"
#include "sim/verify.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

TEST(Compiler, LevelNames)
{
    EXPECT_EQ(optLevelName(OptLevel::N), "TriQ-N");
    EXPECT_EQ(optLevelName(OptLevel::OneQOpt), "TriQ-1QOpt");
    EXPECT_EQ(optLevelName(OptLevel::OneQOptC), "TriQ-1QOptC");
    EXPECT_EQ(optLevelName(OptLevel::OneQOptCN), "TriQ-1QOptCN");
}

TEST(Compiler, LevelTokensRoundTrip)
{
    for (OptLevel level : {OptLevel::N, OptLevel::OneQOpt,
                           OptLevel::OneQOptC, OptLevel::OneQOptCN})
        EXPECT_EQ(optLevelFromToken(optLevelToken(level)), level);
    EXPECT_STREQ(optLevelToken(OptLevel::OneQOpt), "1q");
    EXPECT_THROW(optLevelFromToken("all"), FatalError);
    EXPECT_THROW(optLevelFromToken("CN"), FatalError);
}

TEST(Compiler, DefaultMappingLevelsUseIdentityPlacement)
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(1);
    Circuit program = makeBenchmark("BV4");
    for (OptLevel lvl : {OptLevel::N, OptLevel::OneQOpt}) {
        CompileOptions opts;
        opts.level = lvl;
        CompileResult res = compileForDevice(program, dev, calib, opts);
        for (size_t p = 0; p < res.initialMap.size(); ++p)
            EXPECT_EQ(res.initialMap[p], static_cast<HwQubit>(p))
                << optLevelName(lvl);
    }
}

TEST(Compiler, FusionReducesPulses)
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(1);
    Circuit program = makeBenchmark("HS4");
    CompileOptions opts;
    opts.level = OptLevel::N;
    auto naive = compileForDevice(program, dev, calib, opts);
    opts.level = OptLevel::OneQOpt;
    auto fused = compileForDevice(program, dev, calib, opts);
    EXPECT_LT(fused.stats.pulses1q, naive.stats.pulses1q);
    // Same placement, same communication: 2Q counts match.
    EXPECT_EQ(fused.stats.twoQ, naive.stats.twoQ);
}

TEST(Compiler, CommOptReducesSwapsForBv)
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(1);
    Circuit program = makeBenchmark("BV8");
    CompileOptions opts;
    opts.level = OptLevel::OneQOpt;
    auto deflt = compileForDevice(program, dev, calib, opts);
    opts.level = OptLevel::OneQOptC;
    auto comm = compileForDevice(program, dev, calib, opts);
    EXPECT_LT(comm.swapCount, deflt.swapCount);
    EXPECT_LT(comm.stats.twoQ, deflt.stats.twoQ);
}

TEST(Compiler, NoiseAwareAvoidsRiggedBadRegion)
{
    // Rig a calibration where the "cheap" identity-region edges are
    // terrible: CN must place elsewhere and achieve much better ESP.
    Device dev = makeIbmQ16();
    Calibration calib = dev.averageCalibration();
    const Topology &topo = dev.topology();
    for (int e = 0; e < topo.numEdges(); ++e) {
        const Coupling &cp = topo.edge(e);
        bool near_origin = cp.a <= 4 || cp.b <= 4;
        calib.err2q[static_cast<size_t>(e)] =
            near_origin ? 0.30 : 0.02;
    }
    Circuit program = makeBenchmark("BV4");
    CompileOptions opts;
    opts.level = OptLevel::OneQOptC;
    auto blind = compileForDevice(program, dev, calib, opts);
    opts.level = OptLevel::OneQOptCN;
    auto aware = compileForDevice(program, dev, calib, opts);
    double esp_blind = estimatedSuccessProbability(
        blind.hwCircuit, topo, calib);
    double esp_aware = estimatedSuccessProbability(
        aware.hwCircuit, topo, calib);
    EXPECT_GT(esp_aware, esp_blind);
    // The noise-aware placement must avoid all rigged-bad edges.
    for (const auto &g : aware.hwCircuit.gates())
        if (isTwoQubitGate(g.kind)) {
            int e = topo.edgeBetween(g.qubit(0), g.qubit(1));
            EXPECT_LT(calib.err2q[static_cast<size_t>(e)], 0.1)
                << g.str();
        }
}

TEST(Compiler, StatsMatchRecount)
{
    Device dev = makeRigettiAspen1();
    Calibration calib = dev.calibrate(2);
    for (const char *name : {"BV6", "QFT", "Fredkin"}) {
        CompileOptions opts;
        CompileResult res =
            compileForDevice(makeBenchmark(name), dev, calib, opts);
        TranslateStats recount = countTranslatedStats(res.hwCircuit);
        EXPECT_EQ(recount.twoQ, res.stats.twoQ) << name;
        EXPECT_EQ(recount.pulses1q, res.stats.pulses1q) << name;
        EXPECT_EQ(recount.virtualZ, res.stats.virtualZ) << name;
    }
}

TEST(Compiler, TooLargeProgramIsFatal)
{
    Device dev = makeRigettiAgave();
    Calibration calib = dev.calibrate(0);
    CompileOptions opts;
    EXPECT_THROW(
        compileForDevice(makeBenchmark("BV6"), dev, calib, opts),
        FatalError);
}

TEST(Compiler, AssemblyToggle)
{
    Device dev = makeUmdTi();
    Calibration calib = dev.calibrate(0);
    CompileOptions opts;
    opts.emitAssembly = false;
    auto no_asm =
        compileForDevice(makeBenchmark("Toffoli"), dev, calib, opts);
    EXPECT_TRUE(no_asm.assembly.empty());
    opts.emitAssembly = true;
    auto with_asm =
        compileForDevice(makeBenchmark("Toffoli"), dev, calib, opts);
    EXPECT_FALSE(with_asm.assembly.empty());
}

TEST(Compiler, CompileTimeRecorded)
{
    Device dev = makeIbmQ5();
    CompileOptions opts;
    auto res = compileForDevice(makeBenchmark("BV4"), dev,
                                dev.calibrate(0), opts);
    EXPECT_GT(res.compileMs, 0.0);
    EXPECT_LT(res.compileMs, 10000.0);
}

TEST(Compiler, ExtendedGateSetHalvesQftPhaseCost)
{
    // The Sec. 6.4 what-if: native CPHASE on a Rigetti-class device.
    Device study = makeRigettiAspen3();
    Device extended(study.name(), study.topology(),
                    GateSet::rigettiExtended(), study.noiseSpec());
    Calibration calib = study.calibrate(3);
    Circuit program = makeBenchmark("QFT");
    CompileOptions opts;
    opts.emitAssembly = true;
    CompileResult base = compileForDevice(program, study, calib, opts);
    CompileResult ext = compileForDevice(program, extended, calib, opts);
    EXPECT_LT(ext.stats.twoQ, base.stats.twoQ);
    // Native CPHASE appears in the compiled circuit and the Quil text.
    EXPECT_GT(ext.hwCircuit.countIf([](const Gate &g) {
        return g.kind == GateKind::Cphase;
    }), 0);
    EXPECT_NE(ext.assembly.find("CPHASE("), std::string::npos);
    // Both remain semantically correct.
    EXPECT_TRUE(verifyCompilation(program, base).equivalent);
    EXPECT_TRUE(verifyCompilation(program, ext).equivalent);
}

TEST(Compiler, NonExtendedTargetsLowerCphaseInline)
{
    // A raw Cphase program still compiles everywhere.
    Circuit program(2, "cp");
    program.add(Gate::h(0));
    program.add(Gate::cphase(0, 1, 0.9));
    program.add(Gate::h(0));
    program.add(Gate::measure(0));
    program.add(Gate::measure(1));
    for (const Device &dev : allStudyDevices()) {
        CompileOptions opts;
        opts.emitAssembly = false;
        CompileResult res =
            compileForDevice(program, dev, dev.calibrate(0), opts);
        EXPECT_TRUE(verifyCompilation(program, res).equivalent)
            << dev.name();
        for (const auto &g : res.hwCircuit.gates())
            EXPECT_NE(g.kind, GateKind::Cphase) << dev.name();
    }
}

TEST(Compiler, MapperEngineConfigurable)
{
    Device dev = makeIbmQ14();
    Calibration calib = dev.calibrate(1);
    Circuit program = makeBenchmark("Adder");
    CompileOptions opts;
    opts.mapping.kind = MapperKind::Greedy;
    auto greedy = compileForDevice(program, dev, calib, opts);
    opts.mapping.kind = MapperKind::BranchAndBound;
    auto bnb = compileForDevice(program, dev, calib, opts);
    // B&B optimizes the same objective at least as well as greedy.
    EXPECT_GE(bnb.mapperObjective, greedy.mapperObjective - 1e-12);
}

} // namespace
} // namespace triq
