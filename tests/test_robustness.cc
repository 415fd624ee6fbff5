/**
 * @file
 * Hardened-service contract tests: deadline-aware anytime compilation
 * with graceful degradation, calibration sanitization, deterministic
 * fault injection and the structured compile report. The central
 * invariant under test: a mappable program ALWAYS yields a valid routed
 * circuit — budgets and corrupt inputs may degrade quality, never
 * validity.
 */

#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "common/budget.hh"
#include "common/fault_injector.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "service/server.hh"
#include "sim/executor.hh"
#include "sim/verify.hh"
#include "workloads/benchmarks.hh"
#include "workloads/supremacy.hh"

namespace triq
{
namespace
{

/** Every 2Q gate of a compiled circuit must sit on a coupled pair. */
void
expectRoutedValid(const CompileResult &res, const Device &dev)
{
    for (const auto &g : res.hwCircuit.gates())
        if (isTwoQubitGate(g.kind))
            ASSERT_TRUE(dev.topology().adjacent(g.qubit(0), g.qubit(1)))
                << g.str();
    ASSERT_FALSE(res.initialMap.empty());
}

// ---------------------------------------------------------------------
// CompileBudget basics.
// ---------------------------------------------------------------------

TEST(CompileBudgetTest, DefaultIsUnlimited)
{
    CompileBudget b;
    EXPECT_FALSE(b.limited());
    EXPECT_FALSE(b.expired());
    EXPECT_GT(b.remainingMs(), 1e12);
}

TEST(CompileBudgetTest, ZeroDeadlineExpiresImmediately)
{
    CompileBudget b = CompileBudget::withDeadlineMs(0.0);
    EXPECT_TRUE(b.limited());
    EXPECT_TRUE(b.expired());
    EXPECT_LE(b.remainingMs(), 0.0);
}

TEST(CompileBudgetTest, GenerousDeadlineIsNotExpired)
{
    CompileBudget b = CompileBudget::withDeadlineMs(3600000.0);
    EXPECT_TRUE(b.limited());
    EXPECT_FALSE(b.expired());
}

// ---------------------------------------------------------------------
// The anytime guarantee.
// ---------------------------------------------------------------------

TEST(AnytimeTest, Supremacy72UnderTightDeadlineYieldsValidCircuit)
{
    // The acceptance scenario: a 72-qubit supremacy instance with a
    // deadline far too small for full branch-and-bound. The compile
    // must return a valid routed circuit with the degradation recorded
    // instead of overrunning or throwing.
    Device dev("Grid72", Topology::grid(6, 12), GateSet::ibm(),
               deviceByName("IBMQ14").noiseSpec());
    Circuit program = makeSupremacy(6, 12, 32, 1);
    Calibration calib = dev.calibrate(0);

    CompileOptions opts;
    opts.level = OptLevel::OneQOptCN;
    opts.mapping.kind = MapperKind::BranchAndBound;
    opts.budget = CompileBudget::withDeadlineMs(100.0);
    CompileResult res = compileForDevice(program, dev, calib, opts);

    expectRoutedValid(res, dev);
    EXPECT_TRUE(res.report.deadlineHit);
    EXPECT_TRUE(res.report.degraded);
    EXPECT_FALSE(res.report.degradations.empty());
    EXPECT_FALSE(res.report.mapperOptimal);
    // Whatever rung of the ladder answered, it must identify itself.
    EXPECT_TRUE(res.report.mapperEngine == "greedy" ||
                res.report.mapperEngine == "bnb")
        << res.report.mapperEngine;
}

TEST(AnytimeTest, TightDeadlineStillPreservesSemantics)
{
    // Small enough to verify by state vector: degradation may cost
    // reliability, never correctness.
    Device dev = deviceByName("IBMQ14");
    Circuit program = makeBenchmark("BV8");
    Calibration calib = dev.calibrate(0);

    CompileOptions opts;
    opts.budget = CompileBudget::withDeadlineMs(0.5);
    CompileResult res = compileForDevice(program, dev, calib, opts);

    expectRoutedValid(res, dev);
    VerificationResult v = verifyCompilation(program, res);
    EXPECT_TRUE(v.equivalent) << "maxDeviation=" << v.maxDeviation;
}

TEST(AnytimeTest, AlreadyExpiredBudgetStillCompilesEveryMapper)
{
    Device dev = deviceByName("IBMQ5");
    Circuit program = makeBenchmark("BV4");
    Calibration calib = dev.calibrate(0);
    for (MapperKind kind :
         {MapperKind::Trivial, MapperKind::Greedy,
          MapperKind::BranchAndBound, MapperKind::Smt}) {
        CompileOptions opts;
        opts.mapping.kind = kind;
        opts.budget = CompileBudget::withDeadlineMs(0.0);
        CompileResult res = compileForDevice(program, dev, calib, opts);
        expectRoutedValid(res, dev);
        VerificationResult v = verifyCompilation(program, res);
        EXPECT_TRUE(v.equivalent) << mapperKindName(kind);
    }
}

TEST(AnytimeTest, UnlimitedBudgetReproducesDefaultBitForBit)
{
    // The determinism half of the guarantee: no deadline (or a deadline
    // that never fires) must reproduce today's mapping exactly.
    Device dev = deviceByName("IBMQ14");
    Circuit program = makeBenchmark("QFT");
    Calibration calib = dev.calibrate(3);

    CompileOptions base;
    CompileResult a = compileForDevice(program, dev, calib, base);

    CompileOptions explicit_unlimited = base;
    explicit_unlimited.budget = CompileBudget();
    CompileResult b =
        compileForDevice(program, dev, calib, explicit_unlimited);

    CompileOptions generous = base;
    generous.budget = CompileBudget::withDeadlineMs(3600000.0);
    CompileResult c = compileForDevice(program, dev, calib, generous);

    EXPECT_EQ(a.assembly, b.assembly);
    EXPECT_EQ(a.assembly, c.assembly);
    EXPECT_EQ(a.initialMap, b.initialMap);
    EXPECT_EQ(a.initialMap, c.initialMap);
    EXPECT_EQ(a.swapCount, b.swapCount);
    EXPECT_EQ(a.swapCount, c.swapCount);
    EXPECT_FALSE(b.report.deadlineHit);
    EXPECT_FALSE(c.report.deadlineHit);
}

// ---------------------------------------------------------------------
// Calibration validation: strict vs sanitize.
// ---------------------------------------------------------------------

Calibration
poisonedCalibration(const Device &dev)
{
    Calibration c = dev.calibrate(0);
    c.err1q[0] = std::nan("");
    c.err1q[1] = -0.25;
    c.errRO[0] = 17.0;
    c.t2Us[0] = 0.0;
    if (!c.err2q.empty())
        c.err2q[0] = std::numeric_limits<double>::infinity();
    return c;
}

TEST(CalibrationValidateTest, SanitizeRepairsEveryPoisonedValue)
{
    Device dev = deviceByName("IBMQ14");
    Calibration c = poisonedCalibration(dev);
    Diagnostics diags("calibration");
    int repairs = c.validate(dev.topology(), ValidateMode::Sanitize, diags);
    EXPECT_GE(repairs, 5);
    EXPECT_FALSE(diags.hasErrors());
    EXPECT_GE(diags.warningCount(), 5);
    for (double v : c.err1q) {
        EXPECT_TRUE(std::isfinite(v));
        EXPECT_TRUE(v >= 0.0 && v < 1.0);
    }
    for (double v : c.err2q)
        EXPECT_TRUE(v >= 0.0 && v < 1.0);
    for (double v : c.t2Us)
        EXPECT_GT(v, 0.0);
}

TEST(CalibrationValidateTest, StrictModeRejectsWithStructuredErrors)
{
    Device dev = deviceByName("IBMQ14");
    Calibration c = poisonedCalibration(dev);
    Diagnostics diags("calibration");
    c.validate(dev.topology(), ValidateMode::Strict, diags);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_GE(diags.errorCount(), 5);
}

TEST(CalibrationValidateTest, CleanCalibrationPassesBothModes)
{
    Device dev = deviceByName("IBMQ14");
    Calibration c = dev.calibrate(0);
    Diagnostics strict("calibration"), sanitize("calibration");
    EXPECT_EQ(c.validate(dev.topology(), ValidateMode::Strict, strict), 0);
    EXPECT_EQ(
        c.validate(dev.topology(), ValidateMode::Sanitize, sanitize), 0);
    EXPECT_FALSE(strict.hasErrors());
    EXPECT_FALSE(sanitize.hasErrors());
}

TEST(CalibrationValidateTest, DisconnectedTopologyIsAnErrorInBothModes)
{
    Topology topo(4);
    topo.addEdge(0, 1);
    topo.addEdge(2, 3); // two components
    NoiseSpec spec = deviceByName("IBMQ5").noiseSpec();
    Calibration c = synthesizeCalibration(topo, spec, "TestPair", 0);
    for (ValidateMode mode :
         {ValidateMode::Strict, ValidateMode::Sanitize}) {
        Diagnostics diags("calibration");
        c.validate(topo, mode, diags);
        EXPECT_TRUE(diags.hasErrors());
    }
}

TEST(CalibrationValidateTest, QubitCountMismatchIsAnError)
{
    Device dev = deviceByName("IBMQ14");
    Calibration c = dev.calibrate(0);
    c.numQubits = 5; // wrong device's data
    Diagnostics diags("calibration");
    c.validate(dev.topology(), ValidateMode::Sanitize, diags);
    EXPECT_TRUE(diags.hasErrors());
}

TEST(CalibrationValidateTest, CompilerSanitizesAndRecordsRepairs)
{
    Device dev = deviceByName("IBMQ14");
    Calibration c = poisonedCalibration(dev);
    CompileOptions opts;
    CompileResult res =
        compileForDevice(makeBenchmark("BV8"), dev, c, opts);
    expectRoutedValid(res, dev);
    EXPECT_GT(res.report.calibrationRepairs, 0);
    EXPECT_TRUE(res.report.degraded);

    // The caller's calibration is not mutated: sanitization works on a
    // private copy.
    EXPECT_TRUE(std::isnan(c.err1q[0]));
}

TEST(CalibrationValidateTest, CompilerStrictModeThrowsFatal)
{
    Device dev = deviceByName("IBMQ14");
    Calibration c = poisonedCalibration(dev);
    CompileOptions opts;
    opts.strictCalibration = true;
    EXPECT_THROW(compileForDevice(makeBenchmark("BV8"), dev, c, opts),
                 FatalError);
}

// ---------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------

TEST(FaultInjectorTest, DisabledInjectorIsANoOp)
{
    FaultInjector inj;
    EXPECT_FALSE(inj.enabled());
    std::vector<double> v{0.1, 0.2, 0.3};
    std::vector<double> orig = v;
    EXPECT_EQ(inj.corruptValues(v), 0);
    EXPECT_EQ(v, orig);
    EXPECT_EQ(inj.corruptText("hello"), "hello");
}

TEST(FaultInjectorTest, SameSeedSameFaults)
{
    auto corrupt_once = [](uint64_t seed) {
        FaultInjector inj({true, true}, seed);
        std::vector<double> v(32, 0.5);
        inj.corruptValues(v);
        std::string t = inj.corruptText("OPENQASM 2.0; qreg q[4];");
        return std::make_pair(v, t);
    };
    auto [v1, t1] = corrupt_once(42);
    auto [v2, t2] = corrupt_once(42);
    auto [v3, t3] = corrupt_once(43);
    // Bitwise comparison (NaN != NaN), so compare representations.
    ASSERT_EQ(v1.size(), v2.size());
    for (size_t i = 0; i < v1.size(); ++i)
        EXPECT_EQ(std::memcmp(&v1[i], &v2[i], sizeof(double)), 0);
    EXPECT_EQ(t1, t2);
    EXPECT_NE(t1, t3); // different seed, different corruption
}

TEST(FaultInjectorTest, ArmedCorruptValuesAlwaysHitsSomething)
{
    FaultInjector inj({true, false}, 9);
    for (int round = 0; round < 20; ++round) {
        std::vector<double> v(8, 0.01);
        EXPECT_GE(inj.corruptValues(v), 1);
    }
}

TEST(FaultInjectorTest, InjectedCalibrationCompilesUnderSanitization)
{
    Device dev = deviceByName("IBMQ14");
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Calibration calib = dev.calibrate(0);
        FaultInjector inj({true, false}, seed);
        int n = injectCalibrationFaults(calib, inj);
        EXPECT_GE(n, 1) << "seed " << seed;
        CompileOptions opts;
        CompileResult res =
            compileForDevice(makeBenchmark("BV8"), dev, calib, opts);
        expectRoutedValid(res, dev);
        EXPECT_GT(res.report.calibrationRepairs, 0) << "seed " << seed;
    }
}

TEST(FaultInjectorTest, FromEnvDisabledWhenUnset)
{
    // The suite runs without TRIQ_FAULT set; fromEnv must be inert.
    FaultInjector inj = FaultInjector::fromEnv();
    EXPECT_FALSE(inj.enabled());
}

// ---------------------------------------------------------------------
// Executor guards.
// ---------------------------------------------------------------------

TEST(ExecutorGuardTest, PoisonedCalibrationDoesNotPoisonTheSimulation)
{
    Device dev = deviceByName("IBMQ5");
    Calibration calib = poisonedCalibration(dev);
    CompileResult res =
        compileForDevice(makeBenchmark("BV4"), dev, dev.calibrate(0),
                         CompileOptions{});
    ExecutionResult run = executeNoisy(res.hwCircuit, dev, calib, 200);
    EXPECT_TRUE(std::isfinite(run.successRate));
    EXPECT_GE(run.successRate, 0.0);
    EXPECT_LE(run.successRate, 1.0);
    EXPECT_TRUE(std::isfinite(run.esp));
}

// ---------------------------------------------------------------------
// Structured report / diagnostics rendering.
// ---------------------------------------------------------------------

TEST(CompileReportTest, ReportCarriesEnginesTimingsAndRenders)
{
    Device dev = deviceByName("IBMQ14");
    CompileOptions opts;
    opts.mapping.kind = MapperKind::BranchAndBound;
    CompileResult res = compileForDevice(makeBenchmark("BV8"), dev,
                                         dev.calibrate(0), opts);
    const CompileReport &r = res.report;
    EXPECT_EQ(r.requestedMapper, "bnb");
    EXPECT_EQ(r.mapperEngine, "bnb");
    EXPECT_FALSE(r.degraded);
    EXPECT_FALSE(r.deadlineHit);
    EXPECT_GE(r.passes.size(), 5u); // sanitize..translate at minimum
    for (const auto &p : r.passes) {
        EXPECT_FALSE(p.pass.empty());
        EXPECT_GE(p.ms, 0.0);
    }
    EXPECT_NE(r.str().find("mapper:"), std::string::npos);
    JsonWriter w;
    r.writeJson(w);
    JsonParseResult json = parseJson(w.str());
    ASSERT_TRUE(json.ok) << w.str() << " -- " << json.error;
    EXPECT_EQ(json.value.getString("mapperEngine"), "bnb");
    const JsonValue *passes = json.value.find("passes");
    ASSERT_TRUE(passes && passes->isArray());
    EXPECT_EQ(passes->array.size(), r.passes.size());
}

TEST(CompileReportTest, SmtRequestRecordsLadderInReport)
{
    // Whatever this build has (Z3 or not), requesting SMT under an
    // expired budget must fall down the ladder and say so in the
    // report alone: a fallback writes nothing to stderr. The same holds
    // for the product objective, which the SMT engine cannot optimize.
    Device dev = deviceByName("IBMQ5");
    CompileOptions expired;
    expired.mapping.kind = MapperKind::Smt;
    expired.budget = CompileBudget::withDeadlineMs(0.0);
    CompileOptions product;
    product.mapping.kind = MapperKind::Smt;
    product.mapping.objective = MappingObjective::Product;
    for (const CompileOptions &opts : {expired, product}) {
        testing::internal::CaptureStderr();
        CompileResult res = compileForDevice(makeBenchmark("BV4"), dev,
                                             dev.calibrate(0), opts);
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
        EXPECT_EQ(res.report.requestedMapper, "smt");
        EXPECT_NE(res.report.mapperEngine, "smt");
        EXPECT_TRUE(res.report.degraded);
        EXPECT_FALSE(res.report.degradations.empty());
    }
}

TEST(DiagnosticsTest, JsonEscapesControlAndNonAsciiBytes)
{
    Diagnostics diags("<origin\x01>");
    diags.error("test.code", "bad \"bytes\" \x02\xff here", {3, 7});
    std::string json = diags.json();
    for (char ch : json)
        EXPECT_GE(static_cast<unsigned char>(ch), 0x20u);
    EXPECT_NE(json.find("\\u0002"), std::string::npos);
    EXPECT_NE(json.find("\\\""), std::string::npos);
}

TEST(DiagnosticsTest, MergeAndCapBehave)
{
    Diagnostics a("a"), b("b");
    a.maxErrors = 4;
    for (int i = 0; i < 10; ++i)
        b.error("x", "error " + std::to_string(i));
    a.merge(b);
    EXPECT_TRUE(a.truncated());
    EXPECT_EQ(a.errorCount(), 10);
    EXPECT_LE(static_cast<int>(a.all().size()), 4);
}

// --- triqd protocol fuzzing -----------------------------------------------
//
// The server's input surface is a socket: anything can arrive. The
// contract under fuzzing is absolute — every frame, however mangled,
// earns exactly one reply line that this same parser accepts, and the
// engine keeps serving clean requests afterwards.

namespace
{

/** Reply must be a JSON object; returns its error code ("" if ok). */
std::string
replyCode(Server &server, const std::string &frame)
{
    std::string reply = server.processLine("fuzz", frame);
    JsonParseResult r = parseJson(reply);
    EXPECT_TRUE(r.ok) << "unparseable reply: " << reply;
    EXPECT_TRUE(r.value.isObject()) << reply;
    const JsonValue *err = r.value.find("error");
    if (err) {
        EXPECT_FALSE(r.value.getBool("ok", true)) << reply;
        std::string code = err->getString("code");
        EXPECT_FALSE(code.empty()) << reply;
        return code;
    }
    EXPECT_TRUE(r.value.getBool("ok")) << reply;
    return "";
}

} // namespace

TEST(ServerProtocolFuzzTest, TruncatedFramesAlwaysAnswerStructurally)
{
    Server server;
    const std::string whole =
        "{\"id\":\"t1\",\"op\":\"compile\",\"bench\":\"BV4\","
        "\"device\":\"IBMQ5\",\"level\":\"cn\",\"day\":2}";
    // Every prefix of a valid frame is either valid JSON (the full
    // frame) or a parse error — never a hang, never a crash.
    for (size_t cut = 0; cut < whole.size(); ++cut)
        EXPECT_EQ(replyCode(server, whole.substr(0, cut)), "proto.parse")
            << "cut=" << cut;
    EXPECT_EQ(replyCode(server, whole), "");
}

TEST(ServerProtocolFuzzTest, MangledBytesNeverKillTheEngine)
{
    Server server;
    const std::string base =
        "{\"id\":9,\"op\":\"compile\",\"bench\":\"BV4\","
        "\"device\":\"IBMQ5\"}";
    // Deterministic byte corruption at every position: overwrite with
    // a control byte, a quote, a brace and a high bit in turn.
    const char junk[] = {'\x01', '"', '}', '\xff'};
    for (size_t i = 0; i < base.size(); ++i) {
        std::string mangled = base;
        mangled[i] = junk[i % sizeof(junk)];
        replyCode(server, mangled); // asserts reply well-formedness
    }
    // Deterministic pseudo-random garbage lines.
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    for (int round = 0; round < 64; ++round) {
        std::string garbage;
        for (int k = 0; k < 48; ++k) {
            rng = rng * 6364136223846793005ull + 1442695040888963407ull;
            garbage += static_cast<char>(rng >> 56);
        }
        replyCode(server, garbage);
    }
    // And the engine still serves.
    EXPECT_EQ(replyCode(server, base), "");
    ServerStats st = server.stats();
    EXPECT_EQ(st.crashes, 0);
}

TEST(ServerProtocolFuzzTest, OversizedFramesAreSingleStructuredRejections)
{
    ServerConfig cfg;
    cfg.maxRequestBytes = 4096;
    Server server(std::move(cfg));
    for (long size : {4097L, 8192L, 1L << 18}) {
        std::string frame = "{\"op\":\"ping\",\"pad\":\"";
        frame += std::string(static_cast<size_t>(size), 'z');
        frame += "\"}";
        EXPECT_EQ(replyCode(server, frame), "proto.oversized") << size;
    }
    // Exactly at the cap is admitted (and parses).
    std::string fit = "{\"op\":\"ping\",\"pad\":\"";
    fit += std::string(4096 - fit.size() - 2, 'z');
    fit += "\"}";
    ASSERT_EQ(static_cast<long>(fit.size()), 4096L);
    EXPECT_EQ(replyCode(server, fit), "");
}

TEST(ServerProtocolFuzzTest, InterleavedClientsKeepIdCorrelation)
{
    Server server;
    // Four threads stream distinct ids through one engine; every reply
    // must carry its own request's id back (no cross-talk between
    // clients sharing the worker pool and the cache).
    std::vector<std::thread> clients;
    std::atomic<int> mismatches{0};
    for (int c = 0; c < 4; ++c) {
        clients.emplace_back([&server, &mismatches, c] {
            const std::string who = "client-" + std::to_string(c);
            for (int i = 0; i < 8; ++i) {
                std::string id =
                    who + "-r" + std::to_string(i);
                std::string frame =
                    "{\"id\":\"" + id +
                    "\",\"op\":\"compile\",\"bench\":\"BV4\","
                    "\"device\":\"IBMQ5\",\"day\":" +
                    std::to_string(i % 3) + "}";
                JsonParseResult r =
                    parseJson(server.processLine(who, frame));
                if (!r.ok || r.value.getString("id") != id ||
                    !r.value.getBool("ok"))
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    ServerStats st = server.stats();
    EXPECT_EQ(st.completed, 32);
    EXPECT_EQ(st.crashes, 0);
}

} // namespace
} // namespace triq
