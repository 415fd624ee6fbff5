/**
 * @file
 * End-to-end fuzzing, in two halves:
 *
 *  1. Generative: random programs are generated as ScaffLite source,
 *     pushed through the entire stack (parse -> lower -> compile for a
 *     random device at a random level -> verify), asserting semantic
 *     equivalence and hardware-constraint compliance every time.
 *
 *  2. Adversarial: a corpus of malformed inputs (truncated programs,
 *     garbage bytes, unknown gates, register overflows, corrupt
 *     calibration text) is fed to every input surface, asserting the
 *     structured-diagnostics contract — errors are *collected*, never
 *     crashes, hangs, or uncaught exceptions.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "lang/lower.hh"
#include "lang/qasm_parser.hh"
#include "lang/scaff_writer.hh"
#include "sim/verify.hh"

namespace triq
{
namespace
{

/** Generate a random program circuit over n qubits. */
Circuit
randomProgram(Rng &rng, int n, int gates)
{
    Circuit c(n, "fuzz");
    for (int i = 0; i < gates; ++i) {
        int pick = rng.uniformInt(10);
        int a = rng.uniformInt(n);
        int b = (a + 1 + rng.uniformInt(n - 1)) % n;
        switch (pick) {
          case 0:
            c.add(Gate::h(a));
            break;
          case 1:
            c.add(Gate::x(a));
            break;
          case 2:
            c.add(Gate::t(a));
            break;
          case 3:
            c.add(Gate::rz(a, rng.uniform(-kPi, kPi)));
            break;
          case 4:
            c.add(Gate::ry(a, rng.uniform(-kPi, kPi)));
            break;
          case 5:
          case 6:
            c.add(Gate::cnot(a, b));
            break;
          case 7:
            c.add(Gate::cz(a, b));
            break;
          case 8:
            c.add(Gate::cphase(a, b, rng.uniform(-kPi, kPi)));
            break;
          default:
            if (n >= 3) {
                int t = (b + 1 + rng.uniformInt(n - 2)) % n;
                if (t != a && t != b) {
                    c.add(Gate::ccx(a, b, t));
                    break;
                }
            }
            c.add(Gate::swap(a, b));
            break;
        }
    }
    // Measure a random non-empty subset.
    bool any = false;
    for (int q = 0; q < n; ++q)
        if (rng.bernoulli(0.6)) {
            c.add(Gate::measure(q));
            any = true;
        }
    if (!any)
        c.add(Gate::measure(rng.uniformInt(n)));
    return c;
}

class FullStackFuzz : public ::testing::TestWithParam<uint64_t>
{
};

TEST_P(FullStackFuzz, RandomProgramsSurviveTheWholeStack)
{
    Rng rng(0xF022 + GetParam() * 77);
    auto devices = allStudyDevices();
    const Device &dev = devices[static_cast<size_t>(
        rng.uniformInt(static_cast<int>(devices.size())))];
    int n = 2 + rng.uniformInt(std::min(4, dev.numQubits() - 1));
    Circuit program = randomProgram(rng, n, 8 + rng.uniformInt(18));

    // Round-trip through the language layer first.
    Circuit parsed = compileScaffLite(toScaffLite(program));
    ASSERT_EQ(parsed.numGates(), program.numGates());

    OptLevel level = static_cast<OptLevel>(rng.uniformInt(4));
    CompileOptions opts;
    opts.level = level;
    opts.peephole = rng.bernoulli(0.5);
    opts.mapping.kind =
        rng.bernoulli(0.5) ? MapperKind::Greedy
                           : MapperKind::BranchAndBound;
    Calibration calib = dev.calibrate(rng.uniformInt(30));
    CompileResult res = compileForDevice(parsed, dev, calib, opts);

    // Hardware constraints.
    for (const auto &g : res.hwCircuit.gates()) {
        if (isTwoQubitGate(g.kind)) {
            ASSERT_TRUE(dev.topology().adjacent(g.qubit(0), g.qubit(1)))
                << dev.name() << " " << g.str();
        }
    }

    // Semantics.
    VerificationResult v = verifyCompilation(parsed, res);
    EXPECT_TRUE(v.equivalent)
        << dev.name() << " " << optLevelName(level)
        << " maxDeviation=" << v.maxDeviation << "\n"
        << program.str();
}

INSTANTIATE_TEST_SUITE_P(Seeds, FullStackFuzz,
                         ::testing::Range(uint64_t{0}, uint64_t{60}));

// ---------------------------------------------------------------------
// Adversarial corpus: malformed front-end inputs.
// ---------------------------------------------------------------------

/** One malformed-input case and which front end it targets. */
struct BadInput
{
    const char *name;
    const char *source;
    bool qasm;
};

const BadInput kBadInputs[] = {
    // ScaffLite: structural damage.
    {"scaff_empty", "", false},
    {"scaff_header_only", "module", false},
    {"scaff_unterminated_module", "module m {", false},
    {"scaff_truncated_stmt", "module m { qreg q[2]; h q[0]", false},
    {"scaff_missing_size", "module m { qreg q[]; }", false},
    {"scaff_trailing_garbage",
     "module m { qreg q[1]; h q[0]; } extra tokens", false},
    {"scaff_missing_semicolon",
     "module m { qreg q[2] x q[0]; }", false},
    {"scaff_bad_expr", "module m { qreg q[2]; rz(*) q[0]; }", false},
    {"scaff_unterminated_comment",
     "module m { qreg q[1]; /* comment", false},
    {"scaff_bad_char", "module m { qreg q[1]; x q[0]; $ }", false},
    {"scaff_for_missing_range",
     "module m { qreg q[4]; for i in 0 { h q[i]; } }", false},
    // ScaffLite: semantic damage (caught by lowering).
    {"scaff_unknown_gate",
     "module m { qreg q[1]; frobnicate q[0]; }", false},
    {"scaff_index_out_of_range",
     "module m { qreg q[1]; x q[5]; }", false},
    {"scaff_unknown_register",
     "module m { qreg q[1]; x r[0]; }", false},
    {"scaff_nonconstant_bound",
     "module m { qreg q[4]; for i in 0..n { h q[i]; } }", false},
    {"scaff_empty_module", "module m { }", false},
    // OpenQASM: structural damage.
    {"qasm_empty", "", true},
    {"qasm_header_only", "OPENQASM", true},
    {"qasm_missing_version", "OPENQASM; qreg q[1];", true},
    {"qasm_no_qreg", "OPENQASM 2.0; x q[0];", true},
    {"qasm_truncated_gate",
     "OPENQASM 2.0; qreg q[2]; cx q[0],", true},
    {"qasm_unterminated_include",
     "OPENQASM 2.0; include \"qelib1.inc\nqreg q[1];", true},
    // OpenQASM: semantic damage.
    {"qasm_register_overflow",
     "OPENQASM 2.0; qreg q[999999999]; x q[0];", true},
    {"qasm_second_reg_overflow",
     "OPENQASM 2.0; qreg a[4000]; qreg b[4000]; x a[0];", true},
    {"qasm_unknown_gate",
     "OPENQASM 2.0; qreg q[2]; zz q[0],q[1];", true},
    {"qasm_bad_arity", "OPENQASM 2.0; qreg q[2]; cx q[0];", true},
    {"qasm_index_out_of_range",
     "OPENQASM 2.0; qreg q[2]; x q[7];", true},
    {"qasm_unknown_qreg", "OPENQASM 2.0; qreg q[2]; x r[0];", true},
    {"qasm_redeclared_qreg",
     "OPENQASM 2.0; qreg q[2]; qreg q[3]; x q[0];", true},
    {"qasm_late_qreg",
     "OPENQASM 2.0; qreg q[2]; x q[0]; qreg r[2];", true},
    {"qasm_division_by_zero",
     "OPENQASM 2.0; qreg q[1]; rz(1/0) q[0];", true},
    // Garbage bytes / wrong format entirely.
    {"qasm_garbage_bytes",
     "\xff\xfe\x00garbage\x80\xc0 OPENQASM", true},
    {"scaff_garbage_bytes", "\x01\x02\xffmodule \xfe{", false},
    {"qasm_elf_header", "\x7f" "ELF\x02\x01\x01", true},
};

class MalformedInput : public ::testing::TestWithParam<BadInput>
{
};

TEST_P(MalformedInput, CollectsDiagnosticsWithoutCrashing)
{
    const BadInput &bad = GetParam();
    Diagnostics diags(bad.name);
    if (bad.qasm)
        parseOpenQasm(bad.source, diags);
    else
        compileScaffLite(bad.source, diags);

    // The contract: every case yields at least one *structured* error,
    // the text and JSON renderings are well-formed, and nothing threw.
    EXPECT_TRUE(diags.hasErrors()) << bad.name;
    EXPECT_FALSE(diags.all().empty()) << bad.name;
    for (const Diagnostic &d : diags.all())
        EXPECT_FALSE(d.code.empty()) << bad.name;
    EXPECT_NE(diags.text().find("error"), std::string::npos) << bad.name;
    std::string json = diags.json();
    EXPECT_EQ(json.front(), '{') << bad.name;
    EXPECT_EQ(json.back(), '}') << bad.name;
    // JSON must stay valid even when the input had raw control bytes.
    for (char ch : json)
        EXPECT_GE(static_cast<unsigned char>(ch), 0x20u) << bad.name;
    JsonParseResult parsed = parseJson(json);
    EXPECT_TRUE(parsed.ok) << bad.name << ": " << parsed.error;

    // The legacy first-throw API must convert to FatalError — never an
    // uncaught exception or a crash.
    if (bad.qasm)
        EXPECT_THROW(parseOpenQasm(bad.source), FatalError) << bad.name;
    else
        EXPECT_THROW(compileScaffLite(bad.source), FatalError) << bad.name;
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, MalformedInput, ::testing::ValuesIn(kBadInputs),
    [](const ::testing::TestParamInfo<BadInput> &info) {
        return info.param.name;
    });

TEST(MalformedInputTest, RecoveryReportsMultipleErrorsPerRun)
{
    Diagnostics diags("<multi>");
    parseOpenQasm("OPENQASM 2.0; qreg q[2];\n"
                  "zz q[0],q[1];\n"
                  "x q[9];\n"
                  "cx q[0];\n",
                  diags);
    EXPECT_GE(diags.errorCount(), 3);
}

TEST(MalformedInputTest, ErrorFloodIsCappedNotUnbounded)
{
    // 10k unknown gates: the collector keeps counting but stops
    // storing at maxErrors, so memory stays bounded.
    std::ostringstream src;
    src << "OPENQASM 2.0; qreg q[1];\n";
    for (int i = 0; i < 10000; ++i)
        src << "bogus" << i << " q[0];\n";
    Diagnostics diags("<flood>");
    parseOpenQasm(src.str(), diags);
    EXPECT_TRUE(diags.hasErrors());
    EXPECT_LE(static_cast<int>(diags.all().size()), diags.maxErrors + 16);
}

TEST(MalformedInputTest, RandomByteSoupNeverCrashesEitherFrontEnd)
{
    Rng rng(0xBADF00D);
    for (int iter = 0; iter < 300; ++iter) {
        int len = rng.uniformInt(200);
        std::string soup;
        soup.reserve(static_cast<size_t>(len));
        for (int i = 0; i < len; ++i)
            soup += static_cast<char>(rng.uniformInt(256));
        Diagnostics d1("<soup>"), d2("<soup>");
        parseOpenQasm(soup, d1);     // must not crash or hang
        compileScaffLite(soup, d2);  // must not crash or hang
    }
}

TEST(MalformedInputTest, MutatedValidProgramsNeverCrash)
{
    // Structured mutation: start from a valid program, then truncate,
    // splice garbage, or duplicate chunks — closer to real corruption
    // than pure byte soup.
    const std::string valid =
        "OPENQASM 2.0;\nqreg q[3];\ncreg c[3];\nh q[0];\n"
        "cx q[0],q[1];\ncx q[1],q[2];\nmeasure q[0] -> c[0];\n";
    Rng rng(0xC0FFEE);
    for (int iter = 0; iter < 200; ++iter) {
        std::string mutated = valid;
        switch (rng.uniformInt(3)) {
          case 0: // truncate
            mutated.resize(rng.uniformInt(
                static_cast<int>(valid.size())));
            break;
          case 1: { // splice a garbage byte
            size_t at = static_cast<size_t>(
                rng.uniformInt(static_cast<int>(valid.size())));
            mutated[at] = static_cast<char>(rng.uniformInt(256));
            break;
          }
          default: { // duplicate a chunk
            size_t at = static_cast<size_t>(
                rng.uniformInt(static_cast<int>(valid.size())));
            mutated.insert(at, valid.substr(0, at));
            break;
          }
        }
        Diagnostics diags("<mutated>");
        parseOpenQasm(mutated, diags); // must not crash or hang
    }
}

// ---------------------------------------------------------------------
// Adversarial corpus: corrupt calibration text.
// ---------------------------------------------------------------------

TEST(CorruptCalibrationTest, MalformedStreamsFailWithFatalNotCrash)
{
    const char *cases[] = {
        "",
        "garbage",
        "calibration v9\nqubits 5\n",
        "calibration v1\nqubits -3\n",
        "calibration v1\nqubits 999999999\nedges 1\n",
        "calibration v1\nqubits 2\nedges 99999999999\n",
        "calibration v1\nqubits 2\nedges 1\ndurations 0.1 nope",
        "calibration v1\nqubits 2\nedges 1\ndurations 0.1 0.4 3\n"
        "err1q 0.1", // truncated vector
        "calibration v2\nqubits 2\nedges 1\ndurations 0.1 0.4 3\n",
    };
    for (const char *text : cases) {
        std::istringstream is(text);
        EXPECT_THROW(Calibration::load(is), FatalError) << text;
    }
}

TEST(CorruptCalibrationTest, LoadedGarbageValuesAreSanitizedDownstream)
{
    // A stream that parses but carries poisoned values: validation must
    // repair every one of them in Sanitize mode.
    std::istringstream is(
        "calibration v1\nqubits 2\nedges 1\n"
        "durations 0.1 0.4 3\n"
        "err1q 9e99 2.5\n"
        "errRO -0.5 0.1\n"
        "t2us 0 -5\n"
        "err2q 1e308\n");
    Calibration c = Calibration::load(is);
    Diagnostics diags("calibration");
    int repairs = c.validate(ValidateMode::Sanitize, diags);
    EXPECT_GE(repairs, 6);
    EXPECT_FALSE(diags.hasErrors()); // sanitize repairs, never rejects
    EXPECT_GE(diags.warningCount(), 6);
    for (double v : c.err1q)
        EXPECT_TRUE(v >= 0.0 && v <= 1.0);
    for (double v : c.errRO)
        EXPECT_TRUE(v >= 0.0 && v <= 1.0);
    for (double v : c.t2Us)
        EXPECT_GT(v, 0.0);
}

} // namespace
} // namespace triq
