/**
 * @file
 * Crash-report bundles: round-trip fidelity of CrashBundle write/load,
 * and the end-to-end contract — a triqc invocation that hits an
 * internal error (deterministically injected via TRIQ_FAULT=panic)
 * dumps a bundle, and `triqc --replay <dir>` reproduces the exact
 * invocation from that one artifact.
 *
 * The end-to-end cases drive the real triqc binary (path baked in as
 * TRIQ_TRIQC_PATH) through std::system, because the contract under
 * test is the process-level one: exit codes, files on disk, and
 * byte-identical assembly between a replay and a direct run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "core/compiler.hh"
#include "core/crash_report.hh"
#include "device/machines.hh"
#include "service/server.hh"
#include "sim/executor.hh"
#include "workloads/benchmarks.hh"

using namespace triq;
namespace fs = std::filesystem;

namespace
{

/** Fresh scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "triq_crash_XXXXXX").string();
        char *made = mkdtemp(tmpl.data());
        if (!made)
            throw std::runtime_error("mkdtemp failed");
        path = made;
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
calText(const Calibration &c)
{
    std::ostringstream os;
    c.save(os);
    return os.str();
}

#ifdef TRIQ_TRIQC_PATH
/** Run a shell command; returns the process exit code. */
int
runCmd(const std::string &cmd)
{
    int status = std::system(cmd.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}
#endif

} // namespace

TEST(CrashReport, BundleRoundTripsEveryField)
{
    Device dev = allStudyDevices().front();

    CrashBundle b;
    b.programText = "qreg q[3];\nX q[0];\nCNOT q[0], q[1];\n";
    b.hasProgram = true;
    b.qasm = true;
    b.device = dev.name();
    b.day = 7;
    b.calibration = dev.calibrate(7);
    b.hasCalibration = true;
    b.level = "c";
    b.mapper = "greedy";
    b.peephole = true;
    b.strictCalibration = true;
    b.budgetMs = 250.5;
    b.nodeBudget = 12345;
    b.seed = 0xDEADBEEFull;
    b.trials = 777;
    b.simThreads = 3;
    b.error = "test panic message";

    TempDir tmp;
    std::string dir = (tmp.path / "bundle").string();
    b.write(dir);

    for (const char *f :
         {"program.txt", "calibration.txt", "options.txt", "error.txt"})
        EXPECT_TRUE(fs::exists(fs::path(dir) / f)) << f;
    EXPECT_NE(slurp(fs::path(dir) / "error.txt").find("test panic"),
              std::string::npos);

    CrashBundle r = CrashBundle::load(dir);
    EXPECT_EQ(r.programText, b.programText);
    EXPECT_TRUE(r.hasProgram);
    EXPECT_EQ(r.qasm, b.qasm);
    EXPECT_EQ(r.device, b.device);
    EXPECT_EQ(r.day, b.day);
    EXPECT_TRUE(r.hasCalibration);
    EXPECT_EQ(calText(r.calibration), calText(b.calibration));
    EXPECT_EQ(r.level, b.level);
    EXPECT_EQ(r.mapper, b.mapper);
    EXPECT_EQ(r.peephole, b.peephole);
    EXPECT_EQ(r.strictCalibration, b.strictCalibration);
    EXPECT_DOUBLE_EQ(r.budgetMs, b.budgetMs);
    EXPECT_EQ(r.nodeBudget, b.nodeBudget);
    EXPECT_EQ(r.seed, b.seed);
    EXPECT_EQ(r.trials, b.trials);
    EXPECT_EQ(r.simThreads, b.simThreads);
}

TEST(CrashReport, BenchOnlyBundleOmitsProgramFile)
{
    CrashBundle b;
    b.benchName = "BV4";
    b.error = "boom";

    TempDir tmp;
    std::string dir = (tmp.path / "bundle").string();
    b.write(dir);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "program.txt"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "calibration.txt"));

    CrashBundle r = CrashBundle::load(dir);
    EXPECT_EQ(r.benchName, "BV4");
    EXPECT_FALSE(r.hasProgram);
    EXPECT_FALSE(r.hasCalibration);
}

TEST(CrashReport, RequestIdAndEnvRoundTrip)
{
    // The server-mode fields: a daemon bundle is tagged with the
    // request id and the TRIQ_* environment at crash time — everything
    // `triqc --replay` needs to reproduce a server-side run outside the
    // server.
    CrashBundle b;
    b.benchName = "BV4";
    b.requestId = "c3-r17";
    b.envKnobs = {"TRIQ_MEM_BUDGET=256M", "TRIQ_SIM_THREADS=4"};
    b.error = "boom";

    TempDir tmp;
    std::string dir = (tmp.path / "bundle").string();
    b.write(dir);

    std::string env = slurp(fs::path(dir) / "environment.txt");
    EXPECT_NE(env.find("TRIQ_MEM_BUDGET=256M"), std::string::npos) << env;
    EXPECT_NE(env.find("TRIQ_SIM_THREADS=4"), std::string::npos);

    CrashBundle r = CrashBundle::load(dir);
    EXPECT_EQ(r.requestId, "c3-r17");
    EXPECT_EQ(r.envKnobs, b.envKnobs);
}

TEST(CrashReport, RetiredSchedKeysStillLoad)
{
    // Bundles from builds with the adaptive scheduler carry three
    // sched_* option keys, and bundles from builds with a fusion switch
    // carry its key; they must still load, minus those keys (such a
    // bundle replays fused).
    TempDir tmp;
    fs::path dir = tmp.path / "bundle";
    fs::create_directories(dir);
    std::ofstream(dir / "options.txt")
        << "bench=BV4\ndevice=IBMQ14\nsim_threads=0\n"
           "request_id=c3-r17\nsched_mode=threaded\nsched_threads=4\n"
           "sched_items_per_task=8\nsim_fusion=0\ntrials=64\n";

    CrashBundle r = CrashBundle::load(dir.string());
    EXPECT_EQ(r.benchName, "BV4");
    EXPECT_EQ(r.device, "IBMQ14");
    EXPECT_EQ(r.simThreads, 0);
    EXPECT_EQ(r.requestId, "c3-r17");
    EXPECT_EQ(r.trials, 64);
}

TEST(CrashReport, LoadRejectsMalformedNumbers)
{
    // Each number must parse whole and lie in its field's range; the
    // error names the key and the line, never replays a misread value.
    const char *bad[] = {
        "day=3x",          "day=-1",         "trials=abc",
        "trials=0",        "sim_threads=257", "sim_threads=1.5",
        "seed=-7",         "seed=12x",        "node_budget=1e6",
        "budget_ms=fast",  "peephole=yes",    "qasm=2",
    };
    TempDir tmp;
    fs::path dir = tmp.path / "bundle";
    fs::create_directories(dir);
    for (const char *line : bad) {
        SCOPED_TRACE(line);
        std::ofstream(dir / "options.txt")
            << "bench=BV4\ndevice=IBMQ5\n" << line << "\n";
        const std::string key(line, std::strchr(line, '=') - line);
        try {
            CrashBundle::load(dir.string());
            ADD_FAILURE() << "loaded";
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            EXPECT_NE(msg.find("line 3: " + key), std::string::npos) << msg;
        }
    }
    std::ofstream(dir / "options.txt")
        << "bench=BV4\nday=0\ntrials=1\nsim_threads=256\nseed=0\n"
           "budget_ms=0.5\nnode_budget=0\n";
    CrashBundle r = CrashBundle::load(dir.string());
    EXPECT_EQ(r.simThreads, 256);
    EXPECT_EQ(r.trials, 1);
    EXPECT_DOUBLE_EQ(r.budgetMs, 0.5);
}

TEST(CrashReport, CliBundlesOmitServerOnlyFields)
{
    // A plain CLI bundle has no request id or env capture; neither
    // file section may appear, and loading one in a newer build leaves
    // the fields at their defaults.
    CrashBundle b;
    b.benchName = "BV4";
    b.error = "boom";

    TempDir tmp;
    std::string dir = (tmp.path / "bundle").string();
    b.write(dir);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "environment.txt"));
    EXPECT_EQ(slurp(fs::path(dir) / "options.txt").find("request_id"),
              std::string::npos);

    CrashBundle r = CrashBundle::load(dir);
    EXPECT_TRUE(r.requestId.empty());
    EXPECT_TRUE(r.envKnobs.empty());
}

TEST(CrashReport, CaptureTriqEnvSeesOnlyTriqKnobs)
{
    ASSERT_EQ(setenv("TRIQ_TEST_CAPTURE_KNOB", "abc", 1), 0);
    ASSERT_EQ(setenv("NOT_TRIQ_TEST_KNOB", "zzz", 1), 0);
    std::vector<std::string> knobs = captureTriqEnv();
    unsetenv("TRIQ_TEST_CAPTURE_KNOB");
    unsetenv("NOT_TRIQ_TEST_KNOB");

    bool saw_triq = false;
    for (const std::string &kv : knobs) {
        EXPECT_EQ(kv.rfind("TRIQ_", 0), 0u) << kv;
        if (kv == "TRIQ_TEST_CAPTURE_KNOB=abc")
            saw_triq = true;
    }
    EXPECT_TRUE(saw_triq);
    EXPECT_TRUE(std::is_sorted(knobs.begin(), knobs.end()));
}

TEST(CrashReport, ApplyTriqEnvSetsKnobsButNeverRearmsFaults)
{
    unsetenv("TRIQ_FAULT");
    unsetenv("TRIQ_FAULT_SEED");
    unsetenv("TRIQ_TEST_APPLY_KNOB");

    // The bundle's inputs are post-injection, so re-applying the fault
    // knobs would inject twice on replay; they are skipped by contract.
    int applied = applyTriqEnv({"TRIQ_TEST_APPLY_KNOB=42",
                                "TRIQ_FAULT=panic", "TRIQ_FAULT_SEED=3",
                                "malformed-no-equals", "=no-name"});
    EXPECT_EQ(applied, 1);
    const char *v = getenv("TRIQ_TEST_APPLY_KNOB");
    ASSERT_TRUE(v);
    EXPECT_STREQ(v, "42");
    EXPECT_EQ(getenv("TRIQ_FAULT"), nullptr);
    EXPECT_EQ(getenv("TRIQ_FAULT_SEED"), nullptr);
    unsetenv("TRIQ_TEST_APPLY_KNOB");
}

TEST(CrashReport, LoadRejectsMissingOrEmptyBundles)
{
    TempDir tmp;
    EXPECT_THROW(CrashBundle::load((tmp.path / "nope").string()),
                 FatalError);

    // A directory whose options.txt names no program source at all is
    // not replayable and must be rejected, not half-loaded.
    fs::path dir = tmp.path / "empty";
    fs::create_directories(dir);
    std::ofstream(dir / "options.txt") << "device=IBMQ5\n";
    EXPECT_THROW(CrashBundle::load(dir.string()), FatalError);
}

TEST(CrashReport, DefaultDirNamesThisProcess)
{
    std::string dir = defaultCrashDir();
    EXPECT_EQ(dir.rfind("triq-crash-", 0), 0u) << dir;
    EXPECT_GT(dir.size(), std::string("triq-crash-").size());
}

TEST(CrashReport, ResolveCrashDirProbesMonotonicSuffixes)
{
    TempDir tmp;
    std::string base = (tmp.path / "triq-crash-42").string();

    // Free name: used verbatim.
    EXPECT_EQ(resolveCrashDir(base), base);

    // Occupied (a recycled PID's bundle): first free suffix, never the
    // base itself — earlier evidence is sacred.
    fs::create_directories(base);
    EXPECT_EQ(resolveCrashDir(base), base + ".1");
    fs::create_directories(base + ".1");
    fs::create_directories(base + ".2");
    EXPECT_EQ(resolveCrashDir(base), base + ".3");

    // A plain *file* squatting the name also counts as a collision.
    std::string file_base = (tmp.path / "squatted").string();
    std::ofstream(file_base) << "not a directory";
    EXPECT_EQ(resolveCrashDir(file_base), file_base + ".1");
}

#ifdef TRIQ_TRIQC_PATH

TEST(CrashReport, PanicDumpsBundleAndReplayReproducesAssembly)
{
    TempDir tmp;
    std::string bundle = (tmp.path / "bundle").string();
    std::string scaff =
        std::string(TRIQ_SOURCE_DIR) + "/examples/programs/qft.scaff";
    std::string common = " -d IBMQ14 -O cn -m greedy --day 3 --peephole ";

    // 1. Injected internal fault: exit code 2 (TriQ bug), bundle on disk.
    int rc = runCmd("TRIQ_FAULT=panic " TRIQ_TRIQC_PATH + common + scaff +
                    " --crash-dir " + bundle + " -o /dev/null 2>/dev/null");
    EXPECT_EQ(rc, 2);
    ASSERT_TRUE(fs::is_directory(bundle));
    for (const char *f :
         {"program.txt", "calibration.txt", "options.txt", "error.txt"})
        EXPECT_TRUE(fs::exists(fs::path(bundle) / f)) << f;
    EXPECT_NE(slurp(fs::path(bundle) / "error.txt").find("injected"),
              std::string::npos);
    EXPECT_EQ(slurp(fs::path(bundle) / "program.txt"), slurp(scaff));

    // 2. Replay from the bundle alone (no flags, no TRIQ_FAULT):
    //    compiles cleanly and emits assembly.
    std::string replay_out = (tmp.path / "replay.s").string();
    rc = runCmd(std::string(TRIQ_TRIQC_PATH) + " --replay " + bundle +
                " -o " + replay_out + " 2>/dev/null");
    EXPECT_EQ(rc, 0);

    // 3. The replay must be byte-identical to a direct run with the
    //    original flags — the bundle captured the whole invocation.
    std::string direct_out = (tmp.path / "direct.s").string();
    rc = runCmd(std::string(TRIQ_TRIQC_PATH) + common + scaff + " -o " +
                direct_out + " 2>/dev/null");
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(slurp(replay_out), slurp(direct_out));
    EXPECT_FALSE(slurp(replay_out).empty());
}

TEST(CrashReport, CleanRunLeavesNoBundle)
{
    TempDir tmp;
    std::string bundle = (tmp.path / "bundle").string();
    int rc = runCmd(std::string(TRIQ_TRIQC_PATH) +
                    " --bench BV4 -d IBMQ5 --crash-dir " + bundle +
                    " -o /dev/null 2>/dev/null");
    EXPECT_EQ(rc, 0);
    EXPECT_FALSE(fs::exists(bundle));
}

TEST(CrashReport, SecondCrashDoesNotOverwriteFirstBundle)
{
    TempDir tmp;
    std::string bundle = (tmp.path / "bundle").string();
    std::string crash_cmd = "TRIQ_FAULT=panic " TRIQ_TRIQC_PATH
                            " --bench BV4 -d IBMQ5 --crash-dir " +
                            bundle + " -o /dev/null 2>/dev/null";

    ASSERT_EQ(runCmd(crash_cmd), 2);
    ASSERT_TRUE(fs::is_directory(bundle));
    std::string first_error = slurp(fs::path(bundle) / "error.txt");

    // Same directory requested again (a recycled PID / rerun in the
    // same cwd): the new bundle lands beside the old one, suffixed.
    ASSERT_EQ(runCmd(crash_cmd), 2);
    EXPECT_TRUE(fs::is_directory(bundle + ".1"));
    EXPECT_TRUE(fs::exists(fs::path(bundle + ".1") / "error.txt"));
    EXPECT_EQ(slurp(fs::path(bundle) / "error.txt"), first_error);
}

TEST(CrashReport, ReplayOfBenchBundleMatchesDirectRun)
{
    TempDir tmp;
    std::string bundle = (tmp.path / "bundle").string();
    int rc = runCmd("TRIQ_FAULT=panic " TRIQ_TRIQC_PATH
                    " --bench Toffoli -d UMDTI -O 1q --crash-dir " +
                    bundle + " -o /dev/null 2>/dev/null");
    EXPECT_EQ(rc, 2);
    ASSERT_TRUE(fs::is_directory(bundle));
    EXPECT_FALSE(fs::exists(fs::path(bundle) / "program.txt"));

    std::string replay_out = (tmp.path / "replay.s").string();
    rc = runCmd(std::string(TRIQ_TRIQC_PATH) + " --replay " + bundle +
                " -o " + replay_out + " 2>/dev/null");
    EXPECT_EQ(rc, 0);

    std::string direct_out = (tmp.path / "direct.s").string();
    rc = runCmd(std::string(TRIQ_TRIQC_PATH) +
                " --bench Toffoli -d UMDTI -O 1q -o " + direct_out +
                " 2>/dev/null");
    EXPECT_EQ(rc, 0);
    EXPECT_EQ(slurp(replay_out), slurp(direct_out));
    EXPECT_FALSE(slurp(replay_out).empty());
}

TEST(CrashReport, ReplaySimulatesAtTheBundleSeed)
{
    // --report's simulation on replay runs at the bundle's seed, so the
    // predicted success equals an in-process executeNoisy at that seed.
    const Device dev = makeIbmQ5();
    const Calibration calib = dev.calibrate(2);
    CompileResult res = compileForDevice(makeBenchmark("Peres"), dev, calib,
                                         CompileOptions{});
    TempDir tmp;
    for (uint64_t seed : {7, 8}) {
        SCOPED_TRACE(seed);
        CrashBundle b;
        b.benchName = "Peres";
        b.device = dev.name();
        b.day = 2;
        b.trials = 300;
        b.seed = seed;
        const std::string bundle =
            (tmp.path / ("bundle" + std::to_string(seed))).string();
        b.write(bundle);

        const std::string err = (tmp.path / "replay.err").string();
        ASSERT_EQ(runCmd(std::string(TRIQ_TRIQC_PATH) + " --replay " +
                         bundle + " --report -o /dev/null 2> " + err),
                  0);
        std::ostringstream expected;
        expected << "pred. success:  "
                 << executeNoisy(res.hwCircuit, dev, calib, 300, seed)
                        .successRate
                 << " (300 trials)";
        EXPECT_NE(slurp(err).find(expected.str()), std::string::npos)
            << "expected '" << expected.str() << "' in:\n"
            << slurp(err);
    }
}

TEST(CrashReport, ServerModeBundleReplaysThroughTriqc)
{
    // The full server-mode loop: a panicking daemon request dumps a
    // bundle tagged with its request id, and that bundle alone —
    // handed to the ordinary CLI on another machine, as it were —
    // reproduces the compile cleanly, on every machine triqd serves.
    TempDir tmp;
    ServerConfig cfg;
    cfg.crashDir = (tmp.path / "server-crash").string();
    Server server(std::move(cfg));

    const std::pair<const char *, const char *> requests[] = {
        {"BV4", "IBMQ5"},
        {"Sup3x4d8", "Google72"},
    };
    for (const auto &[bench, device] : requests) {
        std::string reply = server.processLine(
            "t", std::string("{\"id\":\"replay-me\",\"op\":\"compile\","
                             "\"bench\":\"") +
                     bench + "\",\"device\":\"" + device +
                     "\",\"fault\":\"panic\"}");
        JsonParseResult r = parseJson(reply);
        ASSERT_TRUE(r.ok) << reply;
        const JsonValue *err = r.value.find("error");
        ASSERT_TRUE(err) << reply;
        std::string bundle = err->getString("crash_dir");
        ASSERT_TRUE(fs::is_directory(bundle)) << reply;
        EXPECT_NE(slurp(fs::path(bundle) / "options.txt")
                      .find("request_id=replay-me"),
                  std::string::npos);

        std::string replay_out =
            (tmp.path / (std::string(device) + ".s")).string();
        int rc = runCmd(std::string(TRIQ_TRIQC_PATH) + " --replay " +
                        bundle + " -o " + replay_out + " 2>/dev/null");
        EXPECT_EQ(rc, 0) << device;
        EXPECT_FALSE(slurp(replay_out).empty()) << device;
    }
}

#endif // TRIQ_TRIQC_PATH
