/**
 * @file
 * triqc — the TriQ command-line compiler driver.
 *
 * Compiles a ScaffLite or OpenQASM program for any of the seven study
 * machines (or the 72-qubit Google72 grid) at any Table-1 optimization
 * level and prints the executable assembly, plus an optional
 * compilation/prediction report.
 *
 * Usage:
 *   triqc [options] <program-file>
 *   triqc --list-devices
 *   triqc --bench BV4 -d IBMQ14 -O cn --report
 *
 * Options:
 *   -d, --device NAME    target machine (default IBMQ5)
 *   -O, --level L        n | 1q | c | cn (default cn)
 *   -m, --mapper M       trivial | greedy | bnb | smt (default bnb)
 *   --day N              calibration day (default 0)
 *   --bench NAME         compile a built-in study benchmark instead of
 *                        a file
 *   --qasm               parse the input file as OpenQASM 2.0
 *   --peephole           enable inverse-pair cancellation
 *   --report             print gate counts, ESP and predicted success
 *   --trials N           trials for the success prediction (default 2000)
 *   --sim-threads N      simulator worker threads for the prediction
 *                        (0..256, default 1; 0 = one per hardware thread;
 *                        --report prints the count that ran, 1 when the
 *                        memory budget forces the serial plan)
 *   -o FILE              write assembly to FILE instead of stdout
 *
 * Internal errors (PanicError — a TriQ bug, exit code 2) dump a crash
 * report to triq-crash-<pid>/ (program text, calibration snapshot,
 * options, seed); `triqc --replay <dir>` re-runs that exact invocation
 * from the bundle, its simulation seed included. See
 * src/core/crash_report.hh.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/env.hh"
#include "common/fault_injector.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/resource.hh"
#include "common/sched.hh"
#include "core/compiler.hh"
#include "core/crash_report.hh"
#include "core/esp.hh"
#include "device/machines.hh"
#include "lang/lower.hh"
#include "lang/qasm_parser.hh"
#include "sim/executor.hh"
#include "sim/verify.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace
{

struct Args
{
    std::string device = "IBMQ5";
    std::string level = "cn";
    std::string mapper = "bnb";
    std::string inputFile;
    std::string benchName;
    std::string outputFile;
    std::string calibrationFile;
    std::string crashDir;  // "" = triq-crash-<pid> in the CWD
    std::string replayDir; // "" = normal invocation
    int day = 0;
    int trials = 2000;
    int simThreads = 1; // 0 = one per hardware thread
    uint64_t seed = 12345; // --replay takes the bundle's
    double budgetMs = 0.0; // 0 = unlimited
    long nodeBudget = 0;   // 0 = engine default
    bool strictCalibration = false;
    bool diagJson = false;
    bool qasm = false;
    bool peephole = false;
    bool report = false;
    bool verify = false;
    bool listDevices = false;
};

void
usage()
{
    std::cerr <<
        "usage: triqc [options] <program.scaff>\n"
        "  -d, --device NAME   target machine (see --list-devices)\n"
        "  -O, --level L       n | 1q | c | cn         (default cn)\n"
        "  -m, --mapper M      trivial|greedy|bnb|smt  (default bnb)\n"
        "  --day N             calibration day         (default 0)\n"
        "  --calibration FILE  load calibration from FILE (triq-calgen\n"
        "                      format) instead of synthesizing a day\n"
        "  --bench NAME        compile a built-in benchmark\n"
        "  --qasm              input is OpenQASM 2.0\n"
        "  --peephole          enable inverse-pair cancellation\n"
        "  --budget-ms MS      wall-clock compile deadline; the pipeline\n"
        "                      degrades gracefully (anytime mapping)\n"
        "                      instead of overrunning\n"
        "  --node-budget N     mapper search-node budget\n"
        "  --strict-calibration  reject invalid calibration values\n"
        "                      instead of clamping them\n"
        "  --diag-json         print diagnostics + compile report as JSON\n"
        "                      on stdout (suppresses assembly; use -o)\n"
        "  --report            print stats, ESP, predicted success\n"
        "  --verify            check compiled-vs-program equivalence\n"
        "  --trials N          prediction trials       (default 2000)\n"
        "  --sim-threads N     simulator worker threads for --report,\n"
        "                      0..256 (default 1; 0 = one per hardware\n"
        "                      thread; results are identical for any\n"
        "                      value)\n"
        "  --crash-dir DIR     where an internal-error crash report is\n"
        "                      written (default triq-crash-<pid>/)\n"
        "  --replay DIR        re-run the invocation captured in a\n"
        "                      crash-report directory\n"
        "  -o FILE             write assembly to FILE\n"
        "  --list-devices      list the machines -d accepts\n";
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    auto need_value = [&](int &i, const char *flag) -> const char * {
        if (i + 1 >= argc)
            fatal("triqc: ", flag, " needs a value");
        return argv[++i];
    };
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (!std::strcmp(arg, "-d") || !std::strcmp(arg, "--device"))
            a.device = need_value(i, arg);
        else if (!std::strcmp(arg, "-O") || !std::strcmp(arg, "--level"))
            a.level = need_value(i, arg);
        else if (!std::strcmp(arg, "-m") || !std::strcmp(arg, "--mapper"))
            a.mapper = need_value(i, arg);
        else if (!std::strcmp(arg, "--day"))
            a.day = flagValue(arg, need_value(i, arg), 0);
        else if (!std::strcmp(arg, "--calibration"))
            a.calibrationFile = need_value(i, arg);
        else if (!std::strcmp(arg, "--bench"))
            a.benchName = need_value(i, arg);
        else if (!std::strcmp(arg, "--budget-ms"))
            a.budgetMs = flagValue(arg, need_value(i, arg), 0.0);
        else if (!std::strcmp(arg, "--node-budget"))
            a.nodeBudget = flagValue(arg, need_value(i, arg), 1L);
        else if (!std::strcmp(arg, "--strict-calibration"))
            a.strictCalibration = true;
        else if (!std::strcmp(arg, "--diag-json"))
            a.diagJson = true;
        else if (!std::strcmp(arg, "--qasm"))
            a.qasm = true;
        else if (!std::strcmp(arg, "--peephole"))
            a.peephole = true;
        else if (!std::strcmp(arg, "--report"))
            a.report = true;
        else if (!std::strcmp(arg, "--verify"))
            a.verify = true;
        else if (!std::strcmp(arg, "--trials"))
            a.trials = flagValue(arg, need_value(i, arg), 1);
        else if (!std::strcmp(arg, "--sim-threads"))
            a.simThreads =
                flagValue(arg, need_value(i, arg), 0, kMaxThreads);
        else if (!std::strcmp(arg, "--crash-dir"))
            a.crashDir = need_value(i, arg);
        else if (!std::strcmp(arg, "--replay"))
            a.replayDir = need_value(i, arg);
        else if (!std::strcmp(arg, "-o"))
            a.outputFile = need_value(i, arg);
        else if (!std::strcmp(arg, "--list-devices"))
            a.listDevices = true;
        else if (!std::strcmp(arg, "-h") || !std::strcmp(arg, "--help")) {
            usage();
            std::exit(0);
        } else if (arg[0] == '-') {
            fatal("triqc: unknown option '", arg, "'");
        } else {
            a.inputFile = arg;
        }
    }
    return a;
}

/**
 * Crash capture: run() snapshots every input into this bundle as it
 * materializes (program text post-injection, calibration snapshot,
 * compile options), so main()'s internal-error handlers can dump a
 * replayable artifact no matter where the pipeline panicked.
 */
CrashBundle g_crash;
bool g_crashArmed = false;
std::string g_crashDir; // --crash-dir override ("" = default)

/** Dump the captured inputs next to the panic message (best effort). */
void
reportCrash(const char *what)
{
    if (!g_crashArmed)
        return;
    g_crash.error = what ? what : "";
    // resolveCrashDir keeps a recycled PID (or a second crash in one
    // working directory) from overwriting an earlier bundle.
    std::string dir =
        resolveCrashDir(g_crashDir.empty() ? defaultCrashDir()
                                           : g_crashDir);
    try {
        g_crash.write(dir);
        std::cerr << "triqc: crash report written to '" << dir
                  << "/'; reproduce with: triqc --replay " << dir << "\n";
    } catch (...) {
        std::cerr << "triqc: failed to write crash report to '" << dir
                  << "'\n";
    }
}

/** The --diag-json line; `report` is null when no compile ran. */
void
printDiagJson(const Diagnostics &diags, const CompileReport *report)
{
    JsonWriter w;
    w.beginObject().key("diagnostics");
    diags.writeJson(w);
    if (report) {
        w.key("report");
        report->writeJson(w);
    }
    w.endObject();
    std::cout << w.str() << "\n";
}

/** The real driver; exceptions escape to main()'s exit-code mapping. */
int
run(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    if (args.listDevices) {
        for (const Device &d : namedDevices())
            std::cout << d.name() << ": " << d.numQubits()
                      << " qubits, " << d.gateSet().describe() << "\n";
        return 0;
    }
    // Replay mode: a crash bundle is just a saved invocation, so
    // replaying is rewriting the argument set to point at the bundle's
    // files and falling through to the normal pipeline. Replays should
    // run with TRIQ_FAULT unset — the bundle already holds the inputs
    // *after* any original fault injection.
    if (!args.replayDir.empty()) {
        CrashBundle b = CrashBundle::load(args.replayDir);
        // Reproduce the crashing process's TRIQ_* knobs (the memory
        // budget); TRIQ_FAULT* is skipped inside applyTriqEnv.
        int applied = applyTriqEnv(b.envKnobs);
        if (applied > 0)
            std::cerr << "triqc: replay applied " << applied
                      << " TRIQ_* knob(s) from the bundle\n";
        args.benchName = b.benchName;
        args.qasm = b.qasm;
        args.device = b.device;
        args.day = b.day;
        args.level = b.level;
        args.mapper = b.mapper;
        args.peephole = b.peephole;
        args.strictCalibration = b.strictCalibration;
        args.budgetMs = b.budgetMs;
        args.nodeBudget = b.nodeBudget;
        args.trials = b.trials;
        args.simThreads = b.simThreads;
        args.seed = b.seed;
        args.inputFile =
            b.hasProgram ? args.replayDir + "/program.txt" : "";
        args.calibrationFile =
            b.hasCalibration ? args.replayDir + "/calibration.txt" : "";
        std::cerr << "triqc: replaying crash report '" << args.replayDir
                  << "'\n";
    }
    if (args.inputFile.empty() && args.benchName.empty()) {
        usage();
        return 1;
    }

    // From here on an internal error produces a crash bundle.
    g_crashDir = args.crashDir;
    g_crashArmed = true;
    g_crash.benchName = args.benchName;
    g_crash.qasm = args.qasm;
    g_crash.device = args.device;
    g_crash.day = args.day;
    g_crash.level = args.level;
    g_crash.mapper = args.mapper;
    g_crash.peephole = args.peephole;
    g_crash.strictCalibration = args.strictCalibration;
    g_crash.budgetMs = args.budgetMs;
    g_crash.nodeBudget = args.nodeBudget;
    g_crash.seed = args.seed;
    g_crash.trials = args.trials;
    g_crash.simThreads = args.simThreads;
    g_crash.envKnobs = captureTriqEnv();

    // Optional fault injection (TRIQ_FAULT env): corrupts the inputs
    // *before* they hit the front end / validator, to exercise exactly
    // the paths a hostile or broken feed would.
    FaultInjector inj = FaultInjector::fromEnv();

    Diagnostics diags(args.benchName.empty() ? args.inputFile
                                             : "<bench>");
    Circuit program = [&] {
        if (!args.benchName.empty())
            return makeBenchmark(args.benchName);
        std::ifstream in(args.inputFile);
        if (!in)
            fatal("triqc: cannot open '", args.inputFile, "'");
        std::ostringstream ss;
        ss << in.rdbuf();
        std::string source = ss.str();
        if (inj.armsText())
            source = inj.corruptText(std::move(source));
        g_crash.programText = source;
        g_crash.hasProgram = true;
        return args.qasm ? parseOpenQasm(source, diags)
                         : compileScaffLite(source, diags);
    }();
    if (!diags.all().empty())
        std::cerr << diags.text();
    if (diags.hasErrors()) {
        if (args.diagJson)
            printDiagJson(diags, nullptr);
        std::cerr << "triqc: " << diags.errorCount()
                  << " error(s) in '" << args.inputFile << "'\n";
        return 1;
    }

    const Device &dev = deviceByName(args.device);

    Calibration calib = [&] {
        if (args.calibrationFile.empty())
            return dev.calibrate(args.day);
        std::ifstream in(args.calibrationFile);
        if (!in)
            fatal("triqc: cannot open calibration '",
                  args.calibrationFile, "'");
        return Calibration::load(in);
    }();
    if (inj.armsCalibration()) {
        int n = injectCalibrationFaults(calib, inj);
        warn("triqc: injected ", n, " calibration fault(s)");
    }
    g_crash.calibration = calib;
    g_crash.hasCalibration = true;

    CompileOptions opts;
    opts.level = optLevelFromToken(args.level);
    opts.mapping.kind = mapperKindFromString(args.mapper);
    opts.peephole = args.peephole;
    opts.strictCalibration = args.strictCalibration;
    if (args.budgetMs > 0.0)
        opts.budget = CompileBudget::withDeadlineMs(args.budgetMs);
    if (args.nodeBudget > 0)
        opts.mapping.nodeBudget = args.nodeBudget;

    // Synthetic internal fault (TRIQ_FAULT=panic): raised after every
    // input is captured, so the crash-report dump-and-replay loop can
    // be driven deterministically by tests.
    if (inj.armsPanic())
        panic("triqc: injected internal fault (TRIQ_FAULT=panic)");

    CompileResult res = compileForDevice(program, dev, calib, opts);

    if (!args.outputFile.empty()) {
        std::ofstream out(args.outputFile);
        if (!out)
            fatal("triqc: cannot write '", args.outputFile, "'");
        out << res.assembly;
    } else if (!args.diagJson) {
        std::cout << res.assembly;
    }
    if (args.diagJson)
        printDiagJson(diags, &res.report);

    if (args.verify) {
        VerificationResult v = verifyCompilation(program, res);
        std::cerr << "verification: "
                  << (v.equivalent ? "EQUIVALENT" : "MISMATCH")
                  << " (max deviation " << v.maxDeviation << ")\n";
        if (!v.equivalent)
            return 3;
    }

    if (args.report) {
        ExecOptions exec_opts;
        exec_opts.threads = args.simThreads;
        ExecutionResult run = executeNoisy(res.hwCircuit, dev, calib,
                                           args.trials, args.seed,
                                           exec_opts);
        std::cerr << "== triqc report ==\n"
                  << "program:        " << program.name() << " ("
                  << program.numQubits() << " qubits)\n"
                  << "device:         " << dev.name() << " day "
                  << args.day << "\n"
                  << "level:          " << optLevelName(opts.level)
                  << "\n"
                  << "2Q gates:       " << res.stats.twoQ << "\n"
                  << "1Q pulses:      " << res.stats.pulses1q << "\n"
                  << "virtual Z:      " << res.stats.virtualZ << "\n"
                  << "swaps:          " << res.swapCount << "\n"
                  << "compile time:   " << res.compileMs << " ms\n"
                  << "ESP:            " << run.esp << "\n"
                  << "pred. success:  " << run.successRate << " ("
                  << run.trials << " trials)\n"
                  << "sim workers:    " << run.sched.threads << "\n"
                  << "ideal prob.:    " << run.idealOutcomeProb << "\n"
                  << "calib. repairs: " << run.calibrationRepairs << "\n"
                  << res.report.str();
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Exit-code contract (DESIGN.md, "Error-handling contract"):
    //   0 success, 1 user error, 2 internal TriQ bug, 3 verification
    //   mismatch. Nothing escapes as an uncaught exception.
    try {
        return run(argc, argv);
    } catch (const FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    } catch (const ResourceError &e) {
        // The simulation could not get its memory (budget refusal or a
        // failed allocation): a resource outcome, not a TriQ bug — one
        // structured diagnostic line and exit 1, never an abort or a
        // crash bundle.
        JsonWriter w;
        w.beginObject().key("code").value("sim.oom");
        w.key("attempted_bytes").value(e.attemptedBytes);
        w.key("budget_bytes").value(e.budgetBytes);
        w.endObject();
        std::cerr << "triqc: error: " << e.what() << "\n" << w.str() << "\n";
        return 1;
    } catch (const PanicError &e) {
        std::cerr << "panic: " << e.what() << "\n";
        // Dump the captured inputs so the bug reproduces from one
        // artifact (triqc --replay).
        reportCrash(e.what());
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "triqc: internal error: " << e.what() << "\n";
        reportCrash(e.what());
        return 2;
    } catch (...) {
        std::cerr << "triqc: internal error: unknown exception\n";
        reportCrash("unknown exception");
        return 2;
    }
}
