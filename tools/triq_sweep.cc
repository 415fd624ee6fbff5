/**
 * @file
 * triq-sweep: evaluate a (program x device x day x level) grid through
 * the parallel sweep engine and emit a JSON results matrix.
 *
 * Usage:
 *   triq-sweep --manifest sweep.txt [-o out.json] [--threads N]
 *              [--drift T] [--no-cache] [--journal cells.jsonl]
 *              [--resume]
 *
 * --journal appends every resolved cell (fsync'd) to a crash-safe
 * JSONL file; --resume restores the finished cells of a killed run
 * from it and completes the grid without recomputing them. Journaled
 * runs emit the matrix in deterministic mode (no wall-clock fields),
 * so kill + resume reproduces the uninterrupted run's output byte for
 * byte.
 *
 * Manifest format — one directive per line, '#' comments; program,
 * device, days and level accept multiple values per line:
 *   program BV4 Toffoli      # built-in benchmarks (triqc --bench names)
 *   program all              # every study benchmark
 *   program file:ex.scaff    # ScaffLite (or .qasm: OpenQASM) source
 *   device IBMQ14 UMDTI      # study machine names, or "all"
 *   days 0..6                # inclusive range, or "days 0 2 5"
 *   level c cn               # n | 1q | c | cn | all
 *   drift 0.05               # drift threshold in [0, 1] (CN reuse);
 *                            # optional, absent = no drift reuse
 *   journal cells.jsonl      # crash-safe journal path, optional
 *   threads 4                # worker threads (at most 256); 0 = one
 *                            # per hardware thread (the default),
 *                            # optional
 *   budget_ms 200            # per-compile wall-clock budget, optional
 *   cache 0                  # disable the compile cache, optional
 *   strict_calibration 1     # reject (don't sanitize) bad calibration;
 *                            # failing cells become "error" entries and
 *                            # the tool exits 1 with the partial matrix
 *
 * drift, threads, budget_ms, cache and strict_calibration take exactly
 * one number; a missing, malformed or out-of-range value, or a second
 * token, is an error naming the file, line and directive (exit 1).
 * Flags override the manifest.
 */

#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>

#include "common/diagnostics.hh"
#include "common/env.hh"
#include "common/logging.hh"
#include "common/sched.hh"
#include "device/machines.hh"
#include "lang/lower.hh"
#include "lang/qasm_parser.hh"
#include "service/sweep.hh"
#include "service/sweep_matrix.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

Circuit
loadProgramFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("triq-sweep: cannot open '", path, "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    Diagnostics diags(path);
    bool qasm = path.size() > 5 &&
                path.compare(path.size() - 5, 5, ".qasm") == 0;
    Circuit c = qasm ? parseOpenQasm(ss.str(), diags)
                     : compileScaffLite(ss.str(), diags);
    if (diags.hasErrors()) {
        std::cerr << diags.text();
        fatal("triq-sweep: ", diags.errorCount(), " error(s) in '", path,
              "'");
    }
    return c;
}

/** Parse "0..6" or a single integer into `out`. */
void
parseDays(std::istringstream &rest, std::vector<int> &out)
{
    auto day = [](const std::string &s) {
        return flagValue("triq-sweep: days", s.c_str(), 0);
    };
    std::string tok;
    while (rest >> tok) {
        auto dots = tok.find("..");
        if (dots != std::string::npos) {
            int lo = day(tok.substr(0, dots));
            int hi = day(tok.substr(dots + 2));
            if (hi < lo)
                fatal("triq-sweep: bad day range '", tok, "'");
            for (int d = lo; d <= hi; ++d)
                out.push_back(d);
        } else {
            out.push_back(day(tok));
        }
    }
}

SweepConfig
loadManifest(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("triq-sweep: cannot open manifest '", path, "'");
    SweepConfig cfg;
    double budget_ms = 0.0;
    std::string line;
    int lineno = 0;
    constexpr double kAny = std::numeric_limits<double>::max();
    while (std::getline(in, line)) {
        ++lineno;
        auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream ls(line);
        std::string key;
        if (!(ls >> key))
            continue;
        // The directive's one numeric value: the whole of its single
        // token, within [lo, hi].
        auto number = [&](auto lo, auto hi) {
            const std::string where = "triq-sweep: " + path + ":" +
                                      std::to_string(lineno) + ": " + key;
            std::string val, extra;
            if (!(ls >> val))
                fatal(where, ": missing value");
            if (ls >> extra)
                fatal(where, ": unexpected '", extra, "' after the value");
            return flagValue(where.c_str(), val.c_str(), lo, hi);
        };
        if (key == "program") {
            std::string val;
            while (ls >> val) {
                if (val == "all") {
                    for (const std::string &n : benchmarkNames())
                        cfg.programs.push_back({n, makeBenchmark(n)});
                } else if (val.rfind("file:", 0) == 0) {
                    std::string p = val.substr(5);
                    cfg.programs.push_back({p, loadProgramFile(p)});
                } else {
                    cfg.programs.push_back({val, makeBenchmark(val)});
                }
            }
        } else if (key == "device") {
            std::string val;
            while (ls >> val) {
                if (val == "all")
                    for (Device &d : allStudyDevices())
                        cfg.devices.push_back(std::move(d));
                else
                    cfg.devices.push_back(deviceByName(val));
            }
        } else if (key == "days") {
            parseDays(ls, cfg.days);
        } else if (key == "level") {
            std::string val;
            while (ls >> val) {
                if (val == "all")
                    cfg.levels.insert(cfg.levels.end(),
                                      {OptLevel::N, OptLevel::OneQOpt,
                                       OptLevel::OneQOptC,
                                       OptLevel::OneQOptCN});
                else
                    cfg.levels.push_back(optLevelFromToken(val));
            }
        } else if (key == "drift") {
            cfg.driftThreshold = number(0.0, 1.0);
        } else if (key == "journal") {
            ls >> cfg.journalPath;
        } else if (key == "threads") {
            cfg.threads = number(0, kMaxThreads);
        } else if (key == "budget_ms") {
            budget_ms = number(0.0, kAny);
        } else if (key == "cache") {
            cfg.useCache = number(0, 1) != 0;
        } else if (key == "strict_calibration") {
            cfg.options.strictCalibration = number(0, 1) != 0;
        } else {
            fatal("triq-sweep: ", path, ":", lineno,
                  ": unknown directive '", key, "'");
        }
    }
    if (budget_ms > 0.0)
        cfg.options.budget = CompileBudget::withDeadlineMs(budget_ms);
    if (cfg.days.empty())
        cfg.days.push_back(0);
    if (cfg.levels.empty())
        cfg.levels.push_back(OptLevel::OneQOptCN);
    return cfg;
}

void
usage()
{
    std::cerr
        << "usage: triq-sweep --manifest FILE [options]\n"
           "  --manifest FILE   sweep grid description (required)\n"
           "  -o, --json FILE   write the results matrix here (default\n"
           "                    stdout)\n"
           "  --threads N       worker threads, at most 256; 0 = one per\n"
           "                    hardware thread (default)\n"
           "  --drift T         reuse CN artifacts whose predicted ESP\n"
           "                    degraded <= T (relative, 0 <= T <= 1);\n"
           "                    default off\n"
           "  --no-cache        disable the compile cache\n"
           "  --journal FILE    append every resolved cell to a\n"
           "                    crash-safe fsync'd JSONL journal (also\n"
           "                    switches the matrix to deterministic\n"
           "                    mode: no wall-clock fields)\n"
           "  --resume          restore finished cells from --journal\n"
           "                    instead of recomputing them\n";
}

int
run(int argc, char **argv)
{
    std::string manifest, out_path, journal_path;
    int threads = -1;
    std::optional<double> drift;
    bool no_cache = false;
    bool resume = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("triq-sweep: ", arg, " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(arg, "--manifest"))
            manifest = next();
        else if (!std::strcmp(arg, "-o") || !std::strcmp(arg, "--json"))
            out_path = next();
        else if (!std::strcmp(arg, "--threads"))
            threads = flagValue(arg, next(), 0, kMaxThreads);
        else if (!std::strcmp(arg, "--drift"))
            drift = flagValue(arg, next(), 0.0, 1.0);
        else if (!std::strcmp(arg, "--no-cache"))
            no_cache = true;
        else if (!std::strcmp(arg, "--journal"))
            journal_path = next();
        else if (!std::strcmp(arg, "--resume"))
            resume = true;
        else if (!std::strcmp(arg, "-h") || !std::strcmp(arg, "--help")) {
            usage();
            return 0;
        } else {
            fatal("triq-sweep: unknown option '", arg, "'");
        }
    }
    if (manifest.empty()) {
        usage();
        return 1;
    }

    SweepConfig cfg = loadManifest(manifest);
    if (threads >= 0)
        cfg.threads = threads;
    if (drift)
        cfg.driftThreshold = drift;
    if (no_cache)
        cfg.useCache = false;
    if (!journal_path.empty())
        cfg.journalPath = journal_path;
    cfg.resume = resume;
    if (resume && cfg.journalPath.empty())
        fatal("triq-sweep: --resume needs --journal FILE (or a "
              "'journal' manifest directive)");
    if (cfg.programs.empty())
        fatal("triq-sweep: manifest lists no programs");
    if (cfg.devices.empty())
        fatal("triq-sweep: manifest lists no devices");

    CompileCache cache;
    SweepResult res = runSweep(cfg, &cache);

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file)
            fatal("triq-sweep: cannot write '", out_path, "'");
        os = &file;
    }
    CompileCache::Stats cs = cache.stats();
    writeSweepMatrix(*os, cfg, res, &cs, !cfg.journalPath.empty());

    std::cerr << "triq-sweep: " << res.stats.cells << " cells ("
              << res.stats.compiles << " compiled, "
              << res.stats.cacheHits << " cache hits, "
              << res.stats.driftReuses << " drift reuses, "
              << res.stats.skipped << " skipped, "
              << res.stats.errors << " errors) in "
              << res.stats.wallMs << " ms on " << res.stats.threads
              << " thread(s)\n";
    if (res.stats.restoredCells > 0)
        std::cerr << "triq-sweep: " << res.stats.restoredCells
                  << " cell(s) restored from journal '" << cfg.journalPath
                  << "'\n";
    // Partial-failure contract: the matrix above is complete (failed
    // cells carry structured "error" entries) but the run did not fully
    // succeed — exit 1 (user-input error), never 2 (that would claim a
    // TriQ bug).
    if (res.stats.errors > 0) {
        std::cerr << "triq-sweep: " << res.stats.errors
                  << " cell(s) failed; results are partial\n";
        return 1;
    }
    return 0;
}

} // namespace
} // namespace triq

int
main(int argc, char **argv)
{
    try {
        return triq::run(argc, argv);
    } catch (const triq::FatalError &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    } catch (const triq::PanicError &e) {
        std::cerr << "panic: " << e.what() << "\n";
        return 2;
    }
}
