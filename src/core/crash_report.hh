/**
 * @file
 * Crash-report bundles: one on-disk artifact that replays an internal
 * triqc failure.
 *
 * A PanicError means TriQ itself is broken (invariant violation), so
 * the message alone is useless to whoever has to debug it — they need
 * the *inputs* that drove the pipeline into the bad state. The driver
 * therefore snapshots everything the compilation consumed as it runs
 * (program text, calibration data, compile options, simulation seed),
 * and on panic dumps the snapshot to a `triq-crash-<pid>/` directory:
 *
 *   program.txt       program source, post fault-injection (when the
 *                     input was a file; built-in benchmarks are named
 *                     in options.txt instead)
 *   calibration.txt   calibration snapshot (triq-calgen format),
 *                     post fault-injection
 *   options.txt       key=value lines: device, level, mapper, budget,
 *                     seed, trials — every triqc flag that shapes the
 *                     pipeline — plus the request id when the crash
 *                     happened inside triqd
 *   environment.txt   every TRIQ_* environment knob that was set in
 *                     the crashing process, NAME=value per line
 *   error.txt         the panic message
 *
 * `triqc --replay <dir>` reconstructs the exact invocation from the
 * bundle — including re-applying the captured TRIQ_* knobs (except
 * TRIQ_FAULT*, since the bundle's inputs are already post-injection) —
 * so an internal error reported from the field, or from a live triqd
 * under load, reproduces from one artifact with no access to the
 * original machine, environment variables or calibration feed.
 */

#ifndef TRIQ_CORE_CRASH_REPORT_HH
#define TRIQ_CORE_CRASH_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "device/calibration.hh"

namespace triq
{

/**
 * Everything needed to replay one triqc invocation.
 *
 * String-typed fields mirror the CLI surface (level "cn", mapper
 * "bnb") rather than the internal enums so a bundle stays readable and
 * diffable, and so load() can defer validation to the same
 * optLevelFromToken/mapperKindFromString paths a normal invocation uses.
 */
struct CrashBundle
{
    /** Program source text ("" when a built-in benchmark was used). */
    std::string programText;
    bool hasProgram = false;

    /** Built-in benchmark name ("" when a file was compiled). */
    std::string benchName;

    /** True when programText is OpenQASM 2.0 rather than ScaffLite. */
    bool qasm = false;

    std::string device = "IBMQ5";
    int day = 0;

    /** Calibration snapshot as the pipeline saw it (post-injection). */
    Calibration calibration;
    bool hasCalibration = false;

    std::string level = "cn";
    std::string mapper = "bnb";
    bool peephole = false;
    bool strictCalibration = false;
    double budgetMs = 0.0;
    long nodeBudget = 0;

    /** Simulation knobs (--report path). */
    uint64_t seed = 12345;
    int trials = 2000;
    int simThreads = 1;
    bool simFusion = true;

    /**
     * Request id when the crash happened serving a triqd request
     * ("" for CLI crashes). Purely forensic: it ties the bundle back
     * to the client frame and the loadgen log that triggered it.
     */
    std::string requestId;

    /**
     * TRIQ_* environment knobs active in the crashing process, as
     * NAME=value entries (captureTriqEnv()). Replays re-apply them —
     * minus TRIQ_FAULT/TRIQ_FAULT_SEED, whose effects are already
     * baked into the bundled inputs — so knob-dependent behavior
     * (TRIQ_MEM_BUDGET's degraded plans) reproduces faithfully.
     */
    std::vector<std::string> envKnobs;

    /** The panic message (written to error.txt, not read back). */
    std::string error;

    /**
     * Write the bundle into `dir` (created, parents included).
     * Throws FatalError when the directory or a file cannot be written.
     */
    void write(const std::string &dir) const;

    /**
     * Load a bundle written by write(). Throws FatalError on a missing
     * directory, unreadable file or malformed options.txt.
     */
    static CrashBundle load(const std::string &dir);
};

/** The default bundle directory for this process: "triq-crash-<pid>". */
std::string defaultCrashDir();

/**
 * Snapshot every TRIQ_*-prefixed environment variable as NAME=value
 * entries, sorted by name (deterministic bundles diff cleanly).
 */
std::vector<std::string> captureTriqEnv();

/**
 * Re-apply captured knobs to this process's environment, skipping
 * TRIQ_FAULT and TRIQ_FAULT_SEED (bundled inputs are post-injection;
 * re-arming the injector would corrupt them a second time). Returns
 * the number of variables set.
 */
int applyTriqEnv(const std::vector<std::string> &env_knobs);

/**
 * Collision-proof `base`: returns `base` when free, else the first
 * free "base.N" (N = 1, 2, ...). PIDs recycle, so a fresh crash must
 * never overwrite an earlier process's bundle.
 */
std::string resolveCrashDir(const std::string &base);

} // namespace triq

#endif // TRIQ_CORE_CRASH_REPORT_HH
