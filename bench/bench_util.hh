/**
 * @file
 * Shared plumbing for the figure-reproduction harnesses: device lookup,
 * compile-and-execute helpers, and consistent run configuration; plus
 * writeReport, the one place the micro benches print their JSON
 * reports (built with JsonWriter) and write them to `--json FILE`.
 *
 * Environment knobs:
 *   TRIQ_TRIALS       trials per success-rate measurement (default
 *                     1000; the paper used 8192 / 5000 on hardware)
 *   TRIQ_DAY          calibration day index (default 3)
 *   TRIQ_SIM_THREADS  executor worker threads (default 1). Success
 *                     rates and histograms are bit-identical for any
 *                     value; only wall-clock time changes.
 */

#ifndef TRIQ_BENCH_BENCH_UTIL_HH
#define TRIQ_BENCH_BENCH_UTIL_HH

#include <functional>
#include <string>
#include <vector>

#include "common/json.hh"
#include "core/compiler.hh"
#include "device/machines.hh"
#include "service/sweep.hh"
#include "sim/executor.hh"

namespace triq
{
namespace bench
{

/** Resolve one of the seven study devices by name. */
Device deviceByName(const std::string &name);

/** Calibration day index (TRIQ_DAY env, default 3). */
int defaultDay();

/**
 * The harness's process-wide compile memo. Every compile issued
 * through compileTriq/runTriq lands here, so a figure that evaluates
 * the same (program, device, day, level) cell twice — or two panels
 * that share cells — compiles it once.
 */
CompileCache &processCompileCache();

/**
 * Compile `program` for `dev` at `level` against day `day`'s
 * calibration, memoized in processCompileCache(). Cache hits are
 * bit-identical to a cold compile (the service-layer determinism
 * contract), so figures may use this freely.
 */
CompileResult compileTriq(const Circuit &program, const Device &dev,
                          OptLevel level, int day);

/**
 * Run `row(name, program)` for every study benchmark that fits on
 * `dev`, and `skip(name)` (when non-null) for each one too large —
 * the figures' shared "X" table convention.
 */
void forEachStudyBenchmark(
    const Device &dev,
    const std::function<void(const std::string &, const Circuit &)> &row,
    const std::function<void(const std::string &)> &skip = nullptr);

/** Improvement-ratio accumulator for the figures' summary lines. */
class Ratios
{
  public:
    /** Record a ratio; non-positive values (failed runs) are dropped. */
    void add(double r);

    /** "geomean: 1.4x  max: 2.8x" over everything recorded. */
    std::string summary() const;

  private:
    std::vector<double> ratios_;
};

/** A compiled-and-executed experiment point. */
struct RunPoint
{
    CompileResult compiled;
    ExecutionResult executed;
};

/**
 * Compile `program` for `dev` at `level` against day `day`'s
 * calibration, then execute it noisily on the same calibration.
 */
RunPoint runTriq(const Circuit &program, const Device &dev, OptLevel level,
                 int day, int trials);

/**
 * Execute an externally compiled result (e.g. a vendor baseline)
 * against day `day`'s calibration.
 */
ExecutionResult runCompiled(const CompileResult &res, const Device &dev,
                            int day, int trials);

/** Success-rate cell: "0.87" or "0.12*" when not modal (paper: failed). */
std::string successCell(const ExecutionResult &ex);

/** The value after flag argv[i], advancing i; fatal() when missing. */
const char *flagArg(int argc, char **argv, int &i);

/**
 * Print a micro bench's JSON report on stdout and, when `json_file` is
 * not empty, write it there too; fatal() names `tool` when the file
 * cannot be written.
 */
void writeReport(const char *tool, const JsonWriter &report,
                 const std::string &json_file);

} // namespace bench
} // namespace triq

#endif // TRIQ_BENCH_BENCH_UTIL_HH
