#include "bench_util.hh"

#include <fstream>
#include <iostream>

#include "common/env.hh"
#include "common/logging.hh"
#include "common/sched.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace bench
{

int
defaultDay()
{
    return envInt("TRIQ_DAY", 3, 0);
}

int
defaultTrials(int fallback)
{
    return envInt("TRIQ_TRIALS", fallback, 1);
}

ExecOptions
execOptions()
{
    ExecOptions eo;
    // 0 is valid: the executor reads it as one worker per hardware
    // thread.
    eo.threads = envInt("TRIQ_SIM_THREADS", 1, 0, kMaxThreads);
    return eo;
}

CompileCache &
processCompileCache()
{
    static CompileCache cache;
    return cache;
}

CompileResult
compileTriq(const Circuit &program, const Device &dev, OptLevel level,
            int day)
{
    Calibration calib = dev.calibrate(day);
    CompileOptions opts;
    opts.level = level;
    opts.emitAssembly = false;
    CachedCompile cc = compileThroughCache(&processCompileCache(),
                                           program, dev, day, calib, opts);
    return *cc.result;
}

void
forEachStudyBenchmark(
    const Device &dev,
    const std::function<void(const std::string &, const Circuit &)> &row,
    const std::function<void(const std::string &)> &skip)
{
    for (const std::string &name : benchmarkNames()) {
        Circuit program = makeBenchmark(name);
        if (program.numQubits() > dev.numQubits()) {
            if (skip)
                skip(name);
            continue;
        }
        row(name, program);
    }
}

void
Ratios::add(double r)
{
    if (r > 0)
        ratios_.push_back(r);
}

std::string
Ratios::summary() const
{
    return "geomean: " + fmtFactor(geomean(ratios_)) +
           "  max: " + fmtFactor(maxOf(ratios_));
}

RunPoint
runTriq(const Circuit &program, const Device &dev, OptLevel level, int day,
        int trials)
{
    Calibration calib = dev.calibrate(day);
    RunPoint pt;
    pt.compiled = compileTriq(program, dev, level, day);
    pt.executed = executeNoisy(pt.compiled.hwCircuit, dev, calib, trials,
                               0x5EED0000 + static_cast<uint64_t>(day),
                               execOptions());
    return pt;
}

ExecutionResult
runCompiled(const CompileResult &res, const Device &dev, int day,
            int trials)
{
    Calibration calib = dev.calibrate(day);
    return executeNoisy(res.hwCircuit, dev, calib, trials,
                        0x5EED0000 + static_cast<uint64_t>(day),
                        execOptions());
}

std::string
successCell(const ExecutionResult &ex)
{
    std::string s = fmtF(ex.successRate, 3);
    if (!ex.correctIsModal)
        s += "*";
    return s;
}

const char *
flagArg(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        fatal(argv[i], " needs a value");
    return argv[++i];
}

void
writeReport(const char *tool, const JsonWriter &report,
            const std::string &json_file)
{
    std::cout << report.str() << "\n";
    if (json_file.empty())
        return;
    std::ofstream out(json_file);
    if (!out)
        fatal(tool, ": cannot write '", json_file, "'");
    out << report.str() << "\n";
}

} // namespace bench
} // namespace triq
