#include "core/crash_report.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

extern "C" {
extern char **environ;
}

namespace triq
{

namespace fs = std::filesystem;

namespace
{

constexpr const char *kProgramFile = "program.txt";
constexpr const char *kCalibrationFile = "calibration.txt";
constexpr const char *kOptionsFile = "options.txt";
constexpr const char *kEnvironmentFile = "environment.txt";
constexpr const char *kErrorFile = "error.txt";

void
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("crash report: cannot write '", path.string(), "'");
    out << content;
    if (!out)
        fatal("crash report: write to '", path.string(), "' failed");
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("crash report: cannot read '", path.string(), "'");
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

void
CrashBundle::write(const std::string &dir) const
{
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        fatal("crash report: cannot create '", dir, "': ", ec.message());

    std::ostringstream opts;
    opts.precision(17);
    opts << "bench=" << benchName << "\n"
         << "qasm=" << (qasm ? 1 : 0) << "\n"
         << "device=" << device << "\n"
         << "day=" << day << "\n"
         << "level=" << level << "\n"
         << "mapper=" << mapper << "\n"
         << "peephole=" << (peephole ? 1 : 0) << "\n"
         << "strict_calibration=" << (strictCalibration ? 1 : 0) << "\n"
         << "budget_ms=" << budgetMs << "\n"
         << "node_budget=" << nodeBudget << "\n"
         << "seed=" << seed << "\n"
         << "trials=" << trials << "\n"
         << "sim_threads=" << simThreads << "\n"
         << "sim_fusion=" << (simFusion ? 1 : 0) << "\n";
    if (!requestId.empty())
        opts << "request_id=" << requestId << "\n";
    writeFile(fs::path(dir) / kOptionsFile, opts.str());

    if (!envKnobs.empty()) {
        std::ostringstream env;
        for (const std::string &kv : envKnobs)
            env << kv << "\n";
        writeFile(fs::path(dir) / kEnvironmentFile, env.str());
    }

    if (hasProgram)
        writeFile(fs::path(dir) / kProgramFile, programText);
    if (hasCalibration) {
        std::ostringstream cal;
        calibration.save(cal);
        writeFile(fs::path(dir) / kCalibrationFile, cal.str());
    }
    writeFile(fs::path(dir) / kErrorFile,
              error.empty() ? std::string("(no message)\n") : error + "\n");
}

CrashBundle
CrashBundle::load(const std::string &dir)
{
    if (!fs::is_directory(dir))
        fatal("crash report: '", dir, "' is not a directory");

    CrashBundle b;
    std::istringstream opts(readFile(fs::path(dir) / kOptionsFile));
    std::string line;
    int lineno = 0;
    while (std::getline(opts, line)) {
        ++lineno;
        if (line.empty() || line[0] == '#')
            continue;
        size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal("crash report: malformed options.txt line ", lineno,
                  ": '", line, "'");
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        if (key == "bench")
            b.benchName = val;
        else if (key == "qasm")
            b.qasm = val == "1";
        else if (key == "device")
            b.device = val;
        else if (key == "day")
            b.day = std::atoi(val.c_str());
        else if (key == "level")
            b.level = val;
        else if (key == "mapper")
            b.mapper = val;
        else if (key == "peephole")
            b.peephole = val == "1";
        else if (key == "strict_calibration")
            b.strictCalibration = val == "1";
        else if (key == "budget_ms")
            b.budgetMs = std::atof(val.c_str());
        else if (key == "node_budget")
            b.nodeBudget = std::atol(val.c_str());
        else if (key == "seed")
            b.seed = std::strtoull(val.c_str(), nullptr, 10);
        else if (key == "trials")
            b.trials = std::atoi(val.c_str());
        else if (key == "sim_threads")
            b.simThreads = std::atoi(val.c_str());
        else if (key == "sim_fusion")
            b.simFusion = val == "1";
        else if (key == "request_id")
            b.requestId = val;
        // Unknown keys are skipped so newer bundles load in older
        // builds, and older bundles' retired keys (sched_mode,
        // sched_threads, sched_items_per_task) load in newer ones.
    }

    if (fs::exists(fs::path(dir) / kEnvironmentFile)) {
        std::istringstream env(readFile(fs::path(dir) / kEnvironmentFile));
        std::string kv;
        while (std::getline(env, kv))
            if (!kv.empty() && kv.find('=') != std::string::npos)
                b.envKnobs.push_back(kv);
    }

    if (fs::exists(fs::path(dir) / kProgramFile)) {
        b.programText = readFile(fs::path(dir) / kProgramFile);
        b.hasProgram = true;
    }
    if (fs::exists(fs::path(dir) / kCalibrationFile)) {
        std::istringstream cal(readFile(fs::path(dir) / kCalibrationFile));
        b.calibration = Calibration::load(cal);
        b.hasCalibration = true;
    }
    if (!b.hasProgram && b.benchName.empty())
        fatal("crash report: '", dir,
              "' has neither program.txt nor a bench= option");
    return b;
}

std::vector<std::string>
captureTriqEnv()
{
    std::vector<std::string> out;
    for (char **e = environ; e && *e; ++e)
        if (std::strncmp(*e, "TRIQ_", 5) == 0)
            out.emplace_back(*e);
    std::sort(out.begin(), out.end());
    return out;
}

int
applyTriqEnv(const std::vector<std::string> &env_knobs)
{
    int applied = 0;
    for (const std::string &kv : env_knobs) {
        size_t eq = kv.find('=');
        if (eq == std::string::npos || eq == 0)
            continue;
        std::string name = kv.substr(0, eq);
        if (name == "TRIQ_FAULT" || name == "TRIQ_FAULT_SEED")
            continue; // bundled inputs are already post-injection
#ifndef _WIN32
        if (setenv(name.c_str(), kv.c_str() + eq + 1, 1) == 0)
            ++applied;
#else
        if (_putenv(kv.c_str()) == 0)
            ++applied;
#endif
    }
    return applied;
}

std::string
defaultCrashDir()
{
#ifdef _WIN32
    int pid = _getpid();
#else
    int pid = static_cast<int>(getpid());
#endif
    return "triq-crash-" + std::to_string(pid);
}

std::string
resolveCrashDir(const std::string &base)
{
    std::error_code ec;
    if (!fs::exists(base, ec))
        return base;
    // PIDs recycle, so "triq-crash-<pid>" can already hold someone
    // else's bundle; never overwrite evidence — probe for the first
    // free monotonic suffix.
    for (int i = 1; i < 10000; ++i) {
        std::string candidate = base + "." + std::to_string(i);
        if (!fs::exists(candidate, ec))
            return candidate;
    }
    fatal("crash report: no free directory name after '", base,
          "' (10000 suffixes tried)");
}

} // namespace triq
