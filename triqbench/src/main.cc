/**
 * @file
 * triqbench: runs one named workload from a seed and prints, as its
 * last line, one JSON object with the run's outcome, output digest and
 * metrics. run.py builds this binary and turns that line into the
 * benchmark's result line (see triqbench/README.md).
 *
 *   triqbench --workload study|scale|wide|triqd --seed N --seconds S
 *             [--trace 0|1] [--setup-only] [--root DIR] [--trace-dir DIR]
 */

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/logging.hh"
#include "common/sched.hh"
#include "core/mapper.hh"
#include "harness.hh"
#include "service/wire.hh"

extern char **environ;

using namespace triqbench;

namespace
{

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "triqbench: " << why << "\n"
              << "usage: triqbench --workload study|scale|wide|triqd "
                 "--seed N --seconds S [--trace 0|1] [--setup-only] "
                 "[--root DIR] [--trace-dir DIR]\n";
    std::exit(2);
}

/**
 * Run with the program's defaults: drop every TRIQ_* knob from the
 * environment so a later change to a default shows up here.
 */
void
clearTriqEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e)
        if (std::strncmp(*e, "TRIQ_", 5) == 0)
            names.emplace_back(*e, std::strcspn(*e, "="));
    for (const std::string &n : names)
        unsetenv(n.c_str());
}

void
writeMetrics(triq::JsonWriter &w, const std::vector<Metric> &ms)
{
    w.beginObject();
    for (const Metric &m : ms) {
        w.key(m.name).beginObject();
        w.key("value").value(m.value).key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
}

void
printTable(const char *title, const std::vector<Metric> &ms)
{
    std::cout << title << "\n";
    for (const Metric &m : ms)
        std::cout << "  " << m.name << " = " << m.value << " " << m.unit
                  << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    std::string trace_dir = ".";
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        try {
            if (a == "--workload") {
                cfg.workload = next();
            } else if (a == "--seed") {
                cfg.seed = std::stoull(next());
                have_seed = true;
            } else if (a == "--seconds") {
                cfg.seconds = std::stod(next());
                have_seconds = cfg.seconds > 0.0;
            } else if (a == "--trace") {
                cfg.trace = next() != "0";
            } else if (a == "--setup-only") {
                cfg.setupOnly = true;
            } else if (a == "--root") {
                cfg.root = next();
            } else if (a == "--trace-dir") {
                trace_dir = next();
            } else {
                usage("unknown argument '" + a + "'");
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + a);
        }
    }
    if (!have_seed || !have_seconds)
        usage("--seed and a positive --seconds are required");

    clearTriqEnv();
    triq::setQuiet(true);

    Tracer tracer(cfg.trace);
    Outcome out;
    double sched_calib_ms = 0.0;
    try {
        {
            Span s(tracer, "common.sched_calib");
            auto t0 = Clock::now();
            triq::schedCalib();
            sched_calib_ms = msSince(t0);
        }
        if (cfg.workload == "study")
            out = runStudy(cfg, tracer);
        else if (cfg.workload == "scale")
            out = runScale(cfg, tracer);
        else if (cfg.workload == "wide")
            out = runWide(cfg, tracer);
        else if (cfg.workload == "triqd")
            out = runTriqd(cfg, tracer);
        else
            usage("unknown workload '" + cfg.workload + "'");
    } catch (const std::exception &e) {
        std::cerr << "triqbench: " << cfg.workload << ": " << e.what()
                  << "\n";
        return 3;
    }

    if (!cfg.setupOnly) {
        out.e2e("peak_rss_mb", peakRssMb(), "MiB");
        out.info("failed_ratio",
                 out.attempted ? double(out.failed) / out.attempted : 0.0,
                 "ratio");
    }
    if (cfg.trace && !cfg.setupOnly) {
        out.layer("common.sched_calib_ms", sched_calib_ms, "ms");
        long n = tracer.count("device.calibrate");
        out.layer("device.calibrate_ms",
                  n ? tracer.totalMs("device.calibrate") / n : 0.0, "ms");
    }

    // Human-readable report.
    std::cout << "workload " << cfg.workload << ", seed " << cfg.seed
              << ", build " << TRIQBENCH_BUILD_TYPE << ", "
              << std::thread::hardware_concurrency()
              << " hardware threads, z3 "
              << (TRIQBENCH_HAVE_Z3 && triq::smtMapperAvailable() ? "yes"
                                                                  : "no")
              << ", TRIQ_NATIVE_KERNELS "
              << (TRIQBENCH_NATIVE_KERNELS ? "ON" : "OFF") << "\n";
    std::cout << "set-up " << out.setupS << " s\n";
    if (!cfg.setupOnly) {
        std::cout << "ops attempted " << out.attempted << ", failed "
                  << out.failed << "\n";
        for (const std::string &f : out.failures)
            std::cout << "  FAILED: " << f << "\n";
        std::cout << "digest " << out.digest << "\n";
        printTable("end-to-end:", out.endToEnd);
        printTable("workload-specific:", out.extra);
    }
    if (cfg.trace && !cfg.setupOnly) {
        printTable("per-layer:", out.perLayer);
        std::cout << "self time by layer (ms):\n";
        std::ostringstream table;
        for (const Tracer::LayerRow &r : tracer.selfTimeByLayer())
            table << "  " << r.layer << " self " << r.selfMs << " total "
                  << r.totalMs << " spans " << r.spans << "\n";
        std::cout << table.str();
        std::string stem = trace_dir + "/trace-" + cfg.workload + "-" +
                           std::to_string(cfg.seed);
        std::ofstream(stem + ".json") << tracer.chromeJson();
        std::ofstream(stem + "-layers.txt") << table.str();
        std::cout << "trace written to " << stem << ".json\n";
    }

    triq::JsonWriter w;
    w.beginObject();
    w.key("correct").value(out.failed == 0);
    w.key("attempted").value(out.attempted);
    w.key("failed").value(out.failed);
    w.key("setup_s").value(out.setupS);
    w.key("digest").value(out.digest);
    w.key("metrics");
    writeMetrics(w, cfg.trace ? out.perLayer : out.endToEnd);
    w.key("extra");
    writeMetrics(w, out.extra);
    w.endObject();
    std::cout << w.str() << std::endl;
    return out.failed == 0 ? 0 : 1;
}
