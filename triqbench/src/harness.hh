/**
 * @file
 * What every workload shares: the run configuration, the outcome it
 * reports, the op-timing loop and the output checks.
 *
 * A workload builds its inputs from the seed during set-up, then runs
 * *passes* over a fixed, seeded list of ops until the time budget is
 * spent. Every pass computes the same outputs, so the first pass fixes
 * the quality metrics and the digest, and every later op is checked
 * against the first pass's result for the same input. Ops are timed
 * with tracing off; a traced run adds a second, traced phase whose
 * extra diagnostic work (pass-by-pass compile replays, standalone
 * fusion/replay timing) is excluded from its op clock.
 */

#ifndef TRIQBENCH_HARNESS_HH
#define TRIQBENCH_HARNESS_HH

#include <chrono>
#include <numeric>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/compiler.hh"
#include "device/device.hh"
#include "sim/executor.hh"
#include "trace.hh"

namespace triqbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds since `t0`. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Command-line configuration of one run. */
struct RunConfig
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Stop after set-up (run.py repeats set-up to take its median). */
    bool setupOnly = false;

    /** Checkout root (holds examples/programs and triqbench/). */
    std::string root = ".";

    /** When main() started: set-up time counts from here. */
    Clock::time_point processStart = Clock::now();
};

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Everything a workload reports. */
struct Outcome
{
    long attempted = 0;
    long failed = 0;
    std::vector<std::string> failures; //!< First few failure messages.
    std::string digest;
    double setupS = 0.0;

    /** The contract's end-to-end metrics (untraced phase). */
    std::vector<Metric> endToEnd;

    /** Per-layer metrics (traced run only). */
    std::vector<Metric> perLayer;

    /**
     * Workload-specific end-to-end figures that are printed in the
     * report but are not defined on every workload (op_ms_p90,
     * op_ms_p99, compile_ms, sim_trials_per_s, success_geomean,
     * failed_ratio).
     */
    std::vector<Metric> extra;

    /** Count a failed op or check and keep its message. */
    void fail(const std::string &what);

    void e2e(const std::string &n, double v, const std::string &u)
    {
        endToEnd.push_back({n, v, u});
    }
    void layer(const std::string &n, double v, const std::string &u)
    {
        perLayer.push_back({n, v, u});
    }
    void info(const std::string &n, double v, const std::string &u)
    {
        extra.push_back({n, v, u});
    }
};

/**
 * Wall clock of one timed phase, minus the diagnostic work a traced
 * phase does between ops (added with exclude()).
 */
class PhaseClock
{
  public:
    void exclude(double ms) { excludedMs_ += ms; }
    double elapsedS() const
    {
        return (msSince(start_) - excludedMs_) / 1000.0;
    }

  private:
    Clock::time_point start_ = Clock::now();
    double excludedMs_ = 0.0;
};

/**
 * The host's speed, sampled between ops. The benchmark runs on a share
 * of a machine whose speed drifts by a quarter or more within minutes
 * as other tenants come and go, and no statistic of wall time hides
 * that. The gauge times a fixed piece of the benchmark's own code
 * (sorting, a tree map, complex arithmetic on a small state, a walk
 * over a 4 MiB table), which no change to TriQ makes faster or slower,
 * so an op's wall time times kReferenceMs over the gauge's time around
 * it is the op's time at one reference speed.
 */
class SpeedGauge
{
  public:
    /** The gauge's time at the reference speed. */
    static constexpr double kReferenceMs = 0.25;

    SpeedGauge();

    /** Take a sample if 50 ms have passed since the last one. */
    void tick();

    /** Take a sample now: the fastest of three runs of the work. */
    void sample();

    size_t samples() const { return samples_.size(); }

    /**
     * Reference-speed time per wall-clock time around sample `i`:
     * kReferenceMs over the median of samples i-2 .. i+2.
     */
    double factorAt(size_t i) const;

  private:
    std::vector<uint32_t> ring_; //!< One random cycle through 4 MiB.
    std::vector<double> samples_;
    Clock::time_point last_;
};

/**
 * Run whole passes over inputs 0 .. n-1 until the phase has lasted
 * `seconds`, at least one pass, so every input weighs the same in the
 * phase's figures. `op(input)` runs one op and returns its wall time in
 * ms. Returns each op's time at the gauge's reference speed, in run
 * order.
 */
template <typename Op>
std::vector<double>
runPhase(size_t n, double seconds, const PhaseClock &clock, Op &&op)
{
    SpeedGauge gauge;
    std::vector<double> op_ms;
    std::vector<size_t> sample;
    for (size_t k = 0; k < n || k % n != 0 || clock.elapsedS() < seconds;
         ++k) {
        gauge.tick();
        sample.push_back(gauge.samples() - 1);
        op_ms.push_back(op(k % n));
    }
    gauge.sample();
    for (size_t k = 0; k < op_ms.size(); ++k)
        op_ms[k] *= gauge.factorAt(sample[k]);
    return op_ms;
}

/** Sum of a serial phase's op times, in seconds. */
inline double
busySeconds(const std::vector<double> &op_ms)
{
    return std::accumulate(op_ms.begin(), op_ms.end(), 0.0) / 1000.0;
}

/**
 * Set-up time of this process so far (main() start to now), in seconds
 * at the gauge's reference speed.
 */
double setupSeconds(const RunConfig &cfg);

/**
 * Latency-derived end-to-end metrics of an untraced phase. `op_ms`
 * holds whole passes over `inputs` inputs (op k is input k % inputs) at
 * reference speed, and `busy_s` is the phase's time at reference speed.
 * ops_per_s is ops over busy_s; op_ms_p50 is the nearest-rank median
 * over the inputs of each input's median over passes, so one slow pass
 * moves no input; op_ms_p90 / op_ms_p99 (over all ops) are extras where
 * at least ten samples lie beyond them. `wall_s`, the phase's wall
 * time, gives the extra ops_per_s_wall.
 */
void reportLatency(Outcome &out, const std::vector<double> &op_ms,
                   size_t inputs, double busy_s, double wall_s);

/** Peak resident set of this process, MiB (getrusage ru_maxrss). */
double peakRssMb();

/** A deterministic 64-bit generator for input selection (splitmix64). */
class SeedRng
{
  public:
    explicit SeedRng(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform integer in [0, n). */
    int below(int n) { return static_cast<int>(next() % uint64_t(n)); }

  private:
    uint64_t state_;
};

/** Seeded Fisher-Yates shuffle. */
template <typename T>
void
shuffle(std::vector<T> &v, SeedRng &rng)
{
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[static_cast<size_t>(rng.below(int(i)))]);
}

/** Read a whole file; throws std::runtime_error when unreadable. */
std::string readFile(const std::string &path);

/** The hand-written expected answers (triqbench/expected.txt). */
std::map<std::string, std::string> loadExpected(const RunConfig &cfg);

// --- Output checks (each returns "" when the check passes) -----------

/** Every 2Q gate of a compiled circuit lies on a device edge. */
std::string checkEdges(const triq::Circuit &hw, const triq::Topology &topo);

/**
 * The op's correctOutcome, mapped through outcomeForProgram, equals the
 * expected-file entry for `name`.
 */
std::string checkAnswer(const std::string &name,
                        const std::map<std::string, std::string> &expected,
                        const triq::Circuit &program,
                        const triq::CompileResult &compiled,
                        const triq::ExecutionResult &run);

/**
 * Trajectory success lies within 5 sigma (binomial, plus one trial of
 * slack) of the density-matrix engine's exactSuccessProbability.
 */
std::string checkExact(const triq::CompileResult &compiled,
                       const triq::Device &dev, const triq::Calibration &calib,
                       const triq::ExecutionResult &run);

/** Aggregates of the pass-by-pass compile replays of a traced phase. */
struct ReplayStats
{
    long compiles = 0;
    double compileMs = 0.0; //!< Summed compileForDevice wall time.
    double passMs = 0.0;    //!< Summed replayed pass time.
    double gatesAfterDecompose = 0.0;
    double gatesAfterRouting = 0.0;
    double gatesAfterTranslate = 0.0;
    double swaps = 0.0;
    double mapperNodes = 0.0;
    double prunedBound = 0.0;
    double prunedSymmetry = 0.0;
    double prunedDominance = 0.0;
    long bnbOps = 0;
    long bnbOptimal = 0;
    long bnbImproved = 0;

    /** Add the core.* / device.validate_ms per-layer metrics. */
    void report(Outcome &out, const Tracer &tracer) const;
};

/** Aggregates of the executeNoisy calls of a traced phase. */
struct SimStats
{
    long ops = 0;
    double trials = 0.0;
    double trajectories = 0.0;
    double faultFree = 0.0;
    long threaded = 0;
    std::vector<double> schedRatios; //!< actual / predicted ms.

    void add(const triq::ExecutionResult &run);

    /** Add sim.execute_ms and the sim.* ratios. */
    void report(Outcome &out, const Tracer &tracer) const;
};

/**
 * Replay compileForDevice pass by pass (validate, decompose,
 * reliability, mapping, routing, translate, emit) under spans, and
 * check the replay's result equals `ref`. B&B ops also run the greedy
 * mapper on the same circuit to count whether search beat it.
 */
std::string replayCompile(Tracer &tracer, const triq::Circuit &program,
                          const triq::Device &dev,
                          const triq::Calibration &calib,
                          const triq::CompileOptions &opts,
                          const triq::CompileResult &ref,
                          double compile_ms, ReplayStats &stats);

// --- Workloads --------------------------------------------------------

Outcome runStudy(const RunConfig &cfg, Tracer &tracer);
Outcome runScale(const RunConfig &cfg, Tracer &tracer);
Outcome runWide(const RunConfig &cfg, Tracer &tracer);
Outcome runTriqd(const RunConfig &cfg, Tracer &tracer);

} // namespace triqbench

#endif // TRIQBENCH_HARNESS_HH
