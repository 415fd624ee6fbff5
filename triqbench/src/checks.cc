#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/diagnostics.hh"
#include "core/backend.hh"
#include "core/decompose.hh"
#include "core/reliability.hh"
#include "core/router.hh"
#include "core/translate.hh"
#include "harness.hh"
#include "metrics.hh"
#include "sim/density.hh"

using namespace triq;

namespace triqbench
{

void
Outcome::fail(const std::string &what)
{
    ++failed;
    if (failures.size() < 20)
        failures.push_back(what);
}

namespace
{

constexpr size_t kRingWords = size_t{1} << 20; // 4 MiB of uint32_t
constexpr double kGaugeIntervalMs = 50.0;
constexpr size_t kGaugeHalfWindow = 2;

/** The gauge's fixed work; returns a value that depends on all of it. */
double
gaugeWork(const std::vector<uint32_t> &ring)
{
    SeedRng rng(12345);
    std::vector<double> keys(2048);
    for (double &x : keys)
        x = static_cast<double>(rng.next() >> 11);
    std::sort(keys.begin(), keys.end());
    std::map<uint64_t, int> tree;
    for (int i = 0; i < 512; ++i)
        tree[rng.next() % 4096] += i;
    std::vector<std::complex<double>> amp(256, {1.0, 0.5});
    const std::complex<double> a(0.6, 0.0), b(0.0, 0.8);
    for (int r = 0; r < 64; ++r) {
        for (size_t i = 0; i < 128; ++i) {
            std::complex<double> x = amp[i], y = amp[i + 128];
            amp[i] = a * x + b * y;
            amp[i + 128] = b * x + a * y;
        }
    }
    uint32_t at = 0;
    for (int i = 0; i < 4096; ++i)
        at = ring[at];
    return keys[1024] + static_cast<double>(tree.size()) + amp[7].real() +
           at;
}

} // namespace

SpeedGauge::SpeedGauge() : ring_(kRingWords)
{
    // One cycle through every word (Sattolo's shuffle), so the walk
    // misses the inner caches on every step.
    for (size_t i = 0; i < ring_.size(); ++i)
        ring_[i] = static_cast<uint32_t>(i);
    SeedRng rng(1);
    for (size_t i = ring_.size() - 1; i > 0; --i)
        std::swap(ring_[i], ring_[rng.next() % i]);
}

void
SpeedGauge::tick()
{
    if (samples_.empty() || msSince(last_) >= kGaugeIntervalMs)
        sample();
}

void
SpeedGauge::sample()
{
    static volatile double sink = 0.0;
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        auto t0 = Clock::now();
        sink = gaugeWork(ring_);
        double ms = msSince(t0);
        best = rep ? std::min(best, ms) : ms;
    }
    samples_.push_back(best);
    last_ = Clock::now();
}

double
SpeedGauge::factorAt(size_t i) const
{
    return kReferenceMs / windowMedian(samples_, i, kGaugeHalfWindow);
}

double
setupSeconds(const RunConfig &cfg)
{
    const double wall_s = msSince(cfg.processStart) / 1000.0;
    SpeedGauge gauge;
    for (size_t i = 0; i < 2 * kGaugeHalfWindow + 1; ++i)
        gauge.sample();
    return wall_s * gauge.factorAt(kGaugeHalfWindow);
}

void
reportLatency(Outcome &out, const std::vector<double> &op_ms,
              size_t inputs, double busy_s, double wall_s)
{
    const double ops = static_cast<double>(op_ms.size());
    out.e2e("ops_per_s", ops / busy_s, "op/s");
    out.e2e("op_ms_p50", percentile(perInputMedians(op_ms, inputs), 0.50),
            "ms");
    out.info("ops_per_s_wall", ops / wall_s, "op/s");
    if (auto p90 = tailPercentile(op_ms, 0.90))
        out.info("op_ms_p90", *p90, "ms");
    if (auto p99 = tailPercentile(op_ms, 0.99))
        out.info("op_ms_p99", *p99, "ms");
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

uint64_t
SeedRng::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::map<std::string, std::string>
loadExpected(const RunConfig &cfg)
{
    return parseExpected(readFile(cfg.root + "/triqbench/expected.txt"));
}

std::string
checkEdges(const Circuit &hw, const Topology &topo)
{
    for (const Gate &g : hw.gates()) {
        if (!isTwoQubitGate(g.kind))
            continue;
        if (!topo.adjacent(g.qubits[0], g.qubits[1]))
            return "2Q gate '" + g.str() + "' is not on a device edge";
    }
    return "";
}

std::string
checkAnswer(const std::string &name,
            const std::map<std::string, std::string> &expected,
            const Circuit &program, const CompileResult &compiled,
            const ExecutionResult &run)
{
    auto it = expected.find(name);
    if (it == expected.end())
        return "no expected answer for " + name;
    uint64_t got = outcomeForProgram(run.correctOutcome, compiled.hwCircuit,
                                     compiled.finalMap,
                                     program.measuredQubits());
    if (program.measuredQubits().size() != it->second.size() ||
        got != bitsToKey(it->second))
        return name + ": correct outcome " + std::to_string(got) +
               " differs from the expected " + it->second;
    return "";
}

std::string
checkExact(const CompileResult &compiled, const Device &dev,
           const Calibration &calib, const ExecutionResult &run)
{
    double p = exactSuccessProbability(compiled.hwCircuit, dev, calib);
    double sigma = std::sqrt(p * (1.0 - p) / run.trials);
    double slack = 5.0 * sigma + 1.0 / run.trials;
    if (std::abs(run.successRate - p) > slack)
        return "trajectory success " + std::to_string(run.successRate) +
               " is more than 5 sigma from the exact " + std::to_string(p);
    return "";
}

void
ReplayStats::report(Outcome &out, const Tracer &tracer) const
{
    double n = compiles ? static_cast<double>(compiles) : 1.0;
    auto per_op = [&](const char *span) { return tracer.totalMs(span) / n; };
    out.layer("device.validate_ms", per_op("device.validate"), "ms");
    out.layer("core.decompose_ms", per_op("core.decompose"), "ms");
    out.layer("core.reliability_ms", per_op("core.reliability"), "ms");
    out.layer("core.mapping_ms", per_op("core.mapping"), "ms");
    out.layer("core.routing_ms", per_op("core.routing"), "ms");
    out.layer("core.translate_ms", per_op("core.translate"), "ms");
    out.layer("core.emit_ms", per_op("core.emit"), "ms");
    out.layer("core.driver_gap_ms", (compileMs - passMs) / n, "ms");
    out.layer("core.gates_after.decompose", gatesAfterDecompose / n,
              "count");
    out.layer("core.gates_after.routing", gatesAfterRouting / n, "count");
    out.layer("core.gates_after.translate", gatesAfterTranslate / n,
              "count");
    out.layer("core.swaps", swaps / n, "count");
    out.layer("core.mapper_nodes", mapperNodes / n, "count");
    out.layer("core.mapper_pruned.bound", prunedBound / n, "count");
    out.layer("core.mapper_pruned.symmetry", prunedSymmetry / n, "count");
    out.layer("core.mapper_pruned.dominance", prunedDominance / n,
              "count");
    double bnb = bnbOps ? static_cast<double>(bnbOps) : 1.0;
    out.layer("core.bnb_optimal_ratio", bnbOptimal / bnb, "ratio");
    out.layer("core.bnb_improved_ratio", bnbImproved / bnb, "ratio");
}

void
SimStats::add(const ExecutionResult &run)
{
    ++ops;
    trials += run.trials;
    trajectories += run.simulatedTrajectories;
    faultFree += run.noErrorProb;
    threaded += run.sched.threaded ? 1 : 0;
    if (run.sched.actualMs > 0.0 && run.sched.predictedMs > 0.0)
        schedRatios.push_back(run.sched.actualMs / run.sched.predictedMs);
}

void
SimStats::report(Outcome &out, const Tracer &tracer) const
{
    double n = ops ? static_cast<double>(ops) : 1.0;
    out.layer("sim.execute_ms", tracer.totalMs("sim.execute") / n, "ms");
    out.layer("sim.trajectories_per_trial",
              trials > 0.0 ? trajectories / trials : 0.0, "ratio");
    out.layer("sim.fault_free_prob", faultFree / n, "ratio");
    out.layer("sim.sched_threaded_ratio", threaded / n, "ratio");
    out.layer("sim.sched_error", geomeanPositive(schedRatios), "ratio");
}

std::string
replayCompile(Tracer &tracer, const Circuit &program, const Device &dev,
              const Calibration &calib, const CompileOptions &opts,
              const CompileResult &ref, double compile_ms,
              ReplayStats &stats)
{
    Span replay(tracer, "bench.replay");
    const Topology &topo = dev.topology();

    auto timed = [&](const char *name, auto &&fn) {
        double t0 = tracer.nowUs();
        {
            Span s(tracer, name);
            fn();
        }
        stats.passMs += (tracer.nowUs() - t0) / 1000.0;
    };

    Calibration day = calib;
    timed("device.validate", [&] {
        Diagnostics diags("calibration");
        day.validate(topo,
                     opts.strictCalibration ? ValidateMode::Strict
                                            : ValidateMode::Sanitize,
                     diags);
    });
    Circuit lowered;
    timed("core.decompose", [&] {
        lowered = decomposeToCnotBasis(program, dev.gateSet().nativeCphase);
    });
    const bool noise_aware = opts.level == OptLevel::OneQOptCN;
    std::optional<ReliabilityMatrix> rel;
    timed("core.reliability", [&] {
        Calibration avg = dev.averageCalibration();
        rel.emplace(topo, noise_aware ? day : avg, dev.vendor());
    });
    const bool comm_opt = opts.level == OptLevel::OneQOptC ||
                          opts.level == OptLevel::OneQOptCN;
    ProgramInfo info;
    Mapping mapping;
    timed("core.mapping", [&] {
        info = ProgramInfo::fromCircuit(lowered);
        mapping = comm_opt ? mapQubits(info, *rel, opts.mapping)
                           : trivialMapping(info, *rel);
    });
    RoutingResult routed;
    timed("core.routing",
          [&] { routed = routeCircuit(lowered, mapping, topo, *rel); });
    TranslateResult tr;
    timed("core.translate", [&] {
        TranslateOptions topts;
        topts.fuseOneQubit = opts.level != OptLevel::N;
        tr = translateForDevice(routed.circuit, topo, dev.gateSet(), topts);
    });
    std::string assembly;
    if (opts.emitAssembly)
        timed("core.emit",
              [&] { assembly = emitAssembly(tr.circuit, dev.vendor()); });

    ++stats.compiles;
    stats.compileMs += compile_ms;
    stats.gatesAfterDecompose += lowered.numGates();
    stats.gatesAfterRouting += routed.circuit.numGates();
    stats.gatesAfterTranslate += tr.circuit.numGates();
    stats.swaps += routed.swapCount;
    stats.mapperNodes += static_cast<double>(mapping.nodesExplored);
    stats.prunedBound += static_cast<double>(mapping.boundPruned);
    stats.prunedSymmetry += static_cast<double>(mapping.symmetryPruned);
    stats.prunedDominance += static_cast<double>(mapping.dominancePruned);
    if (comm_opt && opts.mapping.kind == MapperKind::BranchAndBound) {
        MappingOptions greedy = opts.mapping;
        greedy.kind = MapperKind::Greedy;
        Mapping g = mapQubits(info, *rel, greedy);
        ++stats.bnbOps;
        stats.bnbOptimal += mapping.optimal ? 1 : 0;
        stats.bnbImproved += mapping.minReliability > g.minReliability;
    }

    if (tr.circuit.gates() != ref.hwCircuit.gates() ||
        routed.initialMap != ref.initialMap ||
        routed.finalMap != ref.finalMap ||
        routed.swapCount != ref.swapCount ||
        tr.stats.pulses1q != ref.stats.pulses1q ||
        tr.stats.twoQ != ref.stats.twoQ ||
        tr.stats.virtualZ != ref.stats.virtualZ ||
        mapping.minReliability != ref.mapperObjective ||
        assembly != ref.assembly)
        return "pass-by-pass replay of " + program.name() + " on " +
               dev.name() + " differs from compileForDevice";
    return "";
}

} // namespace triqbench
