#include "common/sched.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace triq
{

namespace
{

using Clock = std::chrono::steady_clock;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/**
 * Decision tuning. kAmortizeFactor is the ratio of useful work to
 * dispatch overhead each pool task must carry; kSpeedupMargin is the
 * predicted win threaded mode must show before the plan commits to it
 * (the model is deliberately coarse, so near-ties go to serial — the
 * mode whose prediction error costs nothing).
 */
constexpr double kAmortizeFactor = 32.0;
constexpr double kMinTaskUs = 50.0;
constexpr double kSpeedupMargin = 1.25;
constexpr double kTasksPerThread = 4.0;

/** Keep the DCE honest in the calibration loop. */
std::atomic<double> calib_sink{0.0};

} // namespace

SchedCalib
measureSchedCalib()
{
    SchedCalib c;
    c.hardwareThreads = ThreadPool::hardwareThreads();

    // Machine speed: stream 2x2 rotations over a small amplitude
    // array until ~1.5 ms has elapsed. One iteration of the inner
    // loop updates two amplitudes = two "amp ops".
    {
        std::vector<std::complex<double>> amps(size_t{1} << 12,
                                               {1.0, 0.5});
        const std::complex<double> u(0.8, 0.6), v(0.6, -0.8);
        auto t0 = Clock::now();
        double us = 0.0;
        uint64_t ops = 0;
        do {
            for (size_t i = 0; i + 1 < amps.size(); i += 2) {
                std::complex<double> a = amps[i], b = amps[i + 1];
                amps[i] = u * a + v * b;
                amps[i + 1] = v * a - u * b;
            }
            ops += amps.size();
            us = usSince(t0);
        } while (us < 1500.0);
        calib_sink.store(amps[1].real(), std::memory_order_relaxed);
        c.ampOpsPerUs = std::max(1.0, static_cast<double>(ops) / us);
    }

    // Dispatch overhead: spawn a tiny private pool (that cost is the
    // spawn constant), then push one batch of empty jobs through it.
    {
        auto t0 = Clock::now();
        ThreadPool pool(std::min(2, c.hardwareThreads));
        c.poolSpawnUs = std::max(1.0, usSince(t0));

        constexpr int kJobs = 512;
        std::atomic<int> ran{0};
        std::vector<std::function<void()>> jobs;
        jobs.reserve(kJobs);
        for (int i = 0; i < kJobs; ++i)
            jobs.push_back([&ran] {
                ran.fetch_add(1, std::memory_order_relaxed);
            });
        auto t1 = Clock::now();
        pool.submitBatch(std::move(jobs));
        pool.wait();
        double per_task = usSince(t1) / kJobs;
        if (ran.load() != kJobs)
            panic("measureSchedCalib: pool dropped jobs");
        c.perTaskOverheadUs = std::max(0.05, per_task);
    }
    return c;
}

std::optional<SchedCalib>
parseSchedCalib(const std::string &text)
{
    std::vector<double> vals;
    std::istringstream in(text);
    std::string field;
    while (std::getline(in, field, ',')) {
        errno = 0;
        char *end = nullptr;
        double v = std::strtod(field.c_str(), &end);
        if (end == field.c_str() || *end != '\0' || errno != 0 ||
            !std::isfinite(v) || v <= 0.0)
            return std::nullopt;
        vals.push_back(v);
    }
    if (vals.size() != 3 && vals.size() != 4)
        return std::nullopt;
    SchedCalib c;
    c.perTaskOverheadUs = vals[0];
    c.poolSpawnUs = vals[1];
    c.ampOpsPerUs = vals[2];
    c.hardwareThreads = vals.size() == 4
                            ? std::max(1, static_cast<int>(vals[3]))
                            : ThreadPool::hardwareThreads();
    return c;
}

std::string
schedCalibString(const SchedCalib &c)
{
    std::ostringstream out;
    out << c.perTaskOverheadUs << ',' << c.poolSpawnUs << ','
        << c.ampOpsPerUs << ',' << c.hardwareThreads;
    return out.str();
}

const SchedCalib &
schedCalib()
{
    static SchedCalib cached;
    static std::once_flag once;
    std::call_once(once, [] {
        if (const char *env = std::getenv("TRIQ_SCHED_CALIB")) {
            if (auto parsed = parseSchedCalib(env)) {
                cached = *parsed;
                return;
            }
            warn("TRIQ_SCHED_CALIB='", env,
                 "' is not \"overhead_us,spawn_us,amp_ops_per_us"
                 "[,threads]\"; measuring instead");
        }
        cached = measureSchedCalib();
    });
    return cached;
}

SchedDecision
planParallel(const SchedCalib &c, int items, double us_per_item,
             int max_threads, bool pool_hot)
{
    SchedDecision d;
    us_per_item = std::max(us_per_item, 0.0);
    if (items <= 0) {
        d.predictedSerialMs = 0.0;
        d.predictedMs = 0.0;
        return d;
    }
    const double serial_us = items * us_per_item;
    d.predictedSerialMs = serial_us / 1000.0;
    d.predictedMs = d.predictedSerialMs;

    int t = max_threads > 0 ? std::min(max_threads, c.hardwareThreads)
                            : c.hardwareThreads;
    t = std::min(t, items);
    if (t <= 1)
        return d;

    // Batch size: each task must carry kAmortizeFactor x the dispatch
    // overhead (floored at kMinTaskUs of work), but no more than an
    // even one-task-per-worker split — a larger chunk would idle
    // workers without saving any overhead.
    const double min_task_us =
        std::max(kAmortizeFactor * c.perTaskOverheadUs, kMinTaskUs);
    int chunk = us_per_item > 0.0
                    ? static_cast<int>(
                          std::ceil(min_task_us / us_per_item))
                    : items;
    const int even_split = (items + t - 1) / t;
    chunk = std::clamp(chunk, 1, even_split);
    // When the amortized chunk is far below the even split, cap task
    // count at ~kTasksPerThread per worker: finer batches add overhead
    // without improving balance.
    const int balance_chunk = static_cast<int>(std::ceil(
        items / (kTasksPerThread * t)));
    chunk = std::max(chunk, std::max(1, balance_chunk));

    const int tasks = (items + chunk - 1) / chunk;
    const int eff_threads = std::min(t, tasks);
    const double spawn_us = pool_hot ? 0.0 : c.poolSpawnUs;
    const double threaded_us = spawn_us +
                               tasks * c.perTaskOverheadUs +
                               serial_us / eff_threads;
    if (eff_threads < 2 || threaded_us * kSpeedupMargin >= serial_us)
        return d;

    d.threaded = true;
    d.threads = eff_threads;
    d.itemsPerTask = chunk;
    d.tasks = tasks;
    d.predictedMs = threaded_us / 1000.0;
    return d;
}

SchedDecision
planForced(const SchedCalib &c, int items, double us_per_item,
           int threads, bool pool_hot)
{
    if (threads <= 1 || items <= 1) {
        SchedDecision d;
        d.predictedSerialMs =
            std::max(0, items) * std::max(us_per_item, 0.0) / 1000.0;
        d.predictedMs = d.predictedSerialMs;
        return d;
    }
    // Reuse planParallel's batching, then force the threaded mode the
    // caller asked for even when the model predicts a loss.
    SchedDecision d = planParallel(c, items, us_per_item, threads, pool_hot);
    if (!d.threaded) {
        const int t = std::min(threads, items);
        const double min_task_us =
            std::max(kAmortizeFactor * c.perTaskOverheadUs, kMinTaskUs);
        int chunk = us_per_item > 0.0
                        ? static_cast<int>(
                              std::ceil(min_task_us / us_per_item))
                        : items;
        chunk = std::clamp(chunk, 1, (items + t - 1) / t);
        const int tasks = (items + chunk - 1) / chunk;
        d.threaded = true;
        d.threads = std::min(t, tasks);
        d.itemsPerTask = chunk;
        d.tasks = tasks;
        const double spawn_us = pool_hot ? 0.0 : c.poolSpawnUs;
        d.predictedMs = (spawn_us + tasks * c.perTaskOverheadUs +
                         items * std::max(us_per_item, 0.0) / d.threads) /
                        1000.0;
    }
    return d;
}

namespace
{

/** Amp ops for one full pass of `gates` gates over a 2^qubits state. */
double
replayOps(int qubits, int gates)
{
    const double dim =
        std::ldexp(1.0, std::clamp(qubits, 0, 40)); // 2^qubits
    // Each gate touches every amplitude once (1Q fast path) to a few
    // times (dense 2Q); call it 2 amp ops per amplitude per gate.
    return 2.0 * dim * std::max(gates, 0);
}

} // namespace

double
estimateChunkUs(const SchedCalib &c, int qubits, int gates,
                int chunk_trials, double faulty_fraction)
{
    faulty_fraction = std::clamp(faulty_fraction, 0.0, 1.0);
    const double dim = std::ldexp(1.0, std::clamp(qubits, 0, 40));
    // A faulty trial replays ~half the circuit on average (prefix
    // checkpoints skip the clean prefix); a fault-free trial costs one
    // sampling scan. Every trial pays its per-site Bernoulli draws,
    // proxied by the gate count.
    const double faulty_ops = 0.5 * replayOps(qubits, gates) + 2.0 * dim;
    const double clean_ops = 2.0 * dim;
    const double draw_ops = 4.0 * std::max(gates, 0);
    const double per_trial = faulty_fraction * faulty_ops +
                             (1.0 - faulty_fraction) * clean_ops +
                             draw_ops;
    return std::max(chunk_trials, 0) * per_trial / c.ampOpsPerUs;
}

double
estimateCompileUs(const SchedCalib &c, int qubits, int gates_2q,
                  int gates)
{
    // Mapper work scales with interacting pairs x device placements
    // (~gates_2q x qubits^2); routing/translation with total gates.
    const double q = std::max(qubits, 1);
    const double ops = 3000.0 * std::max(gates, 0) +
                       250.0 * std::max(gates_2q, 0) * q * q;
    return ops / c.ampOpsPerUs;
}

} // namespace triq
