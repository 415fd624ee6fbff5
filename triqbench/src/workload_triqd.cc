/**
 * @file
 * `triqd`: the serving path — the only workload that exercises the
 * service layer (admission, fair queueing, wire format, compile cache).
 *
 * An in-process Server with its default config. One generator thread
 * (the benchmark thread) keeps 4 logical clients in a closed loop: each
 * client sends its next request when its reply arrives. Each client
 * runs a seeded script of fig07 compile and simulate requests (1000 to
 * 8192 trials) over its share of the 75 (program, device) pairs of the
 * 7 study devices, at levels c and cn, on a small
 * sliding window of calibration days: repeats are cache hits, new days
 * compile cold and insert, and some cn requests set `drift`, which
 * takes the drift-reuse or warm-start path.
 *
 * Clients own disjoint (benchmark, device) pairs, so no two clients
 * touch the same cache entries and every client's reply sequence is
 * deterministic however the server interleaves them. A pass runs every
 * client's script against a fresh Server, so every pass sees the same
 * cache misses and hits.
 */

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "core/esp.hh"
#include "device/machines.hh"
#include "harness.hh"
#include "metrics.hh"
#include "service/server.hh"
#include "workloads/benchmarks.hh"

using namespace triq;

namespace triqbench
{

namespace
{

constexpr int kClients = 4;


/** A client moves to a new calibration day every this many requests. */
constexpr int kRequestsPerDay = 12;

/** Replies re-derived with direct compile/execute calls per run. */
constexpr int kVerifySamples = 8;

/** One client's reply, as it arrived. */
struct Reply
{
    int client = 0;
    std::string body;
    Clock::time_point at;
};

/** Re-emit a JSON value without its timing members. */
void
canonical(const JsonValue &v, JsonWriter &w)
{
    switch (v.kind) {
      case JsonValue::Kind::Null:
        w.null();
        break;
      case JsonValue::Kind::Bool:
        w.value(v.boolean);
        break;
      case JsonValue::Kind::Number:
        w.value(v.number);
        break;
      case JsonValue::Kind::String:
        w.value(v.string);
        break;
      case JsonValue::Kind::Array:
        w.beginArray();
        for (const JsonValue &x : v.array)
            canonical(x, w);
        w.endArray();
        break;
      case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &[key, x] : v.members) {
            if (key == "compile_ms")
                continue;
            w.key(key);
            canonical(x, w);
        }
        w.endObject();
        break;
    }
}

/** What one pass produced. */
struct PassResult
{
    /** Per client, each request's latency in script order. */
    std::vector<std::vector<double>> latencyMs;
    /** Per client, the parsed replies in arrival order. */
    std::vector<std::vector<JsonValue>> replies;
    /** Per client, when each request was sent. */
    std::vector<std::vector<Clock::time_point>> sent;
    ServerStats stats;
};

} // namespace

Outcome
runTriqd(const RunConfig &cfg, Tracer &tracer)
{
    Outcome out;
    SeedRng rng(cfg.seed);

    // ---- Set-up: request scripts, then the first server.
    const std::vector<Device> devices = allStudyDevices();
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string &bench : benchmarkNames()) {
        int width = makeBenchmark(bench).numQubits();
        for (const Device &d : devices)
            if (width <= d.numQubits())
                pairs.emplace_back(bench, d.name());
    }
    shuffle(pairs, rng);
    const int first_day = rng.below(64);
    std::vector<std::vector<std::string>> scripts(kClients);
    std::vector<std::string> names(kClients);
    for (int c = 0; c < kClients; ++c) {
        names[c] = "client";
        names[c] += std::to_string(c);
        // Each pair of the client's share gets one compile and one
        // simulate request at each of levels c and cn, the two simulates
        // splitting 9192 trials between them, in a seeded order: every
        // pass asks for the same work whatever the seed.
        struct Ask
        {
            size_t pair;
            bool cn, simulate;
            int trials;
        };
        std::vector<Ask> asks;
        for (size_t k = c; k < pairs.size(); k += kClients) {
            int trials = 1000 + rng.below(8192 - 1000 + 1);
            asks.push_back({k, false, false, 0});
            asks.push_back({k, true, false, 0});
            asks.push_back({k, false, true, trials});
            asks.push_back({k, true, true, 9192 - trials});
        }
        shuffle(asks, rng);
        for (int j = 0; j < static_cast<int>(asks.size()); ++j) {
            const auto &[bench, device] = pairs[asks[j].pair];
            const bool cn = asks[j].cn;
            const bool simulate = asks[j].simulate;
            int day = first_day + j / kRequestsPerDay + rng.below(2);
            JsonWriter w;
            w.beginObject();
            w.key("id").value(names[c] + "-" + std::to_string(j));
            w.key("op").value(simulate ? "simulate" : "compile");
            w.key("bench").value(bench).key("device").value(device);
            w.key("level").value(cn ? "cn" : "c").key("day").value(day);
            if (simulate) {
                w.key("trials").value(asks[j].trials);
                w.key("seed").value(rng.below(1 << 20));
            }
            if (cn && rng.below(4) == 0)
                w.key("drift").value(0.05);
            w.endObject();
            scripts[c].push_back(w.str());
        }
    }
    size_t requests = 0;
    for (const auto &script : scripts)
        requests += script.size();
    std::optional<Server> server;
    server.emplace();
    server->start();
    out.setupS = setupSeconds(cfg);
    if (cfg.setupOnly)
        return out;

    // ---- One pass: every client's script, closed loop.
    std::mutex mutex;
    std::condition_variable arrived;
    std::deque<Reply> inbox;
    auto run_pass = [&](int pass_span) {
        if (!server)
            server.emplace();
        PassResult pr;
        pr.replies.resize(kClients);
        pr.latencyMs.resize(kClients);
        pr.sent.resize(kClients);
        auto send = [&](int c) {
            size_t j = pr.sent[c].size();
            pr.sent[c].push_back(Clock::now());
            server->submit(names[c], scripts[c][j],
                           [&, c](std::string body) {
                               Reply r{c, std::move(body), Clock::now()};
                               {
                                   std::lock_guard<std::mutex> lock(mutex);
                                   inbox.push_back(std::move(r));
                               }
                               arrived.notify_one();
                           });
        };
        for (int c = 0; c < kClients; ++c)
            send(c);
        int outstanding = kClients;
        while (outstanding > 0) {
            Reply r;
            {
                std::unique_lock<std::mutex> lock(mutex);
                arrived.wait(lock, [&] { return !inbox.empty(); });
                r = std::move(inbox.front());
                inbox.pop_front();
            }
            const int c = r.client;
            double ms = std::chrono::duration<double, std::milli>(
                            r.at - pr.sent[c].back())
                            .count();
            pr.latencyMs[c].push_back(ms);
            JsonParseResult parsed = parseJson(r.body);
            pr.replies[c].push_back(parsed.ok ? parsed.value : JsonValue{});
            if (tracer.enabled()) {
                double end = tracer.nowUs();
                tracer.record("service.request", end - ms * 1000.0, end,
                              pass_span, out.attempted + 1, c + 1);
            }
            ++out.attempted;
            if (pr.sent[c].size() < scripts[c].size())
                send(c);
            else
                --outstanding;
        }
        pr.stats = server->stats();
        server.reset(); // drains and joins the workers
        return pr;
    };

    // Check every reply of a pass and fold it into the digest text.
    std::vector<std::string> first_canon;
    auto check_pass = [&](const PassResult &pr) {
        std::vector<std::string> canon(kClients);
        for (int c = 0; c < kClients; ++c) {
            for (const JsonValue &v : pr.replies[c]) {
                if (!v.getBool("ok", false)) {
                    JsonWriter w;
                    canonical(v, w);
                    out.fail(names[c] + ": error reply " + w.str());
                }
                JsonWriter w;
                canonical(v, w);
                canon[c] += w.str() + "\n";
            }
        }
        if (first_canon.empty())
            first_canon = canon;
        else
            for (int c = 0; c < kClients; ++c)
                if (canon[c] != first_canon[c])
                    out.fail(names[c] +
                             ": replies differ from the first pass");
    };
    auto cold_compile_ms = [](const PassResult &pr, long *n = nullptr) {
        double sum = 0.0;
        for (const auto &client : pr.replies)
            for (const JsonValue &v : client)
                if (v.getString("source") == "compiled") {
                    sum += v.getNumber("compile_ms");
                    if (n)
                        ++*n;
                }
        return sum;
    };

    // ---- Timed, untraced phase: whole passes.
    const bool trace_setup = tracer.enabled();
    tracer.setEnabled(false);
    const double untraced_s = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
    // The speed gauge runs between passes, when no server thread is
    // alive; a pass's factor comes from the three samples before it and
    // the first two after it.
    PhaseClock clock;
    SpeedGauge gauge;
    auto sample3 = [&] {
        for (int i = 0; i < 3; ++i)
            gauge.sample();
        return gauge.samples() - 1;
    };
    std::vector<double> op_ms, pass_compile_ms, pass_wall_ms;
    std::vector<size_t> pass_sample;
    std::vector<PassResult> passes;
    do {
        pass_sample.push_back(sample3());
        auto t0 = Clock::now();
        PassResult pr = run_pass(-1);
        pass_wall_ms.push_back(msSince(t0));
        check_pass(pr);
        for (const std::vector<double> &client : pr.latencyMs)
            op_ms.insert(op_ms.end(), client.begin(), client.end());
        pass_compile_ms.push_back(cold_compile_ms(pr));
        if (passes.empty())
            passes.push_back(std::move(pr));
    } while (clock.elapsedS() < untraced_s);
    const double phase_s = clock.elapsedS();
    sample3();
    double busy_s = 0.0;
    for (size_t p = 0; p < pass_sample.size(); ++p) {
        const double factor = gauge.factorAt(pass_sample[p]);
        busy_s += pass_wall_ms[p] * factor / 1000.0;
        for (size_t k = p * requests; k < (p + 1) * requests; ++k)
            op_ms[k] *= factor;
    }
    reportLatency(out, op_ms, requests, busy_s, phase_s);
    out.info("compile_ms", median(pass_compile_ms), "ms");

    const PassResult &first = passes.front();
    std::vector<double> esps, successes;
    double two_q = 0.0, pulses = 0.0;
    Digest digest;
    for (const std::string &c : first_canon)
        digest.add(c);
    for (const auto &client : first.replies) {
        for (const JsonValue &v : client) {
            esps.push_back(v.getNumber("esp"));
            two_q += v.getNumber("two_q");
            pulses += v.getNumber("pulses_1q");
            if (v.getString("op") == "simulate")
                successes.push_back(v.getNumber("success_rate"));
        }
    }
    out.e2e("esp_geomean", geomeanPositive(esps), "ratio");
    out.e2e("twoq_gates", two_q, "count");
    out.e2e("pulses_1q", pulses, "count");
    out.info("success_geomean", geomeanPositive(successes), "ratio");
    out.digest = digest.hex();

    // ---- A seeded sample of replies must equal direct compile and
    // execute calls on the same request. Drift-reused and warm-started
    // artifacts are by design not what a cold compile gives; skip them.
    int verified = 0;
    for (int tries = 0; tries < 200 && verified < kVerifySamples; ++tries) {
        int c = rng.below(kClients);
        int j = rng.below(static_cast<int>(scripts[c].size()));
        const JsonValue &v = first.replies[c][j];
        if (v.getString("source") == "drift_reuse" ||
            v.getBool("mapper_warm_start", false))
            continue;
        ++verified;
        ++out.attempted;
        const JsonValue rq = parseJson(scripts[c][j]).value;
        const Device *dev = nullptr;
        for (const Device &d : devices)
            if (d.name() == rq.getString("device"))
                dev = &d;
        Circuit program = makeBenchmark(rq.getString("bench"));
        int day = static_cast<int>(rq.getNumber("day"));
        Calibration calib = dev->calibrate(day);
        CompileOptions opts;
        opts.level = rq.getString("level") == "cn" ? OptLevel::OneQOptCN
                                                   : OptLevel::OneQOptC;
        CompileResult cr = compileForDevice(program, *dev, calib, opts);
        bool same =
            v.getNumber("swaps") == cr.swapCount &&
            v.getNumber("two_q") == cr.stats.twoQ &&
            v.getNumber("pulses_1q") == cr.stats.pulses1q &&
            v.getNumber("esp") ==
                estimatedSuccessProbability(cr.hwCircuit, dev->topology(),
                                            calib);
        if (same && rq.getString("op") == "simulate") {
            ExecOptions eo;
            eo.threads = 1;
            eo.kernelThreads = 1;
            ExecutionResult run = executeNoisy(
                cr.hwCircuit, *dev, calib,
                static_cast<int>(rq.getNumber("trials")),
                static_cast<uint64_t>(rq.getNumber("seed")), eo);
            same = v.getNumber("trials") == run.trials &&
                   v.getNumber("success_rate") == run.successRate;
        }
        if (!same)
            out.fail("reply to " + scripts[c][j] +
                     " differs from a direct compile/execute");
    }
    if (verified < kVerifySamples) {
        ++out.attempted;
        out.fail("too few replies eligible for direct verification");
    }

    // ---- Traced phase: per-layer metrics.
    if (cfg.trace) {
        tracer.setEnabled(trace_setup);
        PhaseClock traced_clock;
        long traced_ops = 0, cold = 0, n_passes = 0;
        double cold_ms = 0.0;
        CompileCache::Stats cache;
        std::vector<double> p50s, p99s;
        long rejected = 0, timeouts = 0, budget = 0;
        do {
            PassResult pr;
            {
                Span pass(tracer, "bench.pass");
                pr = run_pass(pass.id());
            }
            check_pass(pr);
            ++n_passes;
            traced_ops += static_cast<long>(requests);
            cold_ms += cold_compile_ms(pr, &cold);
            cache.lookups += pr.stats.cache.lookups;
            cache.hits += pr.stats.cache.hits;
            cache.inserts += pr.stats.cache.inserts;
            cache.evictions += pr.stats.cache.evictions;
            cache.driftChecks += pr.stats.cache.driftChecks;
            cache.driftReuses += pr.stats.cache.driftReuses;
            p50s.push_back(pr.stats.p50Ms);
            p99s.push_back(pr.stats.p99Ms);
            rejected += pr.stats.rejected;
            timeouts += pr.stats.timeouts;
            budget += pr.stats.budgetRejected;
            // The server calibrates on every request; time that call
            // here, outside the op clock.
            auto td = Clock::now();
            for (const Device &d : devices) {
                Span s(tracer, "device.calibrate");
                d.calibrate(first_day);
            }
            traced_clock.exclude(msSince(td));
        } while (traced_clock.elapsedS() < cfg.seconds / 2);
        auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
        out.layer("service.cache_hit_ratio",
                  ratio(cache.hits, cache.lookups), "ratio");
        out.layer("service.cache_inserts",
                  ratio(cache.inserts, n_passes), "count");
        out.layer("service.cache_evictions",
                  ratio(cache.evictions, n_passes), "count");
        out.layer("service.drift_reuse_ratio",
                  ratio(cache.driftReuses, cache.driftChecks), "ratio");
        out.layer("service.compile_ms_cold", ratio(cold_ms, cold), "ms");
        out.layer("service.server_ms_p50", median(p50s), "ms");
        out.layer("service.server_ms_p99", median(p99s), "ms");
        out.layer("service.rejected", rejected, "count");
        out.layer("service.timeouts", timeouts, "count");
        out.layer("service.budget_rejected", budget, "count");
        out.layer("bench.trace_overhead_ratio",
                  (traced_ops / traced_clock.elapsedS()) /
                      (op_ms.size() / phase_s),
                  "ratio");
    }
    return out;
}

} // namespace triqbench
