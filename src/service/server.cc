#include "service/server.hh"

#include <algorithm>
#include <cmath>
#include <future>
#include <iomanip>
#include <limits>
#include <sstream>

#include "common/diagnostics.hh"
#include "common/fault_injector.hh"
#include "common/logging.hh"
#include "common/resource.hh"
#include "common/sched.hh"
#include "core/compiler.hh"
#include "core/crash_report.hh"
#include "core/mapper.hh"
#include "device/machines.hh"
#include "lang/lower.hh"
#include "lang/qasm_parser.hh"
#include "service/cost_model.hh"
#include "service/sweep.hh"
#include "sim/executor.hh"
#include "workloads/benchmarks.hh"

namespace triq
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** Completed-latency ring size: enough for any loadgen campaign. */
constexpr size_t kLatencyRing = 1 << 16;

/**
 * The request's `id` member when a reply can echo it: a string, number
 * or bool. nullptr when absent or of any other kind.
 */
const JsonValue *
echoId(const JsonValue &rq)
{
    const JsonValue *id = rq.find("id");
    if (id && (id->isString() || id->isNumber() || id->isBool()))
        return id;
    return nullptr;
}

/** Writes the members an error carries beside its code and message. */
using ErrorExtra = std::function<void(JsonWriter &)>;

/**
 * {"id": ..., "ok": false, "error": {"code": ..., "message": ...,
 * extra members}}; the id is null when `rq` has none to echo.
 */
std::string
errorReply(const JsonValue &rq, const std::string &code,
           const std::string &message, const ErrorExtra &extra = nullptr)
{
    JsonWriter w;
    w.beginObject().key("id");
    if (const JsonValue *id = echoId(rq))
        w.value(*id);
    else
        w.null();
    w.key("ok").value(false);
    w.key("error").beginObject();
    w.key("code").value(code).key("message").value(message);
    if (extra)
        extra(w);
    w.endObject().endObject();
    return w.str();
}

/** Open a success reply: {"id": ... (when echoable), "ok": true, "op"}. */
void
beginOkReply(JsonWriter &w, const JsonValue &rq, const std::string &op)
{
    w.beginObject();
    if (const JsonValue *id = echoId(rq))
        w.key("id").value(*id);
    w.key("ok").value(true).key("op").value(op);
}

/** The id as plain text for crash-bundle tagging. */
std::string
idText(const JsonValue &rq)
{
    const JsonValue *id = rq.find("id");
    if (id && id->isString())
        return id->string;
    JsonWriter w;
    if (id && id->isNumber())
        w.value(id->number);
    return w.str();
}

/**
 * Internal signal: the pipeline glue already built the structured
 * error reply; unwind to execute() and send it as-is.
 */
struct ServerReplyError
{
    std::string reply;
};

/** Whole request numbers stay at or below 2^53, where doubles are exact. */
constexpr double kMaxWhole = 9007199254740992.0;

/**
 * The request's number `key`, or nullopt when it is absent. A value of
 * another JSON type, outside [lo, hi] (or (lo, hi] when `lo_open`), or
 * with a fraction when `whole` is refused with proto.bad-request naming
 * the field.
 */
std::optional<double>
requestNumber(const JsonValue &rq, const std::string &key, double lo,
              double hi, bool whole, bool lo_open = false)
{
    const JsonValue *v = rq.find(key);
    if (!v)
        return std::nullopt;
    if (v->isNumber() && (lo_open ? v->number > lo : v->number >= lo) &&
        v->number <= hi && (!whole || v->number == std::floor(v->number)))
        return v->number;
    std::ostringstream msg;
    msg << std::setprecision(17) << '"' << key << "\" must be "
        << (whole ? "a whole number" : "a number") << " in "
        << (lo_open ? '(' : '[') << lo << ", " << hi << "]";
    throw ServerReplyError{errorReply(rq, "proto.bad-request", msg.str())};
}

/** Percentile of an unsorted sample copy (nearest-rank). */
double
percentile(std::vector<double> sample, double p)
{
    if (sample.empty())
        return 0.0;
    size_t rank = static_cast<size_t>(p * (sample.size() - 1) + 0.5);
    rank = std::min(rank, sample.size() - 1);
    std::nth_element(sample.begin(), sample.begin() + rank, sample.end());
    return sample[rank];
}

/**
 * Memoized benchmark width for the submit-time memory prediction.
 * Building a benchmark circuit is cheap but not free (a Sup6x12d128 is
 * thousands of gates), and admission runs on the transport thread —
 * each accepted name is sized once per process. A name makeBenchmark
 * refuses throws its FatalError before it is memoized, so distinct bad
 * names cannot grow the memo; the worker refuses them as
 * input.invalid.
 */
int
benchQubits(const std::string &bench)
{
    static std::mutex m;
    static std::map<std::string, int> memo;
    std::lock_guard<std::mutex> lock(m);
    auto it = memo.find(bench);
    if (it != memo.end())
        return it->second;
    return memo.emplace(bench, makeBenchmark(bench).numQubits())
        .first->second;
}

} // namespace

// ---------------------------------------------------------------------
// Lifecycle.
// ---------------------------------------------------------------------

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)), envFaults_(FaultInjector::fromEnv())
{
    // triqd's flags check the same ranges.
    auto require = [](bool ok, const char *field, double value,
                      const char *range) {
        if (!ok)
            fatal("ServerConfig::", field, " = ", value, " is not ", range);
    };
    require(cfg_.workers >= 1 && cfg_.workers <= kMaxThreads, "workers",
            cfg_.workers, "in [1, 256]");
    require(cfg_.queueCapacity >= 1, "queueCapacity", cfg_.queueCapacity,
            ">= 1");
    require(std::isfinite(cfg_.timeoutMs) && cfg_.timeoutMs > 0.0,
            "timeoutMs", cfg_.timeoutMs, "a finite number > 0");
    require(std::isfinite(cfg_.drainMs) && cfg_.drainMs >= 0.0, "drainMs",
            cfg_.drainMs, "a finite number >= 0");
    require(std::isfinite(cfg_.drainHardMs) && cfg_.drainHardMs >= 0.0,
            "drainHardMs", cfg_.drainHardMs, "a finite number >= 0");
    require(cfg_.maxRequestBytes >= 1024, "maxRequestBytes",
            static_cast<double>(cfg_.maxRequestBytes), ">= 1024");
    require(std::isfinite(cfg_.budgetMs) && cfg_.budgetMs >= 0.0,
            "budgetMs", cfg_.budgetMs, "a finite number >= 0");
    require(cfg_.maxTrials >= 1, "maxTrials", cfg_.maxTrials, ">= 1");
    startTime_ = Clock::now();
    latencies_.reserve(1024);
}

Server::~Server()
{
    drain();
}

void
Server::start()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (started_)
        return;
    started_ = true;
    workers_.reserve(cfg_.workers);
    for (int i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

bool
Server::draining() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return drainRequested_;
}

// ---------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------

void
Server::submit(const std::string &client, std::string line, Respond respond)
{
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.received;
    }

    // Frame-size guard before any parsing: the cap bounds both parser
    // work and queue memory, so an oversized frame is rejected in O(1).
    if (static_cast<long>(line.size()) > cfg_.maxRequestBytes) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.failed;
        }
        respond(errorReply(
            JsonValue{}, "proto.oversized",
            "frame of " + std::to_string(line.size()) +
                " bytes exceeds the " +
                std::to_string(cfg_.maxRequestBytes) + "-byte limit"));
        return;
    }

    JsonParseResult parsed = parseJson(line);
    if (!parsed.ok) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.failed;
        // Released before respond below.
    }
    if (!parsed.ok) {
        respond(errorReply(JsonValue{}, "proto.parse",
                           parsed.error + " at byte " +
                               std::to_string(parsed.errorAt)));
        return;
    }
    if (!parsed.value.isObject()) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.failed;
        }
        respond(errorReply(parsed.value, "proto.bad-request",
                           "request frame must be a JSON object"));
        return;
    }

    const JsonValue &rq = parsed.value;
    std::string op = rq.getString("op");

    // Health and metrics answer inline, bypassing the queue: they must
    // stay responsive precisely when the queue is full or draining.
    if (op == "ping") {
        JsonWriter w;
        beginOkReply(w, rq, op);
        w.endObject();
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.completed;
        }
        respond(w.str());
        return;
    }
    if (op == "stats") {
        JsonWriter w;
        beginOkReply(w, rq, op);
        w.key("stats");
        stats().writeJson(w);
        w.endObject();
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.completed;
        }
        respond(w.str());
        return;
    }
    if (op != "compile" && op != "simulate") {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.failed;
        }
        respond(errorReply(rq, "proto.bad-request",
                           op.empty()
                               ? "request has no \"op\" member"
                               : "unknown op '" + op + "'"));
        return;
    }

    // Predictive admission (the resource governor's front door): a
    // simulate request whose state memory provably cannot fit the
    // budget — even in the executor's smallest plan, one state — is
    // refused *now*, before it occupies a queue slot or a worker.
    // The daemon keeps serving; under-budget requests are unaffected.
    // The simulator runs on the *compacted* mapped register, whose
    // width is at least the benchmark's and at most the device's, so
    // the benchmark width (capped by the device) is the optimistic
    // estimate that never falsely rejects — the executor's own
    // reservation enforces the truth for whatever routing adds.
    // Unknown devices, unknown benchmarks and inline programs fall
    // through to the worker, which owns their structured replies (and,
    // for admitted-but-unaffordable runs, the sim.oom reply).
    if (op == "simulate") {
        int qubits = 0;
        try {
            const Device &dev = deviceByName(rq.getString("device", "IBMQ5"));
            qubits = std::min(benchQubits(rq.getString("bench")),
                              dev.numQubits());
        } catch (const FatalError &) {
        }
        if (qubits > 0) {
            AdmissionVerdict v = checkAdmission(qubits);
            if (!v.fits) {
                {
                    std::lock_guard<std::mutex> lock(statsMutex_);
                    ++counters_.budgetRejected;
                }
                respond(errorReply(
                    rq, "server.budget", v.reason, [&](JsonWriter &w) {
                        w.key("predicted_bytes").value(v.predictedBytes);
                        w.key("budget_bytes").value(v.budgetBytes);
                    }));
                return;
            }
        }
    }

    start();

    Pending p;
    try {
        p.timeoutMs =
            requestNumber(rq, "timeout_ms", 0, kMaxWhole, false, true)
                .value_or(cfg_.timeoutMs);
    } catch (const ServerReplyError &e) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.failed;
        }
        respond(e.reply);
        return;
    }
    p.request = std::move(parsed.value);
    p.client = client;
    p.respond = std::move(respond);
    p.enqueued = Clock::now();

    {
        std::unique_lock<std::mutex> lock(mutex_);
        if (drainRequested_) {
            lock.unlock();
            {
                std::lock_guard<std::mutex> slock(statsMutex_);
                ++counters_.cancelled;
            }
            p.respond(errorReply(p.request, "server.draining",
                                 "server is shutting down"));
            return;
        }
        if (queued_ >= cfg_.queueCapacity) {
            lock.unlock();
            {
                std::lock_guard<std::mutex> slock(statsMutex_);
                ++counters_.rejected;
            }
            p.respond(errorReply(
                p.request, "server.overloaded",
                "admission queue is full (" +
                    std::to_string(cfg_.queueCapacity) +
                    " requests); retry with backoff"));
            return;
        }
        queues_[client].push_back(std::move(p));
        ++queued_;
    }
    workReady_.notify_one();
}

std::string
Server::processLine(const std::string &client, const std::string &line)
{
    std::promise<std::string> done;
    std::future<std::string> reply = done.get_future();
    submit(client, line,
           [&done](std::string r) { done.set_value(std::move(r)); });
    return reply.get();
}

// ---------------------------------------------------------------------
// Fair scheduling.
// ---------------------------------------------------------------------

bool
Server::hasEligibleLocked() const
{
    for (const auto &[client, q] : queues_)
        if (!q.empty() && !activeClients_.count(client))
            return true;
    return false;
}

bool
Server::popNext(Pending &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    // A queued request is eligible only while its client has nothing in
    // flight: one client never occupies two workers at once, so a
    // pipelining client's replies come back in request order (the
    // protocol's within-client guarantee) while distinct clients still
    // execute concurrently.
    workReady_.wait(lock,
                    [this] { return stopping_ || hasEligibleLocked(); });
    if (!hasEligibleLocked())
        return false; // stopping

    // Round-robin across clients: resume after the client served last,
    // wrapping; within a client, FIFO. One chatty client therefore
    // interleaves 1:1 with every waiting neighbor.
    auto it = queues_.upper_bound(lastClient_);
    for (size_t step = 0; step <= queues_.size(); ++step, ++it) {
        if (it == queues_.end())
            it = queues_.begin();
        if (!it->second.empty() && !activeClients_.count(it->first))
            break;
    }
    if (it == queues_.end() || it->second.empty() ||
        activeClients_.count(it->first))
        panic("Server::popNext: eligible request vanished under the lock");
    out = std::move(it->second.front());
    it->second.pop_front();
    lastClient_ = it->first;
    activeClients_.insert(it->first);
    if (it->second.empty())
        queues_.erase(it);
    --queued_;
    ++active_;
    return true;
}

void
Server::finish(Pending &&p)
{
    std::string reply = execute(p);
    try {
        p.respond(std::move(reply));
    } catch (...) {
        // A respond callback that throws (dead socket) must not take
        // the worker down with it.
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --active_;
        activeClients_.erase(p.client);
    }
    // This client's next queued request (if any) just became eligible.
    workReady_.notify_all();
    idle_.notify_all();
}

void
Server::workerLoop()
{
    Pending p;
    while (popNext(p))
        finish(std::move(p));
}

void
Server::drain()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!started_) {
            drainRequested_ = true;
            return;
        }
        drainRequested_ = true;
    }

    // Phase 1: give queued work the drain window to finish.
    auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               cfg_.drainMs));
    {
        std::unique_lock<std::mutex> lock(mutex_);
        idle_.wait_until(lock, deadline, [this] {
            return queued_ == 0 && active_ == 0;
        });
    }

    // Phase 2: the deadline fired — cancel whatever is still queued.
    std::vector<Pending> cancelled;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (auto &[client, q] : queues_)
            for (Pending &p : q)
                cancelled.push_back(std::move(p));
        queues_.clear();
        queued_ = 0;
    }
    for (Pending &p : cancelled) {
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.cancelled;
        }
        try {
            p.respond(errorReply(p.request, "server.draining",
                                 "cancelled by shutdown drain"));
        } catch (...) {
        }
    }

    // Phase 3: wait out in-flight requests (normally bounded by their
    // budgets and trial caps) under the hard cap, then stop the
    // workers. The cap exists so a genuinely wedged request — a worker
    // stuck on an unbudgeted compile, say — cannot hang SIGTERM or the
    // destructor forever: past it the stuck workers are abandoned
    // (detached) with a warning and the process is expected to exit,
    // which is the only remaining way to reclaim them.
    bool all_idle;
    {
        auto hard =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   cfg_.drainHardMs));
        std::unique_lock<std::mutex> lock(mutex_);
        all_idle = idle_.wait_until(lock, hard,
                                    [this] { return active_ == 0; });
        stopping_ = true;
    }
    workReady_.notify_all();
    if (all_idle) {
        for (std::thread &t : workers_)
            t.join();
    } else {
        int stuck;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stuck = active_;
        }
        warn("Server::drain: ", stuck, " request(s) still in flight ",
             "after the ", cfg_.drainHardMs,
             " ms hard cap; abandoning worker threads (exit to reclaim)");
        for (std::thread &t : workers_)
            t.detach();
    }
    workers_.clear();
}

// ---------------------------------------------------------------------
// Execution.
// ---------------------------------------------------------------------

std::string
Server::execute(const Pending &p)
{
    double waited_ms = msSince(p.enqueued);
    if (waited_ms > p.timeoutMs) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.timeouts;
        return errorReply(p.request, "server.timeout",
                          "request waited " + std::to_string(waited_ms) +
                              " ms in queue (timeout " +
                              std::to_string(p.timeoutMs) + " ms)");
    }

    // The bundle context fills in as the request resolves (bench name,
    // post-injection program text, calibration); on panic whatever was
    // reached is what gets dumped.
    CrashBundle crash;
    crash.requestId = idText(p.request);

    try {
        std::string reply = executeCompileOrSimulate(p, crash);
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.completed;
        }
        recordLatency(msSince(p.enqueued));
        return reply;
    } catch (const ServerReplyError &e) {
        // Structured refusal from inside the pipeline glue.
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.failed;
        return e.reply;
    } catch (const FatalError &e) {
        std::lock_guard<std::mutex> lock(statsMutex_);
        ++counters_.failed;
        return errorReply(p.request, "input.invalid", e.what());
    } catch (const std::exception &e) {
        // PanicError or any other escape: a TriQ bug. Dump a bundle
        // tagged with the request id, answer structurally, keep
        // serving.
        crash.error = e.what();
        crash.envKnobs = captureTriqEnv();
        ErrorExtra extra;
        try {
            std::string dir = resolveCrashDir(
                cfg_.crashDir.empty() ? defaultCrashDir()
                                      : cfg_.crashDir);
            crash.write(dir);
            extra = [dir](JsonWriter &w) { w.key("crash_dir").value(dir); };
            warn("triqd: request ",
                 crash.requestId.empty() ? std::string("<no id>")
                                         : crash.requestId,
                 " panicked; crash report written to '", dir, "/'");
        } catch (...) {
            extra = nullptr; // never let bundle I/O take the worker down
        }
        {
            std::lock_guard<std::mutex> lock(statsMutex_);
            ++counters_.crashes;
        }
        return errorReply(p.request, "internal.panic", e.what(), extra);
    }
}

std::string
Server::executeCompileOrSimulate(const Pending &p, CrashBundle &crash)
{
    const JsonValue &rq = p.request;
    const std::string op = rq.getString("op");
    auto refuse = [&](const std::string &code, const std::string &msg,
                      const ErrorExtra &extra = nullptr) {
        return ServerReplyError{errorReply(rq, code, msg, extra)};
    };

    // Fault injector: a request can arm its own (the loadgen fault
    // mode), else a fresh copy of the daemon-wide TRIQ_FAULT one.
    FaultInjector inj = envFaults_;
    if (const JsonValue *fault = rq.find("fault")) {
        if (!fault->isString())
            throw refuse("proto.bad-request",
                         "\"fault\" must be a string of fault classes");
        FaultInjector::Classes classes;
        std::string error =
            FaultInjector::parseClasses(fault->string, classes);
        if (!error.empty())
            throw refuse("proto.bad-request", "\"fault\": " + error);
        const double fault_seed =
            requestNumber(rq, "fault_seed", 0, kMaxWhole, true).value_or(1);
        inj = FaultInjector(classes, static_cast<uint64_t>(fault_seed));
    }

    // Program front end: a study benchmark by name or inline source.
    Circuit program;
    std::string display;
    const std::string bench = rq.getString("bench");
    const JsonValue *prog = rq.find("program");
    if (!bench.empty() && prog)
        throw refuse("proto.bad-request",
                     "request has both \"bench\" and \"program\"");
    if (!bench.empty()) {
        crash.benchName = bench;
        display = bench;
        program = makeBenchmark(bench); // FatalError: input.invalid
    } else if (prog) {
        if (!prog->isString())
            throw refuse("proto.bad-request",
                         "\"program\" must be a string of source text");
        bool qasm =
            rq.getBool("qasm", false) || rq.getString("lang") == "qasm";
        std::string text =
            inj.armsText() ? inj.corruptText(prog->string) : prog->string;
        crash.programText = text;
        crash.hasProgram = true;
        crash.qasm = qasm;
        display = "<program>";
        Diagnostics diags(qasm ? "qasm" : "scaff");
        program = qasm ? parseOpenQasm(text, diags)
                       : compileScaffLite(text, diags);
        if (diags.hasErrors())
            throw refuse("input.parse",
                         "program has " +
                             std::to_string(diags.errorCount()) +
                             " error(s)",
                         [&](JsonWriter &w) {
                             w.key("diagnostics");
                             diags.writeJson(w);
                         });
    } else {
        throw refuse("proto.bad-request",
                     op + " needs a \"bench\" name or \"program\" source");
    }

    // Device and calibration day. An unknown device, level or mapper
    // name is a bad request, not bad input.
    const Device *dev = nullptr;
    try {
        dev = &deviceByName(rq.getString("device", "IBMQ5"));
    } catch (const FatalError &e) {
        throw refuse("proto.bad-request", e.what());
    }
    crash.device = dev->name();
    if (program.numQubits() > dev->numQubits())
        throw refuse("input.too-large",
                     display + " needs " +
                         std::to_string(program.numQubits()) +
                         " qubits but " + dev->name() + " has " +
                         std::to_string(dev->numQubits()));

    const int day = static_cast<int>(
        requestNumber(rq, "day", 0, std::numeric_limits<int>::max(), true)
            .value_or(0));
    crash.day = day;
    Calibration calib = dev->calibrate(day);
    if (inj.armsCalibration())
        injectCalibrationFaults(calib, inj);
    crash.calibration = calib;
    crash.hasCalibration = true;

    // Compile options.
    CompileOptions opts;
    const std::string level = rq.getString("level", "cn");
    const std::string mapper = rq.getString("mapper", "bnb");
    try {
        opts.level = optLevelFromToken(level);
        opts.mapping.kind = mapperKindFromString(mapper);
    } catch (const FatalError &e) {
        throw refuse("proto.bad-request", e.what());
    }
    crash.level = level;
    crash.mapper = mapper;
    opts.peephole = rq.getBool("peephole", false);
    opts.strictCalibration = rq.getBool("strict_calibration", false);
    crash.peephole = opts.peephole;
    crash.strictCalibration = opts.strictCalibration;
    // 0 compiles unbudgeted.
    const double budget_ms =
        requestNumber(rq, "budget_ms", 0, kMaxWhole, false)
            .value_or(cfg_.budgetMs);
    if (budget_ms > 0.0) {
        opts.budget = CompileBudget::withDeadlineMs(budget_ms);
        crash.budgetMs = budget_ms;
    }

    // The deterministic synthetic crash (TRIQ_FAULT=panic or a request
    // "fault":"panic"): exercises the bundle-dump + keep-serving path.
    if (inj.armsPanic())
        panic("synthetic fault-injection panic (fault class 'panic')");

    // Compile through the hot process-wide cache. A budget-armed
    // compile bypasses it (determinism contract), which
    // compileThroughCache handles internally.
    CachedCompile cc =
        compileThroughCache(&cache_, program, *dev, day, calib, opts,
                            requestNumber(rq, "drift", 0, 1, false));

    JsonWriter w;
    beginOkReply(w, rq, op);
    w.key("bench").value(display);
    w.key("device").value(dev->name()).key("day").value(day);
    w.key("level").value(level);
    w.key("source").value(cellSourceName(cc.source));
    w.key("fingerprint").value(cc.fingerprint.str());
    w.key("esp").value(cc.esp);
    w.key("esp_at_compile").value(cc.espAtCompile);
    w.key("swaps").value(cc.result->swapCount);
    w.key("two_q").value(cc.result->stats.twoQ);
    w.key("pulses_1q").value(cc.result->stats.pulses1q);
    w.key("compile_ms").value(cc.result->compileMs);
    w.key("degraded").value(cc.result->report.degraded);
    w.key("deadline_hit").value(cc.result->report.deadlineHit);
    // Mapper-search observability: lets clients (and the loadgen
    // report) see engine fallbacks and search-effort regressions in
    // production traffic, not just in benches. Cache/drift-reused
    // artifacts carry the search stats of the compile that produced
    // them.
    const CompileReport &rep = cc.result->report;
    w.key("mapper_engine").value(rep.mapperEngine);
    w.key("mapper_nodes").value(rep.mapperNodes);
    w.key("mapper_optimal").value(rep.mapperOptimal);
    w.key("mapper_bound_pruned").value(rep.mapperBoundPruned);
    w.key("mapper_symmetry_pruned").value(rep.mapperSymmetryPruned);
    w.key("mapper_dominance_pruned").value(rep.mapperDominancePruned);
    w.key("mapper_warm_start").value(rep.mapperWarmStarted);
    if (rq.getBool("assembly", false))
        w.key("assembly").value(cc.result->assembly);

    if (op == "simulate") {
        const int trials = static_cast<int>(std::min<double>(
            requestNumber(rq, "trials", 1, kMaxWhole, true).value_or(1000),
            cfg_.maxTrials));
        const uint64_t seed = static_cast<uint64_t>(
            requestNumber(rq, "seed", 0, kMaxWhole, true).value_or(12345));
        crash.trials = trials;
        crash.seed = seed;
        // Serial per request (the ExecOptions and CrashBundle default):
        // the server's own workers already run requests concurrently.
        ExecutionResult run;
        try {
            run = executeNoisy(cc.result->hwCircuit, *dev, calib, trials,
                               seed);
        } catch (const ResourceError &e) {
            // Predicted-overrun refusal or a translated bad_alloc from
            // inside the simulator: a resource outcome, not a TriQ bug
            // — answer structurally, no crash bundle, keep serving.
            throw refuse("sim.oom", e.what(), [&](JsonWriter &w) {
                w.key("attempted_bytes").value(e.attemptedBytes);
                w.key("budget_bytes").value(e.budgetBytes);
            });
        }
        w.key("trials").value(run.trials);
        w.key("success_rate").value(run.successRate);
        w.key("correct_is_modal").value(run.correctIsModal);
        w.key("sim_esp").value(run.esp);
        w.key("no_error_prob").value(run.noErrorProb);
        w.key("trajectories").value(run.simulatedTrajectories);
    }
    w.endObject();
    return w.str();
}

void
Server::recordLatency(double ms)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    ++counters_.latencyCount;
    if (latencies_.size() < kLatencyRing) {
        latencies_.push_back(ms);
    } else {
        latencies_[latencyNext_] = ms;
        latencyNext_ = (latencyNext_ + 1) % kLatencyRing;
    }
}

ServerStats
Server::stats() const
{
    int queue_depth, active;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_depth = queued_;
        active = active_;
    }
    ServerStats out;
    std::vector<double> sample;
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        out = counters_;
        sample = latencies_;
    }
    out.queueDepth = queue_depth;
    out.active = active;
    out.uptimeMs = msSince(startTime_);
    out.p50Ms = percentile(sample, 0.50);
    out.p99Ms = percentile(sample, 0.99);
    out.maxMs = sample.empty()
                    ? 0.0
                    : *std::max_element(sample.begin(), sample.end());
    out.cache = cache_.stats();
    return out;
}

void
ServerStats::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.key("uptime_ms").value(uptimeMs);
    w.key("received").value(received);
    w.key("completed").value(completed);
    w.key("failed").value(failed);
    w.key("rejected").value(rejected);
    w.key("budget_rejected").value(budgetRejected);
    w.key("timeouts").value(timeouts);
    w.key("cancelled").value(cancelled);
    w.key("crashes").value(crashes);
    w.key("queue_depth").value(queueDepth);
    w.key("active").value(active);
    w.key("latency_ms").beginObject();
    w.key("count").value(latencyCount);
    w.key("p50").value(p50Ms).key("p99").value(p99Ms);
    w.key("max").value(maxMs);
    w.endObject();
    w.key("cache").beginObject();
    w.key("lookups").value(cache.lookups).key("hits").value(cache.hits);
    w.key("misses").value(cache.misses);
    w.key("inserts").value(cache.inserts);
    w.key("evictions").value(cache.evictions);
    w.endObject();
    w.endObject();
}

} // namespace triq
