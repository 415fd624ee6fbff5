/**
 * @file
 * The triqd request engine: a long-lived compile-and-simulate service
 * wrapped in production armor (see DESIGN.md, "triqd server").
 *
 * quilc ships its industrial-strength compiler as a persistent daemon
 * because cold start dominates interactive use; this is the same shape
 * for TriQ. One Server owns the process-wide CompileCache and drives
 * requests through the existing hardened pipeline (budgets, calibration
 * sanitization, structured diagnostics, crash bundles), adding what a
 * one-shot CLI cannot have:
 *
 *  - Admission control: a bounded queue (ServerConfig::queueCapacity).
 *    A request arriving at a full queue is rejected *immediately* with
 *    a structured `server.overloaded` error — overload sheds load, it
 *    never builds an unbounded backlog.
 *  - Fair queueing: queued requests are grouped per client and workers
 *    pop them round-robin across clients, so one client streaming a
 *    thousand compiles cannot starve an interactive neighbor. At most
 *    one request per client is ever in flight, which is what makes the
 *    per-client reply-ordering guarantee below hold with many workers.
 *  - Timeouts: a request that waited in the queue past its deadline
 *    (request `timeout_ms`, default ServerConfig::timeoutMs) is
 *    answered with `server.timeout` instead of being run pointlessly.
 *  - Graceful degradation: every failure mode is a one-line JSON error
 *    reply, never a dead connection or a dead daemon. PanicErrors
 *    (TriQ bugs) additionally dump a crash-report bundle tagged with
 *    the request id, then the daemon keeps serving.
 *  - Graceful drain: drain() stops admission, lets in-flight work
 *    finish, cancels whatever is still queued when the drain deadline
 *    (ServerConfig::drainMs) fires, and leaves the metrics readable.
 *    A second, generous hard cap (ServerConfig::drainHardMs) bounds
 *    even a wedged in-flight request, so SIGTERM always terminates.
 *
 * The engine is transport-free: submit() takes a raw frame plus a
 * respond callback, so the same code serves a Unix socket (triqd), a
 * stdin/stdout pipe (triqd --stdio) and the in-process test suites.
 *
 * Protocol: newline-delimited JSON, one request per line, one reply
 * line per request (correlate by `id` — replies may be reordered
 * across clients, never within one client's serial request stream).
 *
 *   {"id":"r1","op":"compile","bench":"BV4","device":"IBMQ5",
 *    "level":"cn","day":3}
 *   {"id":"r2","op":"simulate","bench":"QFT","device":"UMDTI",
 *    "trials":500,"seed":7}
 *   {"id":"r3","op":"stats"}
 *   {"id":"r4","op":"ping"}
 *
 * compile and simulate requests may add `drift`: a cn request whose
 * exact key misses reuses the newest compilation of the same program,
 * device and options when its predicted ESP under the request's day
 * lost at most that fraction (reply `source` "drift_reuse"); past it
 * the request recompiles, warm-started from the stale placement.
 * Without `drift` only exact keys hit. Numbers are checked, never
 * cast: `day` is a whole number in [0, 2^31 - 1]; `trials` one in
 * [1, 2^53], then clamped to maxTrials; `seed` and `fault_seed` ones in
 * [0, 2^53]; `drift` a number in [0, 1]; `timeout_ms` one in (0, 2^53];
 * and `budget_ms` one in [0, 2^53], where 0 compiles unbudgeted. A
 * value of another JSON type, with a fraction where a whole number
 * belongs, or out of range is refused with proto.bad-request naming
 * the field. So is an unknown `device`, `level` or `mapper`; an
 * unknown `bench` is input.invalid. A request may arm its own fault
 * injector with `fault`, a comma list of fault classes in the grammar
 * TRIQ_FAULT takes (FaultInjector::parseClasses), seeded by
 * `fault_seed`; an unknown class is proto.bad-request naming `fault`.
 * No refusal writes to the daemon's stderr: the reply carries it.
 *
 * Reply: {"id": "r1", "ok": true, ...} or
 *        {"id": "r1", "ok": false, "error": {"code": "...",
 *         "message": "..."}}.
 * Every reply is built whole through JsonWriter (common/json.hh), so
 * it is well-formed JSON by construction; the `id` is re-emitted from
 * the parsed request, so a UTF-8 id comes back as the id sent.
 *
 * Error taxonomy (stable codes, see DESIGN.md for the full table):
 *   proto.parse proto.oversized proto.bad-request   — bad frames
 *   input.parse input.invalid input.too-large       — bad programs/data
 *   server.overloaded server.timeout server.draining — load shedding
 *   server.budget — predictive admission: the request's simulation
 *     state provably cannot fit TRIQ_MEM_BUDGET even in the executor's
 *     degraded low-memory plan (+ predicted_bytes / budget_bytes); the
 *     daemon keeps serving everyone else
 *   sim.oom — the admitted simulation still could not get its memory
 *     (reservation refused mid-flight, or the allocator failed); a
 *     structured resource outcome (+ attempted_bytes / budget_bytes),
 *     never an abort
 *   internal.panic                                  — a TriQ bug
 *     (+ crash_dir: the replayable bundle, tagged with the request id)
 */

#ifndef TRIQ_SERVICE_SERVER_HH
#define TRIQ_SERVICE_SERVER_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injector.hh"
#include "common/json.hh"
#include "service/compile_cache.hh"

namespace triq
{

struct CrashBundle;

/**
 * triqd's settings, each with its default. The Server constructor
 * refuses a field outside its range with FatalError; triqd's flags
 * check the same ranges.
 */
struct ServerConfig
{
    /** Worker threads executing requests, in [1, kMaxThreads]. */
    int workers = 2;

    /**
     * Max requests queued across all clients (>= 1). Arrivals past the
     * cap are rejected immediately.
     */
    int queueCapacity = 64;

    /**
     * Queue-wait deadline in ms (> 0). A request may override it down
     * or up with `timeout_ms`.
     */
    double timeoutMs = 10000.0;

    /**
     * Drain deadline in ms (>= 0): how long drain() waits for queued
     * work before cancelling it.
     */
    double drainMs = 2000.0;

    /**
     * Hard in-flight cap in ms (>= 0): after cancelling queued work,
     * how long drain() waits for in-flight requests before abandoning
     * their workers. In-flight work is normally bounded by budgets and
     * trial caps, so this only fires for a genuinely wedged request —
     * it guarantees SIGTERM terminates the daemon regardless.
     */
    double drainHardMs = 30000.0;

    /** Frame size cap in bytes (>= 1024). */
    long maxRequestBytes = 1 << 20;

    /**
     * Default per-request compile budget in ms (>= 0; 0 = unlimited).
     * Armed budgets make the pipeline anytime but bypass the compile
     * cache (the determinism contract), so the default favors cache
     * heat; requests can arm one with `budget_ms`.
     */
    double budgetMs = 0.0;

    /** Trial cap for simulate requests (>= 1). */
    int maxTrials = 65536;

    /** Crash-bundle directory base ("" = triq-crash-<pid>). */
    std::string crashDir;
};

/** A point-in-time metrics snapshot (the `stats` reply body). */
struct ServerStats
{
    long received = 0;   //!< Frames submitted (any outcome).
    long completed = 0;  //!< Requests answered ok:true.
    long failed = 0;     //!< Structured error replies (bad input etc.).
    long rejected = 0;   //!< server.overloaded admissions.
    long budgetRejected = 0; //!< server.budget admissions (cost model).
    long timeouts = 0;   //!< server.timeout replies.
    long cancelled = 0;  //!< server.draining replies.
    long crashes = 0;    //!< internal.panic replies (bundles written).
    int queueDepth = 0;  //!< Requests currently queued.
    int active = 0;      //!< Requests currently executing.
    double uptimeMs = 0.0;

    /** Completed-request latency distribution (admission to reply). */
    long latencyCount = 0;
    double p50Ms = 0.0;
    double p99Ms = 0.0;
    double maxMs = 0.0;

    CompileCache::Stats cache;

    /** The `stats` reply body: one JSON object. */
    void writeJson(JsonWriter &w) const;
};

/** The transport-free triqd engine. */
class Server
{
  public:
    /** Callback delivering one reply line (no trailing newline). */
    using Respond = std::function<void(std::string)>;

    explicit Server(ServerConfig cfg = {});

    /** Drains (cancelling queued work) and joins the workers. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Spawn the worker threads. Idempotent; submit() calls it. */
    void start();

    /**
     * Submit one frame from `client` (any stable connection name; the
     * fairness unit). `respond` is invoked exactly once with the reply
     * line — inline for admission rejections, ping, stats and parse
     * errors; from a worker thread for queued work. Thread-safe.
     */
    void submit(const std::string &client, std::string line,
                Respond respond);

    /** Synchronous submit-and-wait (tests and the stdio transport). */
    std::string processLine(const std::string &client,
                            const std::string &line);

    /**
     * Stop admitting, finish in-flight and queued work within the
     * drain deadline, cancel the rest with `server.draining` replies,
     * then stop the workers. Idempotent; safe from signal-driven
     * shutdown paths (not from a worker thread).
     */
    void drain();

    /** True once drain() has begun; new submissions are cancelled. */
    bool draining() const;

    ServerStats stats() const;

    const ServerConfig &config() const { return cfg_; }

    /** The hot process-wide artifact memo this server owns. */
    CompileCache &cache() { return cache_; }

  private:
    struct Pending
    {
        JsonValue request;
        std::string client;
        Respond respond;
        std::chrono::steady_clock::time_point enqueued;
        double timeoutMs = 0.0;
    };

    void workerLoop();
    bool popNext(Pending &out);
    void finish(Pending &&p);

    /** Any queued request whose client has nothing in flight? (locked) */
    bool hasEligibleLocked() const;

    /** Execute one admitted request; returns the reply line. */
    std::string execute(const Pending &p);

    /**
     * The compile/simulate pipeline glue. `crash` accumulates replay
     * context (post-injection program text, calibration, options) as
     * the request resolves; execute() dumps it if this panics.
     */
    std::string executeCompileOrSimulate(const Pending &p,
                                         CrashBundle &crash);

    void recordLatency(double ms);

    ServerConfig cfg_;
    CompileCache cache_;

    /**
     * The TRIQ_FAULT injector, read once. A request that arms no
     * `fault` of its own runs on a fresh copy, so its faults depend on
     * the seed alone, not on the requests before it.
     */
    const FaultInjector envFaults_;

    mutable std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable idle_;
    /** Per-client FIFO queues; fairness iterates round-robin. */
    std::map<std::string, std::deque<Pending>> queues_;
    /**
     * Clients with a request in flight. popNext skips them, so one
     * client never runs on two workers at once — the protocol's
     * within-client reply ordering depends on it.
     */
    std::set<std::string> activeClients_;
    /** Round-robin cursor: the client served last. */
    std::string lastClient_;
    int queued_ = 0;
    int active_ = 0;
    bool started_ = false;
    bool drainRequested_ = false;
    bool stopping_ = false;
    std::vector<std::thread> workers_;

    std::chrono::steady_clock::time_point startTime_;

    mutable std::mutex statsMutex_;
    ServerStats counters_;
    std::vector<double> latencies_; //!< Ring buffer, newest overwrite.
    size_t latencyNext_ = 0;
};

} // namespace triq

#endif // TRIQ_SERVICE_SERVER_HH
