/**
 * @file
 * triq-loadgen: drive a live triqd through the fig07 benchmark set at
 * configurable concurrency and measure what the paper's evaluation
 * loop would see from a shared compile service: throughput, latency
 * percentiles, cache hit rate, and how the daemon behaves under abuse.
 *
 * Usage:
 *   triq-loadgen --socket PATH [options]
 *
 * Options:
 *   --clients N      concurrent connections (default 4)
 *   --reps R         passes over the benchmark set per client (def. 2)
 *   --op OP          compile | simulate (default compile)
 *   --trials T       trials per simulate request (default 200)
 *   --device NAME    target machine (default IBMQ14 — fits the set)
 *   --fault          fault mode: deterministically interleave
 *                    malformed frames, mid-stream disconnects and
 *                    strict-mode calibration faults into the replay
 *   --timeout-ms T   per-reply read deadline (default 60000)
 *   -o, --json FILE  metrics report (default BENCH_server.json)
 *
 * Every frame sent must come back as one well-formed JSON reply line —
 * including the deliberately broken ones, which must earn a structured
 * error, not a hangup. Any unanswered frame, malformed reply or
 * unplanned disconnect is a transport error and fails the run (exit 1);
 * the daemon surviving the whole campaign is the robustness contract
 * under test.
 */

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "workloads/benchmarks.hh"

namespace triq
{
namespace
{

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string socketPath;
    int clients = 4;
    int reps = 2;
    std::string op = "compile";
    int trials = 200;
    std::string device = "IBMQ14";
    bool fault = false;
    double timeoutMs = 60000.0;
    std::string outPath = "BENCH_server.json";
};

/** One blocking line-oriented connection to the daemon. */
class LineClient
{
  public:
    ~LineClient() { closeFd(); }

    bool
    connectTo(const std::string &path)
    {
        closeFd();
        fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd_ < 0)
            return false;
        sockaddr_un addr = {};
        addr.sun_family = AF_UNIX;
        if (path.size() >= sizeof(addr.sun_path))
            return false;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                    sizeof(addr)) != 0) {
            closeFd();
            return false;
        }
        buffer_.clear();
        return true;
    }

    void
    closeFd()
    {
        if (fd_ >= 0)
            close(fd_);
        fd_ = -1;
    }

    bool
    sendLine(const std::string &line)
    {
        std::string framed = line + "\n";
        size_t off = 0;
        while (off < framed.size()) {
            ssize_t n =
                write(fd_, framed.data() + off, framed.size() - off);
            if (n <= 0) {
                if (n < 0 && errno == EINTR)
                    continue;
                return false;
            }
            off += static_cast<size_t>(n);
        }
        return true;
    }

    /** Read one reply line; false on timeout or disconnect. */
    bool
    readLine(std::string &out, double timeout_ms)
    {
        auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   timeout_ms));
        for (;;) {
            size_t nl = buffer_.find('\n');
            if (nl != std::string::npos) {
                out = buffer_.substr(0, nl);
                buffer_.erase(0, nl + 1);
                return true;
            }
            double left = std::chrono::duration<double, std::milli>(
                              deadline - Clock::now())
                              .count();
            if (left <= 0.0)
                return false;
            pollfd pfd = {fd_, POLLIN, 0};
            int pr = poll(&pfd, 1, static_cast<int>(left) + 1);
            if (pr < 0 && errno == EINTR)
                continue;
            if (pr <= 0)
                return false;
            char buf[65536];
            ssize_t n = read(fd_, buf, sizeof(buf));
            if (n <= 0)
                return false;
            buffer_.append(buf, static_cast<size_t>(n));
        }
    }

  private:
    int fd_ = -1;
    std::string buffer_;
};

/** Per-client campaign outcome, merged at the end. */
struct ClientResult
{
    long sent = 0;           //!< Frames sent (incl. malformed ones).
    long ok = 0;             //!< ok:true replies.
    long errors = 0;         //!< ok:false structured replies.
    long rejected = 0;       //!< ... of which server.overloaded.
    long transportErrors = 0; //!< Unanswered / unparseable / hangup.
    long disconnects = 0;    //!< Planned mid-stream disconnects.
    std::vector<double> latencies; //!< ms, answered frames only.
};

/**
 * A deliberately malformed frame, cycled deterministically: truncated
 * JSON, raw garbage, an unterminated string, and a non-object.
 */
std::string
malformedFrame(long k)
{
    switch (k % 4) {
      case 0:
        return "{\"id\":\"bad\",\"op\":\"compile\"";
      case 1:
        return "\x01\x02garbage\xff not json";
      case 2:
        return "{\"id\":\"bad\",\"op\":\"comp";
      default:
        return "[1,2,3]";
    }
}

void
runClient(const Options &opt, int client_index, ClientResult &res)
{
    const std::vector<std::string> &benches = benchmarkNames();
    LineClient conn;
    if (!conn.connectTo(opt.socketPath)) {
        warn("triq-loadgen: client ", client_index, ": cannot connect to '",
             opt.socketPath, "'");
        ++res.transportErrors;
        return;
    }

    long seq = 0;
    for (int rep = 0; rep < opt.reps; ++rep) {
        for (size_t bi = 0; bi < benches.size(); ++bi, ++seq) {
            // Fault schedule (deterministic, coprime strides so the
            // classes interleave): every 7th frame is malformed, every
            // 11th is a strict-mode calibration fault, every 17th
            // drops the connection first.
            bool send_malformed = opt.fault && seq % 7 == 3;
            bool calib_fault = opt.fault && seq % 11 == 5;
            bool drop_first = opt.fault && seq % 17 == 9;

            if (drop_first) {
                conn.closeFd();
                ++res.disconnects;
                if (!conn.connectTo(opt.socketPath)) {
                    ++res.transportErrors;
                    return;
                }
            }

            std::string id = "c" + std::to_string(client_index) + "-" +
                             std::to_string(seq);
            std::string frame;
            if (send_malformed) {
                frame = malformedFrame(seq);
            } else {
                JsonWriter w;
                w.beginObject();
                w.key("id").value(id);
                w.key("op").value(opt.op);
                w.key("bench").value(benches[bi]);
                w.key("device").value(opt.device);
                w.key("day").value(static_cast<int>(seq % 3));
                if (opt.op == "simulate") {
                    w.key("trials").value(opt.trials);
                    w.key("seed").value(
                        static_cast<double>(1000 + seq));
                }
                if (calib_fault) {
                    // Deterministically corrupt the calibration and
                    // demand strict handling: the daemon must answer
                    // with a structured input error, never crash.
                    w.key("fault").value("calib");
                    w.key("fault_seed")
                        .value(static_cast<double>(seq + 1));
                    w.key("strict_calibration").value(true);
                }
                w.endObject();
                frame = w.str();
            }

            auto t0 = Clock::now();
            ++res.sent;
            if (!conn.sendLine(frame)) {
                ++res.transportErrors;
                if (!conn.connectTo(opt.socketPath))
                    return;
                continue;
            }
            std::string reply;
            if (!conn.readLine(reply, opt.timeoutMs)) {
                ++res.transportErrors;
                if (!conn.connectTo(opt.socketPath))
                    return;
                continue;
            }
            res.latencies.push_back(
                std::chrono::duration<double, std::milli>(Clock::now() -
                                                          t0)
                    .count());

            JsonParseResult parsed = parseJson(reply);
            if (!parsed.ok || !parsed.value.isObject()) {
                ++res.transportErrors;
                continue;
            }
            if (parsed.value.getBool("ok", false)) {
                ++res.ok;
            } else {
                ++res.errors;
                const JsonValue *err = parsed.value.find("error");
                if (err &&
                    err->getString("code") == "server.overloaded")
                    ++res.rejected;
            }
        }
    }
}

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

void
usage()
{
    std::cerr << "usage: triq-loadgen --socket PATH [--clients N] "
                 "[--reps R] [--op compile|simulate] [--trials T] "
                 "[--device NAME] [--fault] [--timeout-ms T] "
                 "[-o FILE]\n";
}

int
run(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("triq-loadgen: ", arg, " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(arg, "--socket"))
            opt.socketPath = next();
        else if (!std::strcmp(arg, "--clients"))
            opt.clients = flagValue(arg, next(), 1);
        else if (!std::strcmp(arg, "--reps"))
            opt.reps = flagValue(arg, next(), 1);
        else if (!std::strcmp(arg, "--op"))
            opt.op = next();
        else if (!std::strcmp(arg, "--trials"))
            opt.trials = flagValue(arg, next(), 1);
        else if (!std::strcmp(arg, "--device"))
            opt.device = next();
        else if (!std::strcmp(arg, "--fault"))
            opt.fault = true;
        else if (!std::strcmp(arg, "--timeout-ms"))
            opt.timeoutMs = flagValue(arg, next(), 0.0);
        else if (!std::strcmp(arg, "-o") || !std::strcmp(arg, "--json"))
            opt.outPath = next();
        else if (!std::strcmp(arg, "-h") || !std::strcmp(arg, "--help")) {
            usage();
            return 0;
        } else {
            fatal("triq-loadgen: unknown option '", arg, "'");
        }
    }
    if (opt.socketPath.empty()) {
        usage();
        return 1;
    }
    if (opt.op != "compile" && opt.op != "simulate")
        fatal("triq-loadgen: --op must be compile or simulate");

    auto t0 = Clock::now();
    std::vector<ClientResult> results(opt.clients);
    std::vector<std::thread> threads;
    threads.reserve(opt.clients);
    for (int c = 0; c < opt.clients; ++c)
        threads.emplace_back(
            [&, c] { runClient(opt, c, results[c]); });
    for (std::thread &t : threads)
        t.join();
    double wall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();

    ClientResult total;
    for (const ClientResult &r : results) {
        total.sent += r.sent;
        total.ok += r.ok;
        total.errors += r.errors;
        total.rejected += r.rejected;
        total.transportErrors += r.transportErrors;
        total.disconnects += r.disconnects;
        total.latencies.insert(total.latencies.end(),
                               r.latencies.begin(), r.latencies.end());
    }

    // Final server-side snapshot over a fresh connection: cache heat
    // and the daemon's own view of the campaign (crashes must be 0
    // unless the campaign deliberately injected panics).
    JsonValue server_stats; // null unless the daemon answers
    {
        JsonWriter rq;
        rq.beginObject().key("id").value("stats").key("op").value("stats");
        rq.endObject();
        LineClient conn;
        std::string reply;
        if (conn.connectTo(opt.socketPath) && conn.sendLine(rq.str()) &&
            conn.readLine(reply, opt.timeoutMs)) {
            JsonParseResult parsed = parseJson(reply);
            const JsonValue *stats = parsed.value.find("stats");
            if (parsed.ok && stats)
                server_stats = *stats;
        }
    }

    double wall_s = wall_ms / 1000.0;
    JsonWriter w;
    w.beginObject();
    w.key("bench").value("server");
    w.key("socket").value(opt.socketPath);
    w.key("clients").value(opt.clients);
    w.key("reps").value(opt.reps);
    w.key("op").value(opt.op);
    w.key("fault_mode").value(opt.fault);
    w.key("wall_ms").value(wall_ms);
    w.key("requests").value(total.sent);
    w.key("requests_per_sec")
        .value(wall_s > 0.0 ? total.sent / wall_s : 0.0);
    w.key("ok").value(total.ok);
    w.key("errors").value(total.errors);
    w.key("rejected").value(total.rejected);
    w.key("transport_errors").value(total.transportErrors);
    w.key("planned_disconnects").value(total.disconnects);
    const std::vector<double> &lat = total.latencies;
    w.key("latency_ms").beginObject();
    w.key("count").value(lat.size());
    w.key("p50").value(percentile(lat, 0.50));
    w.key("p99").value(percentile(lat, 0.99));
    w.key("max").value(
        lat.empty() ? 0.0 : *std::max_element(lat.begin(), lat.end()));
    w.endObject();
    w.key("server_stats").value(server_stats);
    w.endObject();

    std::ofstream out(opt.outPath);
    if (!out)
        fatal("triq-loadgen: cannot write '", opt.outPath, "'");
    out << w.str() << "\n";

    std::cerr << "triq-loadgen: " << total.sent << " requests, "
              << total.ok << " ok, " << total.errors
              << " structured errors, " << total.transportErrors
              << " transport errors in " << wall_ms << " ms -> "
              << opt.outPath << "\n";
    return total.transportErrors == 0 ? 0 : 1;
}

} // namespace
} // namespace triq

int
main(int argc, char **argv)
{
    try {
        return triq::run(argc, argv);
    } catch (const triq::FatalError &) {
        return 1;
    } catch (const triq::PanicError &) {
        return 2;
    }
}
