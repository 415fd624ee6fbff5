/**
 * @file
 * triqd: the persistent compile-and-simulate daemon (see DESIGN.md,
 * "triqd server").
 *
 * Usage:
 *   triqd --socket PATH [options]    serve a Unix-domain socket
 *   triqd --stdio [options]          serve stdin/stdout (tests, CI)
 *
 * Options:
 *   --threads N       worker threads (TRIQ_SERVER_THREADS, default 2)
 *   --queue N         admission queue capacity (TRIQ_SERVER_QUEUE, 64)
 *   --timeout-ms T    queue-wait deadline (TRIQ_SERVER_TIMEOUT_MS, 10000)
 *   --drain-ms T      shutdown drain deadline (TRIQ_SERVER_DRAIN_MS, 2000)
 *   --drain-hard-ms T in-flight hard cap at shutdown
 *                     (TRIQ_SERVER_DRAIN_HARD_MS, 30000)
 *   --max-bytes B     frame size cap (TRIQ_SERVER_MAX_BYTES, 1 MiB)
 *   --budget-ms T     default compile budget (TRIQ_SERVER_BUDGET_MS, off)
 *   --crash-dir DIR   crash-bundle base directory (triq-crash-<pid>)
 *
 * Protocol: newline-delimited JSON (see src/service/server.hh). The
 * daemon never dies on a bad request — every failure is a structured
 * one-line error reply; internal panics additionally dump a replayable
 * crash bundle tagged with the request id. SIGTERM/SIGINT trigger a
 * graceful drain: admission stops, in-flight work finishes, queued
 * work is cancelled when the drain deadline fires, and the final
 * metrics snapshot is flushed to stderr before exit.
 *
 * In socket mode each connection is one fairness unit: a client
 * streaming a thousand compiles round-robins 1:1 with an interactive
 * neighbor. Replies carry the request's `id` so a pipelining client
 * can correlate; within one connection replies come back in request
 * order.
 */

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/env.hh"
#include "common/logging.hh"
#include "service/server.hh"

namespace triq
{
namespace
{

/** Self-pipe written by the signal handler, polled by the accept loop. */
int g_signal_pipe[2] = {-1, -1};

void
onSignal(int)
{
    char byte = 1;
    // write(2) is async-signal-safe; the result is deliberately ignored
    // (a full pipe already means a wakeup is pending).
    ssize_t ignored = write(g_signal_pipe[1], &byte, 1);
    (void)ignored;
}

/**
 * How long sendLine waits for a reluctant reader before dropping the
 * connection. Generous: a healthy client drains a reply line in
 * microseconds, so only a peer that stopped reading ever gets here.
 */
constexpr int kSendTimeoutMs = 5000;

/** One accepted connection; shared with in-flight respond callbacks. */
struct Conn
{
    std::mutex writeMutex;
    int fd = -1;            //!< -1 once closed (guarded by writeMutex).
    std::string name;       //!< Fairness unit ("conn-<K>").
    std::string buffer;     //!< Bytes read, not yet framed.
    bool discarding = false; //!< Skipping an over-long frame's tail.

    /**
     * Send one reply line; silently drops it if the peer is gone. The
     * socket is non-blocking: a peer that submits requests but never
     * reads replies gets kSendTimeoutMs of POLLOUT grace and is then
     * dropped — a slow reader must not wedge a worker thread (and with
     * it every other client's requests). The drop is shutdown(2), not
     * close(2): the accept loop still owns the descriptor and reaps it
     * on the resulting EOF, so there is no fd-reuse race.
     */
    void
    sendLine(const std::string &line)
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        if (fd < 0)
            return;
        std::string framed = line + "\n";
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(kSendTimeoutMs);
        size_t off = 0;
        while (off < framed.size()) {
            ssize_t n = write(fd, framed.data() + off, framed.size() - off);
            if (n > 0) {
                off += static_cast<size_t>(n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
                auto left =
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - std::chrono::steady_clock::now())
                        .count();
                if (left > 0) {
                    pollfd pfd = {fd, POLLOUT, 0};
                    int rc = poll(&pfd, 1, static_cast<int>(left));
                    if (rc > 0 || (rc < 0 && errno == EINTR))
                        continue;
                }
                shutdown(fd, SHUT_RDWR); // slow reader: drop the peer
                return;
            }
            return; // dead peer; the read side will reap the fd
        }
    }

    /** Close the descriptor under the write lock (idempotent). */
    void
    shut()
    {
        std::lock_guard<std::mutex> lock(writeMutex);
        if (fd >= 0)
            close(fd);
        fd = -1;
    }
};

/**
 * Frame `conn`'s buffered bytes into lines and submit each. Oversized
 * unterminated frames are answered once and their tail discarded, so a
 * client streaming garbage without newlines cannot grow daemon memory.
 */
void
pumpConnection(Server &server, const std::shared_ptr<Conn> &conn)
{
    size_t nl;
    while ((nl = conn->buffer.find('\n')) != std::string::npos) {
        std::string line = conn->buffer.substr(0, nl);
        conn->buffer.erase(0, nl + 1);
        if (conn->discarding) {
            conn->discarding = false; // tail of the oversized frame
            continue;
        }
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        std::weak_ptr<Conn> weak = conn;
        server.submit(conn->name, std::move(line),
                      [weak](std::string reply) {
                          if (auto c = weak.lock())
                              c->sendLine(reply);
                      });
    }
    if (conn->discarding) {
        // Still mid-discard with no terminator in sight: every buffered
        // byte is the rejected frame's tail. Drop them now, or a client
        // streaming newline-free bytes after one oversized rejection
        // would grow this buffer without bound.
        conn->buffer.clear();
        return;
    }
    long cap = server.config().maxRequestBytes;
    if (static_cast<long>(conn->buffer.size()) > cap) {
        // No newline yet and already past the frame cap: reject now and
        // skip until the frame's eventual terminator.
        conn->sendLine(server.processLine(
            conn->name,
            std::string(static_cast<size_t>(cap) + 1, ' ')));
        conn->buffer.clear();
        conn->discarding = true;
    }
}

int
serveStdio(Server &server)
{
    std::string line;
    while (std::getline(std::cin, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (line.empty())
            continue;
        std::cout << server.processLine("stdio", line) << "\n"
                  << std::flush;
    }
    server.drain();
    return 0;
}

int
serveSocket(Server &server, const std::string &path)
{
    if (pipe(g_signal_pipe) != 0)
        fatal("triqd: cannot create signal pipe: ", std::strerror(errno));
    struct sigaction sa = {};
    sa.sa_handler = onSignal;
    sigaction(SIGTERM, &sa, nullptr);
    sigaction(SIGINT, &sa, nullptr);
    signal(SIGPIPE, SIG_IGN);

    int listen_fd = socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd < 0)
        fatal("triqd: socket(): ", std::strerror(errno));
    sockaddr_un addr = {};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        fatal("triqd: socket path '", path, "' is too long");
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    unlink(path.c_str()); // stale socket from a previous run
    if (bind(listen_fd, reinterpret_cast<sockaddr *>(&addr),
             sizeof(addr)) != 0)
        fatal("triqd: bind('", path, "'): ", std::strerror(errno));
    if (listen(listen_fd, 64) != 0)
        fatal("triqd: listen(): ", std::strerror(errno));

    inform("triqd: serving on '", path, "' (", server.config().workers,
           " workers, queue ", server.config().queueCapacity, ")");

    std::map<int, std::shared_ptr<Conn>> conns;
    long next_conn = 0;
    bool stop = false;
    while (!stop) {
        std::vector<pollfd> fds;
        fds.push_back({g_signal_pipe[0], POLLIN, 0});
        fds.push_back({listen_fd, POLLIN, 0});
        for (auto &[fd, conn] : conns)
            fds.push_back({fd, POLLIN, 0});
        if (poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            fatal("triqd: poll(): ", std::strerror(errno));
        }

        if (fds[0].revents & POLLIN) {
            stop = true;
            break;
        }

        if (fds[1].revents & POLLIN) {
            int fd = accept(listen_fd, nullptr, nullptr);
            if (fd >= 0) {
                // Non-blocking, so sendLine can bound its write stalls.
                fcntl(fd, F_SETFL, fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
                auto conn = std::make_shared<Conn>();
                conn->fd = fd;
                conn->name = "conn-" + std::to_string(next_conn++);
                conns.emplace(fd, std::move(conn));
            }
        }

        for (size_t i = 2; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            auto it = conns.find(fds[i].fd);
            if (it == conns.end())
                continue;
            char buf[65536];
            ssize_t n = read(fds[i].fd, buf, sizeof(buf));
            if (n <= 0) {
                if (n < 0 && (errno == EINTR || errno == EAGAIN))
                    continue;
                it->second->shut();
                conns.erase(it);
                continue;
            }
            it->second->buffer.append(buf, static_cast<size_t>(n));
            pumpConnection(server, it->second);
        }
    }

    inform("triqd: shutdown signal received, draining (",
           server.config().drainMs, " ms deadline)");
    server.drain();
    for (auto &[fd, conn] : conns)
        conn->shut();
    close(listen_fd);
    unlink(path.c_str());
    JsonWriter final_stats;
    server.stats().writeJson(final_stats);
    std::cerr << "triqd: final stats: " << final_stats.str() << "\n";
    return 0;
}

void
usage()
{
    std::cerr
        << "usage: triqd (--socket PATH | --stdio) [options]\n"
           "  --socket PATH     serve a Unix-domain socket at PATH\n"
           "  --stdio           serve stdin/stdout (one line per "
           "request)\n"
           "  --threads N       worker threads (TRIQ_SERVER_THREADS)\n"
           "  --queue N         admission queue cap (TRIQ_SERVER_QUEUE)\n"
           "  --timeout-ms T    queue-wait deadline "
           "(TRIQ_SERVER_TIMEOUT_MS)\n"
           "  --drain-ms T      drain deadline (TRIQ_SERVER_DRAIN_MS)\n"
           "  --drain-hard-ms T in-flight hard cap at shutdown "
           "(TRIQ_SERVER_DRAIN_HARD_MS)\n"
           "  --max-bytes B     frame size cap (TRIQ_SERVER_MAX_BYTES)\n"
           "  --budget-ms T     default compile budget "
           "(TRIQ_SERVER_BUDGET_MS)\n"
           "  --crash-dir DIR   crash-bundle base directory\n";
}

int
run(int argc, char **argv)
{
    ServerConfig cfg;
    std::string socket_path;
    bool stdio = false;
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("triqd: ", arg, " needs a value");
            return argv[++i];
        };
        if (!std::strcmp(arg, "--socket"))
            socket_path = next();
        else if (!std::strcmp(arg, "--stdio"))
            stdio = true;
        else if (!std::strcmp(arg, "--threads"))
            cfg.workers = flagValue(arg, next(), 0);
        else if (!std::strcmp(arg, "--queue"))
            cfg.queueCapacity = flagValue(arg, next(), 0);
        else if (!std::strcmp(arg, "--timeout-ms"))
            cfg.timeoutMs = flagValue(arg, next(), 0.0);
        else if (!std::strcmp(arg, "--drain-ms"))
            cfg.drainMs = flagValue(arg, next(), 0.0);
        else if (!std::strcmp(arg, "--drain-hard-ms"))
            cfg.drainHardMs = flagValue(arg, next(), 0.0);
        else if (!std::strcmp(arg, "--max-bytes"))
            cfg.maxRequestBytes = flagValue(arg, next(), 0L);
        else if (!std::strcmp(arg, "--budget-ms"))
            cfg.budgetMs = flagValue(arg, next(), 0.0);
        else if (!std::strcmp(arg, "--crash-dir"))
            cfg.crashDir = next();
        else if (!std::strcmp(arg, "-h") || !std::strcmp(arg, "--help")) {
            usage();
            return 0;
        } else {
            fatal("triqd: unknown option '", arg, "'");
        }
    }
    if (stdio != socket_path.empty()) {
        // Exactly one transport must be chosen.
        usage();
        return 1;
    }

    Server server(std::move(cfg));
    server.start();
    return stdio ? serveStdio(server) : serveSocket(server, socket_path);
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
