/**
 * @file
 * triqd server-engine tests: the wire format, the protocol surface,
 * admission control, per-client fairness, timeouts, graceful drain,
 * crash containment (a panicking request answers structurally and the
 * daemon keeps serving) and the stats contract. Everything runs
 * against the transport-free Server engine — the same object triqd
 * wraps in a socket — so the suite needs no live daemon.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/resource.hh"
#include "core/compiler.hh"
#include "core/crash_report.hh"
#include "device/machines.hh"
#include "service/server.hh"
#include "sim/executor.hh"
#include "workloads/benchmarks.hh"

using namespace triq;
namespace fs = std::filesystem;

namespace
{

/** Fresh scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    TempDir()
    {
        std::string tmpl =
            (fs::temp_directory_path() / "triq_server_XXXXXX").string();
        char *made = mkdtemp(tmpl.data());
        if (!made)
            throw std::runtime_error("mkdtemp failed");
        path = made;
    }
    ~TempDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

/** Parse a reply and hand back the object (asserts well-formedness). */
JsonValue
parsed(const std::string &reply)
{
    JsonParseResult r = parseJson(reply);
    EXPECT_TRUE(r.ok) << reply << " -- " << r.error;
    EXPECT_TRUE(r.value.isObject()) << reply;
    return r.value;
}

std::string
errorCode(const JsonValue &v)
{
    const JsonValue *err = v.find("error");
    return err ? err->getString("code") : "";
}

ServerConfig
quietConfig()
{
    ServerConfig cfg;
    cfg.workers = 2;
    cfg.queueCapacity = 64;
    cfg.timeoutMs = 30000.0;
    cfg.drainMs = 500.0;
    cfg.maxRequestBytes = 1 << 20;
    cfg.budgetMs = 0.0;
    cfg.maxTrials = 4096;
    return cfg;
}

} // namespace

// --- wire format ---------------------------------------------------------

TEST(WireTest, ParsesScalarsAndNesting)
{
    JsonParseResult r = parseJson(
        " {\"a\": 1.5, \"b\": [true, null, \"x\\n\"], \"c\": {\"d\": -2}} ");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_DOUBLE_EQ(r.value.getNumber("a"), 1.5);
    const JsonValue *b = r.value.find("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].string, "x\n");
    const JsonValue *c = r.value.find("c");
    ASSERT_TRUE(c && c->isObject());
    EXPECT_DOUBLE_EQ(c->getNumber("d"), -2.0);
}

TEST(WireTest, RejectsMalformedInput)
{
    EXPECT_FALSE(parseJson("").ok);
    EXPECT_FALSE(parseJson("{").ok);
    EXPECT_FALSE(parseJson("{\"a\":}").ok);
    EXPECT_FALSE(parseJson("{\"a\":1,}").ok);
    EXPECT_FALSE(parseJson("\"unterminated").ok);
    EXPECT_FALSE(parseJson("nul").ok);
    EXPECT_FALSE(parseJson("{} trailing").ok);
    EXPECT_FALSE(parseJson("1e999").ok); // non-finite
}

TEST(WireTest, DepthCapStopsDeepNesting)
{
    std::string deep(200, '[');
    deep += std::string(200, ']');
    JsonParseResult r = parseJson(deep, 48);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("deep"), std::string::npos) << r.error;
}

TEST(WireTest, WriterRoundTripsThroughParser)
{
    JsonWriter w;
    w.beginObject();
    w.key("s").value("quote\" slash\\ ctrl\x01");
    w.key("n").value(0.1);
    w.key("i").value(42L);
    w.key("t").value(true);
    w.key("nul").null();
    w.key("arr").beginArray().value(1).value("two").endArray();
    // Well-formed UTF-8 (2-, 3- and 4-byte sequences) passes through.
    w.key("cafe").value("caf\xc3\xa9");
    w.key("euro").value("\xe2\x82\xac");
    w.key("emoji").value("\xf0\x9f\x98\x80");
    w.endObject();
    JsonParseResult r = parseJson(w.str());
    ASSERT_TRUE(r.ok) << w.str() << " -- " << r.error;
    EXPECT_EQ(r.value.getString("s"), "quote\" slash\\ ctrl\x01");
    EXPECT_DOUBLE_EQ(r.value.getNumber("n"), 0.1);
    EXPECT_DOUBLE_EQ(r.value.getNumber("i"), 42.0);
    EXPECT_TRUE(r.value.getBool("t"));
    EXPECT_EQ(r.value.getString("cafe"), "caf\xc3\xa9");
    EXPECT_EQ(r.value.getString("euro"), "\xe2\x82\xac");
    EXPECT_EQ(r.value.getString("emoji"), "\xf0\x9f\x98\x80");
}

TEST(WireTest, UnicodeEscapesDecodeToUtf8)
{
    JsonParseResult r = parseJson("{\"u\": \"\\u00e9\\u0041\"}");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.getString("u"), "\xc3\xa9" "A");

    // A surrogate pair is one 4-byte sequence; a lone surrogate is
    // U+FFFD.
    r = parseJson("{\"pair\": \"\\ud83d\\ude00\", "
                  "\"lone\": \"a\\ud83db\\ude00\"}");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.value.getString("pair"), "\xf0\x9f\x98\x80");
    EXPECT_EQ(r.value.getString("lone"),
              "a\xef\xbf\xbd" "b\xef\xbf\xbd");
}

TEST(WireTest, WriterEscapesBytesOutsideWellFormedUtf8)
{
    // A stray continuation byte, an overlong form, an encoded
    // surrogate, a code point above U+10FFFF and a truncated sequence:
    // each of their bytes is escaped, so the output stays valid JSON.
    JsonWriter w;
    w.beginArray();
    for (const char *bad : {"\x80", "\xc0\xaf", "\xed\xa0\x80",
                            "\xf4\x90\x80\x80", "\xe2\x82"})
        w.value(bad);
    w.endArray();
    EXPECT_EQ(w.str(), "[\"\\u0080\", \"\\u00c0\\u00af\", "
                       "\"\\u00ed\\u00a0\\u0080\", "
                       "\"\\u00f4\\u0090\\u0080\\u0080\", "
                       "\"\\u00e2\\u0082\"]");
    EXPECT_TRUE(parseJson(w.str()).ok);
}

// --- protocol surface ----------------------------------------------------

TEST(ServerTest, PingAndStatsAnswerInline)
{
    Server server(quietConfig());
    JsonValue pong =
        parsed(server.processLine("t", "{\"id\":\"p1\",\"op\":\"ping\"}"));
    EXPECT_TRUE(pong.getBool("ok"));
    EXPECT_EQ(pong.getString("id"), "p1");

    JsonValue st =
        parsed(server.processLine("t", "{\"id\":2,\"op\":\"stats\"}"));
    EXPECT_TRUE(st.getBool("ok"));
    const JsonValue *stats = st.find("stats");
    ASSERT_TRUE(stats && stats->isObject());
    EXPECT_GE(stats->getNumber("received"), 2.0);
}

TEST(ServerTest, Utf8IdsEchoAsSent)
{
    // The same id sent as raw UTF-8, as \u escapes (what Python's
    // json.dumps sends) and, for an astral character, as a surrogate
    // pair: every reply carries the id the request decoded to.
    Server server(quietConfig());
    const std::pair<const char *, const char *> cases[] = {
        {"{\"id\":\"caf\xc3\xa9\",\"op\":\"ping\"}", "caf\xc3\xa9"},
        {"{\"id\":\"caf\\u00e9\",\"op\":\"ping\"}", "caf\xc3\xa9"},
        {"{\"id\":\"\\ud83d\\ude00\",\"op\":\"ping\"}",
         "\xf0\x9f\x98\x80"},
        {"{\"id\":\"\\u20ac\",\"op\":\"nope\"}", "\xe2\x82\xac"},
    };
    for (const auto &[frame, id] : cases) {
        std::string reply = server.processLine("t", frame);
        EXPECT_EQ(parsed(reply).getString("id"), id) << reply;
        EXPECT_NE(reply.find(id), std::string::npos) << reply;
    }
}

TEST(ServerTest, CompileThenCacheHit)
{
    Server server(quietConfig());
    std::string rq =
        "{\"id\":\"a\",\"op\":\"compile\",\"bench\":\"BV4\","
        "\"device\":\"IBMQ5\"}";
    JsonValue first = parsed(server.processLine("t", rq));
    ASSERT_TRUE(first.getBool("ok")) << errorCode(first);
    EXPECT_EQ(first.getString("source"), "compiled");
    EXPECT_GT(first.getNumber("esp"), 0.0);

    JsonValue second = parsed(server.processLine("t", rq));
    ASSERT_TRUE(second.getBool("ok"));
    EXPECT_EQ(second.getString("source"), "cache_hit");
    EXPECT_EQ(second.getString("fingerprint"),
              first.getString("fingerprint"));
}

TEST(ServerTest, SimulateReportsSuccessRate)
{
    Server server(quietConfig());
    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":1,\"op\":\"simulate\",\"bench\":\"Toffoli\","
             "\"device\":\"UMDTI\",\"trials\":200,\"seed\":7}"));
    ASSERT_TRUE(r.getBool("ok")) << errorCode(r);
    EXPECT_EQ(r.getNumber("trials"), 200.0);
    EXPECT_GT(r.getNumber("success_rate"), 0.5);
    EXPECT_GT(r.getNumber("sim_esp"), 0.0);
}

TEST(ServerTest, ProgramSourceCompiles)
{
    Server server(quietConfig());
    JsonValue r = parsed(server.processLine(
        "t",
        "{\"id\":1,\"op\":\"compile\",\"device\":\"IBMQ5\",\"program\":"
        "\"module bell { qreg q[2]; h q[0]; cnot q[0], q[1]; "
        "measure q[0]; measure q[1]; }\"}"));
    ASSERT_TRUE(r.getBool("ok")) << errorCode(r);
    EXPECT_GE(r.getNumber("two_q"), 1.0);
}

TEST(ServerTest, BadProgramEarnsStructuredDiagnostics)
{
    Server server(quietConfig());
    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":1,\"op\":\"compile\",\"device\":\"IBMQ5\","
             "\"program\":\"qreg q[2];\\nBOGUS(q[0])\"}"));
    EXPECT_FALSE(r.getBool("ok", true));
    EXPECT_EQ(errorCode(r), "input.parse");
    const JsonValue *err = r.find("error");
    ASSERT_TRUE(err);
    EXPECT_TRUE(err->find("diagnostics"));
}

TEST(ServerTest, ProtocolErrorsHaveStableCodes)
{
    Server server(quietConfig());
    EXPECT_EQ(errorCode(parsed(server.processLine("t", "not json"))),
              "proto.parse");
    EXPECT_EQ(errorCode(parsed(server.processLine("t", "[1,2]"))),
              "proto.bad-request");
    EXPECT_EQ(errorCode(parsed(server.processLine("t", "{\"id\":1}"))),
              "proto.bad-request");
    EXPECT_EQ(errorCode(parsed(server.processLine(
                  "t", "{\"id\":1,\"op\":\"launch-missiles\"}"))),
              "proto.bad-request");
    EXPECT_EQ(errorCode(parsed(server.processLine(
                  "t", "{\"id\":1,\"op\":\"compile\",\"bench\":\"BV4\","
                       "\"device\":\"ENIAC\"}"))),
              "proto.bad-request");
    EXPECT_EQ(errorCode(parsed(server.processLine(
                  "t", "{\"id\":1,\"op\":\"compile\",\"bench\":\"Nope\","
                       "\"device\":\"IBMQ5\"}"))),
              "input.invalid");
}

TEST(ServerTest, RequestNumbersAreCheckedNotCast)
{
    // Each request carries one bad number: the wrong JSON type, a
    // fraction where a whole number belongs, or a value out of range.
    Server server(quietConfig());
    const std::pair<const char *, const char *> cases[] = {
        {"\"day\":1e10", "day"},
        {"\"day\":2.7", "day"},
        {"\"day\":-3", "day"},
        {"\"day\":\"1\"", "day"},
        {"\"trials\":0", "trials"},
        {"\"trials\":1.5", "trials"},
        {"\"trials\":\"100\"", "trials"},
        {"\"seed\":-1", "seed"},
        {"\"seed\":1e16", "seed"},
        {"\"seed\":0.5", "seed"},
        {"\"fault\":\"calib\",\"fault_seed\":-1", "fault_seed"},
        {"\"fault\":\"calib\",\"fault_seed\":\"7\"", "fault_seed"},
        {"\"drift\":-5", "drift"},
        {"\"drift\":5", "drift"},
        {"\"drift\":\"0.05\"", "drift"},
        {"\"drift\":null", "drift"},
        {"\"timeout_ms\":0", "timeout_ms"},
        {"\"timeout_ms\":-5", "timeout_ms"},
        {"\"timeout_ms\":\"x\"", "timeout_ms"},
        {"\"timeout_ms\":1e16", "timeout_ms"},
        {"\"budget_ms\":\"5\"", "budget_ms"},
        {"\"budget_ms\":-3", "budget_ms"},
        {"\"budget_ms\":1e16", "budget_ms"},
    };
    for (const auto &[field, name] : cases) {
        std::string reply = server.processLine(
            "t", std::string("{\"id\":1,\"op\":\"simulate\",\"bench\":"
                             "\"BV4\",\"device\":\"IBMQ5\",") +
                     field + "}");
        JsonValue r = parsed(reply);
        EXPECT_EQ(errorCode(r), "proto.bad-request") << reply;
        const JsonValue *err = r.find("error");
        ASSERT_TRUE(err) << reply;
        EXPECT_NE(err->getString("message").find(
                      std::string("\"") + name + "\""),
                  std::string::npos)
            << reply;
    }

    // The server keeps answering, and a huge trial count is clamped to
    // maxTrials rather than wrapped. budget_ms 0 compiles unbudgeted.
    JsonValue ok = parsed(server.processLine(
        "t", "{\"id\":2,\"op\":\"simulate\",\"bench\":\"BV4\","
             "\"device\":\"IBMQ5\",\"day\":1,\"trials\":1e12,"
             "\"seed\":9007199254740992,\"drift\":0.05,"
             "\"timeout_ms\":60000,\"budget_ms\":0}"));
    ASSERT_TRUE(ok.getBool("ok")) << errorCode(ok);
    EXPECT_EQ(ok.getNumber("day"), 1.0);
    EXPECT_EQ(ok.getNumber("trials"), 4096.0);
}

TEST(ServerTest, BadNamesWriteNothingToStderr)
{
    // A refusal costs the client a structured reply and the daemon
    // nothing else: no stderr line, however many bad requests arrive.
    // That holds for bad names and for errors the pipeline raises.
    Server server(quietConfig());
    const std::pair<const char *, const char *> cases[] = {
        {"\"op\":\"compile\",\"bench\":\"BV4\",\"level\":\"x\"",
         "proto.bad-request"},
        {"\"op\":\"compile\",\"bench\":\"BV4\",\"mapper\":\"qiskit\"",
         "proto.bad-request"},
        {"\"op\":\"compile\",\"bench\":\"Nope\"", "input.invalid"},
        {"\"op\":\"simulate\",\"bench\":\"Nope\"", "input.invalid"},
        // Past the Sup caps: refused by name, never built.
        {"\"op\":\"simulate\",\"bench\":\"Sup1x2d100000000\"",
         "input.invalid"},
        {"\"op\":\"simulate\",\"bench\":\"Sup9x9d8\"", "input.invalid"},
        {"\"op\":\"compile\",\"bench\":\"BV4\",\"fault\":\"calib\","
         "\"fault_seed\":3,\"strict_calibration\":true",
         "input.invalid"},
        {"\"op\":\"compile\",\"program\":"
         "\"module m { qreg q[1]; x q[3]; }\"",
         "input.parse"},
    };
    std::vector<std::string> replies;
    testing::internal::CaptureStderr();
    for (const auto &[members, code] : cases)
        replies.push_back(server.processLine(
            "t", std::string("{\"id\":1,\"device\":\"IBMQ5\",") +
                     members + "}"));
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    for (size_t i = 0; i < replies.size(); ++i) {
        EXPECT_EQ(errorCode(parsed(replies[i])), cases[i].second)
            << replies[i];
    }
}

TEST(ServerTest, OversizedFrameRejectedInConstantTime)
{
    ServerConfig cfg = quietConfig();
    cfg.maxRequestBytes = 2048;
    Server server(std::move(cfg));
    std::string big = "{\"op\":\"ping\",\"pad\":\"";
    big += std::string(4096, 'x');
    big += "\"}";
    JsonValue r = parsed(server.processLine("t", big));
    EXPECT_EQ(errorCode(r), "proto.oversized");
}

TEST(ServerTest, TooLargeProgramRefusedPerDevice)
{
    Server server(quietConfig());
    // BV8 needs 8 qubits; IBMQ5 has 5.
    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":1,\"op\":\"compile\",\"bench\":\"BV8\","
             "\"device\":\"IBMQ5\"}"));
    EXPECT_EQ(errorCode(r), "input.too-large");
}

TEST(ServerTest, StrictCalibrationFaultAnswersStructurally)
{
    Server server(quietConfig());
    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":1,\"op\":\"compile\",\"bench\":\"BV4\","
             "\"device\":\"IBMQ5\",\"fault\":\"calib\",\"fault_seed\":3,"
             "\"strict_calibration\":true}"));
    EXPECT_FALSE(r.getBool("ok", true));
    EXPECT_EQ(errorCode(r), "input.invalid");
    // The daemon survives and the next request is clean.
    JsonValue ok = parsed(server.processLine(
        "t", "{\"id\":2,\"op\":\"compile\",\"bench\":\"BV4\","
             "\"device\":\"IBMQ5\"}"));
    EXPECT_TRUE(ok.getBool("ok"));
}

TEST(ServerTest, RequestFaultClassesUseTheEnvironmentGrammar)
{
    // A request's `fault` is parsed as TRIQ_FAULT is: whole class
    // names, with the same aliases, and an unknown one is refused.
    Server server(quietConfig());
    auto reply = [&](const std::string &members) {
        return server.processLine(
            "t", "{\"id\":1,\"op\":\"compile\",\"device\":\"IBMQ5\"," +
                     members + "}");
    };
    for (const char *bad : {"nocalib", "calib,bogus", "textual"}) {
        JsonValue r = parsed(reply(
            std::string("\"bench\":\"BV4\",\"fault\":\"") + bad + "\""));
        EXPECT_EQ(errorCode(r), "proto.bad-request") << bad;
        const JsonValue *err = r.find("error");
        ASSERT_TRUE(err) << bad;
        EXPECT_NE(err->getString("message").find("\"fault\""),
                  std::string::npos)
            << bad;
    }

    // "program" is the alias of "text": the same faults under one seed.
    const std::string source =
        "\"program\":\"module m { qreg q[2]; h q[0]; cnot q[0], q[1]; "
        "measure q[0]; measure q[1]; }\",\"fault_seed\":2";
    std::string text = reply(source + ",\"fault\":\"text\"");
    EXPECT_EQ(errorCode(parsed(text)), "input.parse") << text;
    EXPECT_EQ(reply(source + ",\"fault\":\"program\""), text);
    EXPECT_TRUE(parsed(reply(source)).getBool("ok"));

    // "calibration" is the alias of "calib".
    const std::string strict =
        "\"bench\":\"BV4\",\"fault_seed\":3,\"strict_calibration\":true";
    std::string calib = reply(strict + ",\"fault\":\"calib\"");
    EXPECT_EQ(errorCode(parsed(calib)), "input.invalid") << calib;
    EXPECT_EQ(reply(strict + ",\"fault\":\"calibration\""), calib);
}

TEST(ServerTest, EnvironmentFaultsAreReadOnceAndCopiedPerRequest)
{
    // The Server reads TRIQ_FAULT when it is built, so its warnings
    // appear once and a later change to the environment is not seen.
    // Each request runs on a fresh copy of that injector: identical
    // requests meet identical faults.
    setenv("TRIQ_FAULT", "bogus,calib", 1);
    setenv("TRIQ_FAULT_SEED", "3", 1);
    testing::internal::CaptureStderr();
    Server server(quietConfig());
    std::string built = testing::internal::GetCapturedStderr();
    unsetenv("TRIQ_FAULT");
    unsetenv("TRIQ_FAULT_SEED");
    EXPECT_NE(built.find("'bogus'"), std::string::npos) << built;

    const std::string rq =
        "{\"id\":1,\"op\":\"compile\",\"bench\":\"BV4\","
        "\"device\":\"IBMQ5\",\"strict_calibration\":true}";
    testing::internal::CaptureStderr();
    std::string first = server.processLine("t", rq);
    std::string second = server.processLine("t", rq);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    EXPECT_EQ(errorCode(parsed(first)), "input.invalid") << first;
    EXPECT_EQ(first, second);
}

// --- crash containment ---------------------------------------------------

TEST(ServerTest, PanicDumpsTaggedBundleAndKeepsServing)
{
    TempDir tmp;
    ServerConfig cfg = quietConfig();
    cfg.crashDir = (tmp.path / "crash").string();
    Server server(std::move(cfg));

    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":\"boom-1\",\"op\":\"compile\",\"bench\":\"BV4\","
             "\"device\":\"IBMQ5\",\"fault\":\"panic\"}"));
    EXPECT_FALSE(r.getBool("ok", true));
    EXPECT_EQ(errorCode(r), "internal.panic");
    const JsonValue *err = r.find("error");
    ASSERT_TRUE(err);
    std::string dir = err->getString("crash_dir");
    ASSERT_FALSE(dir.empty());
    ASSERT_TRUE(fs::is_directory(dir));

    CrashBundle b = CrashBundle::load(dir);
    EXPECT_EQ(b.requestId, "boom-1");
    EXPECT_EQ(b.benchName, "BV4");
    EXPECT_EQ(b.device, "IBMQ5");

    // Contract: a panic never takes the server down.
    JsonValue after = parsed(server.processLine(
        "t", "{\"id\":2,\"op\":\"compile\",\"bench\":\"BV4\","
             "\"device\":\"IBMQ5\"}"));
    EXPECT_TRUE(after.getBool("ok"));

    JsonValue st =
        parsed(server.processLine("t", "{\"op\":\"stats\"}"));
    EXPECT_EQ(st.find("stats")->getNumber("crashes"), 1.0);
}

// --- admission, fairness, timeout, drain ---------------------------------

namespace
{

/** Collects replies across threads, preserving completion order. */
struct ReplyLog
{
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<std::string> ids;

    Server::Respond
    tagged(std::string tag)
    {
        return [this, tag](std::string reply) {
            JsonParseResult r = parseJson(reply);
            std::string id =
                r.ok ? r.value.getString("id", tag) : tag;
            std::lock_guard<std::mutex> lock(mutex);
            ids.push_back(id.empty() ? tag : id);
            cv.notify_all();
        };
    }

    void
    waitFor(size_t n)
    {
        std::unique_lock<std::mutex> lock(mutex);
        cv.wait(lock, [&] { return ids.size() >= n; });
    }

    long
    indexOf(const std::string &id)
    {
        std::lock_guard<std::mutex> lock(mutex);
        for (size_t i = 0; i < ids.size(); ++i)
            if (ids[i] == id)
                return static_cast<long>(i);
        return -1;
    }
};

std::string
compileFrame(const std::string &id, const std::string &bench = "BV4")
{
    return "{\"id\":\"" + id + "\",\"op\":\"compile\",\"bench\":\"" +
           bench + "\",\"device\":\"IBMQ5\"}";
}

/**
 * Parks the (single) worker deterministically: the blocker request
 * executes instantly, but its respond callback blocks inside the
 * worker until release(). finish() only decrements `active` after
 * respond returns, so the worker slot stays provably occupied — the
 * stand-in for "a slow request is running" in the admission, fairness
 * and drain tests, immune to CI load and compile-speed variance.
 */
struct WorkerGate
{
    std::promise<void> release_;
    std::shared_future<void> gate_ = release_.get_future().share();

    Server::Respond
    hold()
    {
        std::shared_future<void> gate = gate_;
        return [gate](std::string) { gate.wait(); };
    }

    void
    release()
    {
        release_.set_value();
    }
};

/** Spin until the blocker occupies the worker and the queue is empty. */
void
awaitWorkerHeld(Server &server)
{
    ServerStats st = server.stats();
    while (st.active < 1 || st.queueDepth > 0) {
        std::this_thread::yield();
        st = server.stats();
    }
}

} // namespace

TEST(ServerTest, FullQueueShedsLoadImmediately)
{
    ServerConfig cfg = quietConfig();
    cfg.workers = 1;
    cfg.queueCapacity = 2;
    Server server(std::move(cfg));
    server.start();

    // Park the worker, then submit past the queue capacity: of the six
    // arrivals, exactly two fit the queue and four are shed at the
    // door, inline, while the worker never frees up.
    WorkerGate gate;
    server.submit("hog", compileFrame("blocker"), gate.hold());
    awaitWorkerHeld(server);

    int rejected = 0;
    std::mutex m;
    std::condition_variable cv;
    int answered = 0;
    for (int i = 0; i < 6; ++i) {
        server.submit(
            "hog", compileFrame("q" + std::to_string(i)),
            [&](std::string reply) {
                JsonValue v = parsed(reply);
                std::lock_guard<std::mutex> lock(m);
                if (errorCode(v) == "server.overloaded")
                    ++rejected;
                ++answered;
                cv.notify_all();
            });
    }
    {
        // The four rejections are answered inline (before release).
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return answered == 4; });
        EXPECT_EQ(rejected, 4);
    }
    gate.release();
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return answered == 6; });
    }
    EXPECT_EQ(rejected, 4); // the queued two completed normally
    ServerStats st = server.stats();
    EXPECT_EQ(st.rejected, 4);
    server.drain();
}

TEST(ServerTest, RoundRobinInterleavesClients)
{
    ServerConfig cfg = quietConfig();
    cfg.workers = 1;
    Server server(std::move(cfg));
    server.start();

    WorkerGate gate;
    ReplyLog log;
    server.submit("z-hog", compileFrame("blocker"), gate.hold());
    awaitWorkerHeld(server);

    // With the worker parked, client A queues three and client B one.
    // Round-robin must answer B's single request before A's second —
    // one chatty client cannot starve a neighbor. The completion order
    // is fully deterministic: a1, b1, a2, a3.
    server.submit("a", compileFrame("a1", "BV4"), log.tagged("a1"));
    server.submit("a", compileFrame("a2", "BV6"), log.tagged("a2"));
    server.submit("a", compileFrame("a3", "HS2"), log.tagged("a3"));
    server.submit("b", compileFrame("b1", "Peres"), log.tagged("b1"));
    gate.release();
    log.waitFor(4);

    EXPECT_LT(log.indexOf("a1"), log.indexOf("b1"));
    EXPECT_LT(log.indexOf("b1"), log.indexOf("a2"));
    EXPECT_LT(log.indexOf("a2"), log.indexOf("a3"));
    server.drain();
}

TEST(ServerTest, PipeliningClientNeverRunsOnTwoWorkers)
{
    ServerConfig cfg = quietConfig();
    cfg.workers = 2;
    Server server(std::move(cfg));
    server.start();

    // Park client c's first request on worker one. c's second request
    // must NOT be handed to the idle worker two — per-client
    // serialization is what keeps a pipelining client's replies in
    // request order — while a different client sails right through.
    WorkerGate gate;
    ReplyLog log;
    server.submit("c", compileFrame("c1"), gate.hold());
    awaitWorkerHeld(server);
    server.submit("c", compileFrame("c2"), log.tagged("c2"));
    server.submit("d", compileFrame("d1"), log.tagged("d1"));

    // d1 completes on the free worker; c2 stays queued behind c1.
    log.waitFor(1);
    EXPECT_EQ(log.indexOf("d1"), 0);
    EXPECT_EQ(log.indexOf("c2"), -1);

    gate.release();
    log.waitFor(2);
    EXPECT_LT(log.indexOf("d1"), log.indexOf("c2"));
    server.drain();
}

TEST(ServerTest, RepliesStayOrderedWithinOneClient)
{
    ServerConfig cfg = quietConfig();
    cfg.workers = 4;
    Server server(std::move(cfg));
    server.start();

    // A client pipelining eight requests against four workers gets its
    // replies back strictly in request order (the protocol guarantee),
    // because at most one of them is ever in flight.
    ReplyLog log;
    for (int i = 0; i < 8; ++i)
        server.submit("pipeliner", compileFrame("p" + std::to_string(i)),
                      log.tagged("p" + std::to_string(i)));
    log.waitFor(8);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(log.indexOf("p" + std::to_string(i)), i);
    server.drain();
}

TEST(ServerTest, QueueWaitPastDeadlineTimesOut)
{
    ServerConfig cfg = quietConfig();
    cfg.workers = 1;
    Server server(std::move(cfg));
    server.start();

    WorkerGate gate;
    server.submit("t", compileFrame("blocker"), gate.hold());
    awaitWorkerHeld(server);

    // Queued behind the parked worker with a (sub-)microsecond
    // deadline: by the time the worker frees up and picks it up, it
    // has provably waited too long.
    std::mutex m;
    std::condition_variable cv;
    std::string code;
    bool got = false;
    server.submit("t",
                  "{\"id\":\"late\",\"op\":\"compile\",\"bench\":\"BV4\","
                  "\"device\":\"IBMQ5\",\"timeout_ms\":0.0001}",
                  [&](std::string reply) {
                      JsonValue v = parsed(reply);
                      std::lock_guard<std::mutex> lock(m);
                      code = errorCode(v);
                      got = true;
                      cv.notify_all();
                  });
    gate.release();
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return got; });
    }
    EXPECT_EQ(code, "server.timeout");
    ServerStats st = server.stats();
    EXPECT_EQ(st.timeouts, 1);
    server.drain();
}

TEST(ServerTest, DrainCancelsQueuedAndRefusesNew)
{
    ServerConfig cfg = quietConfig();
    cfg.workers = 1;
    cfg.drainMs = 0.0; // no grace window: cancel queued work at once
    Server server(std::move(cfg));
    server.start();

    WorkerGate gate;
    ReplyLog log;
    server.submit("t", compileFrame("blocker"), gate.hold());
    awaitWorkerHeld(server);
    for (int i = 0; i < 3; ++i)
        server.submit("t", compileFrame("d" + std::to_string(i)),
                      log.tagged("d" + std::to_string(i)));

    // Drain with the worker still parked: the queued three must be
    // cancelled with structured replies *before* the in-flight blocker
    // is waited out (cancellation precedes the in-flight wait).
    std::thread drainer([&] { server.drain(); });
    log.waitFor(3);
    ServerStats mid = server.stats();
    EXPECT_EQ(mid.cancelled, 3);
    EXPECT_EQ(mid.active, 1); // the blocker is still in flight
    gate.release();
    drainer.join();

    ServerStats st = server.stats();
    EXPECT_EQ(st.cancelled, 3);
    EXPECT_EQ(st.queueDepth, 0);
    EXPECT_EQ(st.active, 0);
    EXPECT_TRUE(server.draining());

    // Post-drain submissions are refused, not dropped.
    JsonValue r = parsed(server.processLine("t", compileFrame("x")));
    EXPECT_EQ(errorCode(r), "server.draining");
}

TEST(ServerTest, StatsCountLatenciesAndCacheHeat)
{
    Server server(quietConfig());
    for (int i = 0; i < 3; ++i)
        parsed(server.processLine("t", compileFrame("r")));
    ServerStats st = server.stats();
    EXPECT_EQ(st.completed, 3);
    EXPECT_EQ(st.latencyCount, 3);
    EXPECT_GT(st.p50Ms, 0.0);
    EXPECT_GE(st.p99Ms, st.p50Ms);
    EXPECT_EQ(st.cache.hits, 2);
    EXPECT_EQ(st.cache.misses, 1);
}

// --- predictive admission (resource governor) ----------------------------

namespace
{

/** Scoped budget override on the process governor (always restored). */
struct BudgetGuard
{
    explicit BudgetGuard(uint64_t bytes)
        : old_(processGovernor().budgetBytes())
    {
        processGovernor().setBudgetBytes(bytes);
    }
    ~BudgetGuard() { processGovernor().setBudgetBytes(old_); }
    uint64_t old_;
};

} // namespace

TEST(ServerTest, BudgetRejectsOversizedSimulationAndKeepsServing)
{
    BudgetGuard budget(256ull << 20); // 256 MiB
    Server server(quietConfig());

    // The fig. 13 shape: a 72-qubit supremacy circuit on the 72-qubit
    // grid. Its state vector saturates the predictor; the reply must be
    // an immediate structured refusal carrying the predicted cost.
    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":\"big\",\"op\":\"simulate\",\"bench\":"
             "\"Sup6x12d8\",\"device\":\"Google72\",\"trials\":10}"));
    EXPECT_EQ(errorCode(r), "server.budget");
    const JsonValue *err = r.find("error");
    ASSERT_NE(err, nullptr);
    EXPECT_GT(err->getNumber("predicted_bytes"), 0.0);
    EXPECT_EQ(err->getNumber("budget_bytes"),
              static_cast<double>(256ull << 20));

    // The daemon keeps serving: an under-budget request on the same
    // connection succeeds, and a *compile* of the very circuit that was
    // refused for simulation is still admitted (no state vector).
    JsonValue ok = parsed(server.processLine(
        "t", "{\"id\":\"small\",\"op\":\"simulate\",\"bench\":\"BV4\","
             "\"device\":\"IBMQ5\",\"trials\":50}"));
    EXPECT_TRUE(ok.getBool("ok", false));
    JsonValue co = parsed(server.processLine(
        "t", "{\"id\":\"co\",\"op\":\"compile\",\"bench\":\"Sup6x12d8\","
             "\"device\":\"Google72\"}"));
    EXPECT_TRUE(co.getBool("ok", false));

    ServerStats st = server.stats();
    EXPECT_EQ(st.budgetRejected, 1);
    EXPECT_EQ(st.completed, 2);
}

TEST(ServerTest, SmallProgramOnWideDeviceIsNotFalselyRejected)
{
    BudgetGuard budget(256ull << 20);
    Server server(quietConfig());
    // BV4 compacts to a handful of qubits even though Google72 is 72
    // wide; admission prices the benchmark, not the device.
    JsonValue r = parsed(server.processLine(
        "t", "{\"id\":1,\"op\":\"simulate\",\"bench\":\"BV4\","
             "\"device\":\"Google72\",\"trials\":10}"));
    EXPECT_TRUE(r.getBool("ok", false)) << r.getString("error");
}

TEST(ServerTest, ConfigOutOfRangeIsFatal)
{
    // The constructor refuses a bad field instead of replacing it.
    const std::function<void(ServerConfig &)> bad[] = {
        [](ServerConfig &c) { c.workers = 0; },
        [](ServerConfig &c) { c.workers = 257; },
        [](ServerConfig &c) { c.queueCapacity = 0; },
        [](ServerConfig &c) { c.timeoutMs = 0.0; },
        [](ServerConfig &c) { c.drainMs = -1.0; },
        [](ServerConfig &c) { c.drainHardMs = -1.0; },
        [](ServerConfig &c) { c.maxRequestBytes = 10; },
        [](ServerConfig &c) { c.budgetMs = -1.0; },
        [](ServerConfig &c) { c.maxTrials = 0; },
    };
    for (const auto &set : bad) {
        ServerConfig cfg = quietConfig();
        set(cfg);
        EXPECT_THROW(Server{cfg}, FatalError);
    }
}

TEST(Settings, RetiredVariablesAreNotRead)
{
    // The simulator and the server take their settings as arguments.
    // Four variables that used to configure them must change nothing.
    // Their names are spelled in two parts so that a search for a
    // retired name finds only code that reads it.
    const std::string prefix = "TRIQ_";
    const std::pair<std::string, const char *> retired[] = {
        {prefix + "SIM_FUSION", "0"},
        {prefix + "SIM_THREADS", "4"},
        {prefix + "SERVER_QUEUE", "1"},
        {prefix + "SERVER_TIMEOUT_MS", "5"},
    };
    Device dev = makeIbmQ5();
    Calibration calib = dev.calibrate(1);
    CompileOptions copts;
    copts.emitAssembly = false;
    CompileResult compiled =
        compileForDevice(makeBenchmark("Peres"), dev, calib, copts);
    ExecutionResult unset =
        executeNoisy(compiled.hwCircuit, dev, calib, 2000, 7);

    for (const auto &[name, value] : retired)
        ASSERT_EQ(setenv(name.c_str(), value, 1), 0);
    ExecutionResult set =
        executeNoisy(compiled.hwCircuit, dev, calib, 2000, 7);
    ServerConfig cfg = Server().config();
    for (const auto &[name, value] : retired)
        unsetenv(name.c_str());

    EXPECT_EQ(set.sched.threads, 1);
    EXPECT_EQ(set.histogram, unset.histogram);
    EXPECT_EQ(cfg.queueCapacity, 64);
    EXPECT_EQ(cfg.timeoutMs, 10000.0);
}

TEST(ServerTest, UnlimitedBudgetAdmitsEverythingAtTheDoor)
{
    BudgetGuard budget(0);
    Server server(quietConfig());
    // With no budget the 72-qubit request passes admission; the
    // executor's own reservation is unlimited too, so the refusal (if
    // any) would come from the allocator — which is exactly why this
    // test only checks the *admission* outcome via stats, using a
    // compile op to avoid actually allocating 2^72 amplitudes.
    JsonValue co = parsed(server.processLine(
        "t", "{\"id\":1,\"op\":\"compile\",\"bench\":\"Sup6x12d8\","
             "\"device\":\"Google72\"}"));
    EXPECT_TRUE(co.getBool("ok", false));
    EXPECT_EQ(server.stats().budgetRejected, 0);
}
