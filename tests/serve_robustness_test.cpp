/**
 * @file
 * Robustness tests for the serving layer, each under a real failure
 * condition rather than a simulated one: a cache directory removed
 * under a live cache, an entry path a file cannot be renamed onto,
 * crash leftovers on disk, and — over a live socket — an oversized
 * request, a client that never finishes its request, descriptor
 * exhaustion at accept(), and a burst of concurrent clients waiting
 * in the listen backlog.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "common/json_value.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"

namespace apres {
namespace {

namespace fs = std::filesystem;

std::string
scratchDir(const std::string& tag)
{
    const fs::path dir = fs::temp_directory_path() /
        ("apres_robust_test_" + std::to_string(::getpid()) + "_" + tag);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

/** Sockets live in /tmp directly: sun_path is only ~108 bytes. */
std::string
socketPath(const std::string& tag)
{
    return (fs::temp_directory_path() /
            ("apres_rb_" + std::to_string(::getpid()) + "_" + tag +
             ".sock"))
        .string();
}

/** A one-job KM run request; tiny scale keeps it fast. */
std::string
kmRunRequest(const std::string& label, double scale = 0.01)
{
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "run");
    json.beginArray("jobs");
    ServeJobSpec job;
    job.label = label;
    job.workload = "KM";
    job.scale = scale;
    writeServeJob(json, job);
    json.endArray();
    json.endObject();
    json.finish();
    return os.str();
}

/** Parse a response and return its "type". */
std::string
responseType(const std::string& response)
{
    return JsonValue::parse(response).at("type").asString();
}

/** Files in @p dir whose name contains ".tmp.". */
std::size_t
tempFiles(const std::string& dir)
{
    std::size_t n = 0;
    for (const auto& e : fs::directory_iterator(dir))
        n += e.path().filename().string().find(".tmp.") !=
                     std::string::npos
                 ? 1
                 : 0;
    return n;
}

// --------------------------------------------------------------------
// Disk tier: crash leftovers and write failures.
// --------------------------------------------------------------------

TEST(ResultCacheRobustness, ScrubRepairsCrashArtifacts)
{
    const std::string dir = scratchDir("scrub");
    // A crashed writer's temp file, a truncated entry and an empty
    // entry; plus one healthy survivor.
    std::ofstream(fs::path(dir) / "aaaa.json.tmp.12345") << "{\"n\":";
    std::ofstream(fs::path(dir) / "bbbb.json") << "{\"truncated\": ";
    std::ofstream(fs::path(dir) / "cccc.json");
    std::ofstream(fs::path(dir) / "dddd.json") << "{\"n\": 4}";

    ResultCache cache(dir);
    EXPECT_EQ(cache.stats().scrubOrphanTmps, 1u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "aaaa.json.tmp.12345"));

    // The temp file was never published, and the damaged entries are
    // deleted on first read instead of being served.
    EXPECT_FALSE(cache.lookup("aaaa").has_value());
    EXPECT_FALSE(cache.lookup("bbbb").has_value());
    EXPECT_FALSE(cache.lookup("cccc").has_value());
    EXPECT_EQ(cache.stats().invalidDiskEntries, 2u);
    EXPECT_FALSE(fs::exists(fs::path(dir) / "bbbb.json"));
    EXPECT_FALSE(fs::exists(fs::path(dir) / "cccc.json"));
    EXPECT_EQ(cache.lookup("dddd").value_or(""), "{\"n\": 4}");
    EXPECT_EQ(cache.stats().diskHits, 1u);
}

TEST(ResultCacheRobustness, WriteFailureIsCountedAndServedFromMemory)
{
    // The cache directory disappears under a running daemon: the
    // entry write fails, is counted, and the result is still served
    // from memory on the next identical request.
    const std::string dir = scratchDir("dir_removed");
    ServeOptions opts;
    opts.cacheDir = dir;
    opts.threads = 1;
    ServeDaemon daemon(opts);
    fs::remove_all(dir);

    const std::string request = kmRunRequest("gone");
    const JsonValue cold = JsonValue::parse(daemon.handleRequest(request));
    ASSERT_EQ(cold.at("type").asString(), "result");
    EXPECT_FALSE(cold.at("runs").at(0).at("cached").asBool());
    EXPECT_EQ(daemon.cache().stats().writeFailures, 1u);
    EXPECT_FALSE(fs::exists(dir));

    const JsonValue warm = JsonValue::parse(daemon.handleRequest(request));
    EXPECT_TRUE(warm.at("runs").at(0).at("cached").asBool());
    EXPECT_EQ(daemon.cache().stats().memoryHits, 1u);
    EXPECT_EQ(daemon.simulationsRun(), 1u);
}

TEST(ResultCacheRobustness, RenameFailureIsCountedAndLeavesNoTemp)
{
    // A non-empty directory squats on the entry's final path, so the
    // publishing rename fails after a complete, fsynced temp write.
    const std::string dir = scratchDir("rename_fail");
    fs::create_directories(fs::path(dir) / "aaaa.json" / "squatter");
    ResultCache cache(dir);
    cache.store("aaaa", "{\"n\": 1}");
    EXPECT_EQ(cache.stats().renameFailures, 1u);
    EXPECT_EQ(cache.stats().writeFailures, 0u);
    EXPECT_EQ(tempFiles(dir), 0u);
    EXPECT_EQ(cache.lookup("aaaa").value_or(""), "{\"n\": 1}");
}

TEST(ResultCacheRobustness, UnreadableEntryIsAMissAndKept)
{
    // The entry path opens but cannot be read (it is a directory):
    // that is a miss, not corruption, so nothing is deleted.
    const std::string dir = scratchDir("unreadable");
    fs::create_directories(fs::path(dir) / "aaaa.json");
    ResultCache cache(dir);
    EXPECT_FALSE(cache.lookup("aaaa").has_value());
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().invalidDiskEntries, 0u);
    EXPECT_TRUE(fs::is_directory(fs::path(dir) / "aaaa.json"));
}

// --------------------------------------------------------------------
// Live-socket safety: size cap, I/O deadline, accept failure, backlog.
// --------------------------------------------------------------------

TEST(ServeOverload, OversizeRequestGetsTypedReject)
{
    ServeOptions opts;
    opts.socketPath = socketPath("oversize");
    opts.maxRequestBytes = 256;
    ServeDaemon daemon(opts);
    daemon.start();

    std::string request = "{\"type\": \"ping\", \"pad\": \"";
    request += std::string(512, 'x');
    request += "\"}";
    const std::string response =
        serveRoundTrip(opts.socketPath, request);
    const JsonValue doc = JsonValue::parse(response);
    EXPECT_EQ(doc.at("type").asString(), "error");
    EXPECT_EQ(doc.at("kind").asString(), "RequestTooLarge");
    EXPECT_EQ(daemon.loadStats().rejectedOversize, 1u);

    // A request under the cap still works on the same daemon.
    EXPECT_EQ(responseType(serveRoundTrip(opts.socketPath,
                                          "{\"type\": \"ping\"}")),
              "pong");
    daemon.stop();
}

TEST(ServeOverload, ClientThatNeverSendsEofTimesOut)
{
    // The client writes half a request and never shuts down its write
    // side. The only serving thread must give up at the read deadline,
    // answer with a typed Timeout, and go on serving.
    ServeOptions opts;
    opts.socketPath = socketPath("no_eof");
    opts.ioTimeoutMs = 100;
    ServeDaemon daemon(opts);
    daemon.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s",
                  opts.socketPath.c_str());
    ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof addr),
              0);
    const std::string partial = "{\"type\": \"pi";
    ASSERT_EQ(::write(fd, partial.data(), partial.size()),
              static_cast<ssize_t>(partial.size()));
    std::string response;
    char buf[4096];
    for (ssize_t n; (n = ::read(fd, buf, sizeof buf)) > 0;)
        response.append(buf, static_cast<std::size_t>(n));
    ::close(fd);

    const JsonValue doc = JsonValue::parse(response);
    EXPECT_EQ(doc.at("type").asString(), "error");
    EXPECT_EQ(doc.at("kind").asString(), "Timeout");
    EXPECT_EQ(daemon.loadStats().ioTimeouts, 1u);
    EXPECT_EQ(responseType(serveRoundTrip(opts.socketPath,
                                          "{\"type\": \"ping\"}")),
              "pong");
    daemon.stop();
}

TEST(ServeOverload, AcceptBacksOffThroughFdExhaustion)
{
    // Lower this process's descriptor limit and use up every
    // descriptor but one, which the client's socket then takes: the
    // connection waits in the backlog while accept() fails with
    // EMFILE. The daemon must back off (counted, not spun), then
    // serve the waiting client once descriptors free up.
    ServeOptions opts;
    opts.socketPath = socketPath("emfile");
    ServeDaemon daemon(opts);
    daemon.start();

    // The client thread starts before descriptors run out: thread
    // start-up may need one (sanitizer runtimes open /proc files).
    std::atomic<bool> go{false};
    std::string response;
    std::thread client([&] {
        while (!go.load())
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        response = serveRoundTrip(opts.socketPath, "{\"type\": \"ping\"}");
    });

    int highest = 0;
    for (const auto& e : fs::directory_iterator("/proc/self/fd"))
        highest = std::max(highest,
                           std::stoi(e.path().filename().string()));
    rlimit saved{};
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit low = saved;
    low.rlim_cur = static_cast<rlim_t>(highest + 8);
    const bool limited = ::setrlimit(RLIMIT_NOFILE, &low) == 0;
    EXPECT_TRUE(limited);
    std::vector<int> fillers;
    for (int fd; limited && (fd = ::dup(STDERR_FILENO)) >= 0;)
        fillers.push_back(fd);
    if (!fillers.empty()) {
        ::close(fillers.back()); // the client's socket
        fillers.pop_back();
    }
    go.store(true);

    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::seconds(10);
    while (daemon.loadStats().acceptBackoffs < 2 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    for (const int fd : fillers)
        ::close(fd);
    if (limited)
        ::setrlimit(RLIMIT_NOFILE, &saved);
    client.join();

    EXPECT_EQ(responseType(response), "pong");
    EXPECT_GE(daemon.loadStats().acceptBackoffs, 2u);
    daemon.stop();
}

TEST(ServeOverload, ConcurrentClientsWaitInTheBacklog)
{
    // One serving thread, four clients at once: the listen backlog
    // queues them and every one gets its result.
    ServeOptions opts;
    opts.socketPath = socketPath("burst");
    opts.threads = 1;
    ServeDaemon daemon(opts);
    daemon.start();

    const std::string request = kmRunRequest("burst");
    std::vector<std::string> responses(4);
    std::vector<std::thread> clients;
    for (std::string& response : responses)
        clients.emplace_back([&] {
            response = serveRoundTrip(opts.socketPath, request);
        });
    for (std::thread& t : clients)
        t.join();
    for (const std::string& response : responses)
        EXPECT_EQ(responseType(response), "result");
    EXPECT_EQ(daemon.simulationsRun(), 1u); // the rest hit the cache
    EXPECT_EQ(daemon.loadStats().requestsServed, 4u);
    daemon.stop();
}

TEST(ServeOverload, StatsResponseCarriesRobustnessCounters)
{
    const std::string dir = scratchDir("stats_counters");
    std::ofstream(fs::path(dir) / "aaaa.json.tmp.1") << "{";
    ServeOptions opts;
    opts.cacheDir = dir;
    ServeDaemon daemon(opts);
    const JsonValue doc =
        JsonValue::parse(daemon.handleRequest("{\"type\": \"stats\"}"));
    const JsonValue& cache = doc.at("cache");
    EXPECT_EQ(cache.at("scrubOrphanTmps").asUint64(), 1u);
    for (const char* key : {"writeFailures", "fsyncFailures",
                            "renameFailures", "invalidDiskEntries"})
        EXPECT_EQ(cache.at(key).asUint64(), 0u) << key;
    const JsonValue& server = doc.at("server");
    for (const char* key : {"requestsServed", "rejectedOversize",
                            "ioTimeouts", "acceptBackoffs"})
        EXPECT_EQ(server.at(key).asUint64(), 0u) << key;
}

} // namespace
} // namespace apres
