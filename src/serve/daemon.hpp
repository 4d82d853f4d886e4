/**
 * @file
 * apres_serve: a long-running simulation service over a local socket.
 *
 * The daemon accepts batched run requests as JSON over an AF_UNIX
 * stream socket (protocol.hpp), answers cache hits straight from the
 * two-tier content-addressed ResultCache, and runs the misses across
 * the existing sweep worker pool (SweepRunner in
 * SeedMode::kUseConfigSeed, so a job's identity never depends on its
 * batch position). Every uncached "ok" result is serialized
 * canonically, stored under its content hash, and — on every later
 * request for the same semantic configuration — returned
 * bitwise-identical with zero re-simulation.
 *
 * Framing: one request per connection. The client writes the request
 * document and shuts down its write side; the daemon reads to EOF,
 * responds, and closes.
 *
 * The accept thread serves each connection itself: read, handle,
 * write, close. Clients send one request at a time, so the kernel's
 * listen backlog is the only queue needed. Because a stuck client
 * would block that one thread, socket reads and writes carry
 * deadlines (ioTimeoutMs), and requests over maxRequestBytes are
 * rejected with a typed RequestTooLarge error. accept() running out of
 * file descriptors (EMFILE/ENFILE) backs off exponentially instead of
 * spinning at poll frequency.
 *
 * ServeDaemon::handleRequest is the transport-free core: tests and
 * the socket loop share it, so protocol/cache behavior is exercised
 * without sockets.
 */

#ifndef APRES_SERVE_DAEMON_HPP
#define APRES_SERVE_DAEMON_HPP

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>

#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"

namespace apres {

/** Daemon configuration; apres_serve sets each field from one flag. */
struct ServeOptions
{
    /** Filesystem path of the AF_UNIX listening socket. */
    std::string socketPath;

    /** Persistent cache directory; empty keeps the cache in memory. */
    std::string cacheDir;

    /** Worker threads per batch; <= 0 selects defaultJobCount(). */
    int threads = 0;

    /**
     * Schema fingerprint embedded in every cache key; empty selects
     * serveFingerprint(). Tests flip this to prove invalidation.
     */
    std::string fingerprint;

    /** Requests larger than this are rejected (RequestTooLarge). */
    std::uint64_t maxRequestBytes = 16ull * 1024 * 1024;

    /** Per-connection socket read/write deadline; 0 disables. */
    std::uint64_t ioTimeoutMs = 10000;
};

/** Serving-layer counters (one snapshot; monotonically growing). */
struct ServeLoadStats
{
    std::uint64_t requestsServed = 0;   ///< connections fully handled
    std::uint64_t rejectedOversize = 0; ///< over maxRequestBytes
    std::uint64_t ioTimeouts = 0;       ///< read/write deadline hit
    std::uint64_t acceptBackoffs = 0;   ///< EMFILE/ENFILE backoff naps
};

class ServeDaemon
{
  public:
    /** Builds the cache (and its directory); does not open sockets. */
    explicit ServeDaemon(ServeOptions options);
    ~ServeDaemon();

    ServeDaemon(const ServeDaemon&) = delete;
    ServeDaemon& operator=(const ServeDaemon&) = delete;

    /**
     * Bind the socket and start the serving thread. Throws
     * SimError(kConfig) when the socket cannot be bound (stale paths
     * are unlinked first).
     */
    void start();

    /**
     * Stop accepting, finish the request in hand, join the serving
     * thread and unlink the socket. Idempotent.
     */
    void stop();

    /**
     * Ask the serving loop to exit without blocking or allocating —
     * safe from a signal handler. Follow with stop()/wait() to join.
     */
    void requestStop() { stopRequested_.store(true); }

    /** Block until a shutdown request (or stop()) ends the loop. */
    void wait();

    /** True from start() until shutdown/stop. */
    bool running() const { return running_.load(); }

    /**
     * The transport-free request handler: one request document in,
     * one response document out. Malformed requests become
     * {"type":"error", ...} responses; only transport failures and
     * daemon-construction errors throw.
     */
    std::string handleRequest(const std::string& request_json);

    const ResultCache& cache() const { return cache_; }

    /** Serving-layer counters (rejects, timeouts, accept backoffs). */
    ServeLoadStats loadStats() const;

    /**
     * Simulations actually executed since construction — the
     * instrumented counter behind the "zero re-simulation on a warm
     * batch" guarantee (it must not move when every job hits).
     */
    std::uint64_t simulationsRun() const
    {
        return simulations_.load(std::memory_order_relaxed);
    }

    const ServeOptions& options() const { return opts_; }

  private:
    void serveLoop();
    void handleConnection(int fd);
    std::string handleRun(const ServeRequest& request);

    ServeOptions opts_;
    std::string fingerprint_;
    ResultCache cache_;
    std::atomic<std::uint64_t> simulations_{0};
    std::atomic<bool> running_{false};
    std::atomic<bool> stopRequested_{false};
    int listenFd_ = -1;

    std::atomic<std::uint64_t> requestsServed_{0};
    std::atomic<std::uint64_t> rejectedOversize_{0};
    std::atomic<std::uint64_t> ioTimeouts_{0};
    std::atomic<std::uint64_t> acceptBackoffs_{0};

    std::thread loop_; ///< last: it uses every member above
};

/**
 * Client side: connect to @p socket_path, send @p request_json, shut
 * down the write side and return the daemon's response document.
 * Throws SimError(kConfig) on connection/transport failure.
 */
std::string serveRoundTrip(const std::string& socket_path,
                           const std::string& request_json);

} // namespace apres

#endif // APRES_SERVE_DAEMON_HPP
