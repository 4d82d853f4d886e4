/**
 * @file
 * Daemon implementation: a single-threaded socket loop with I/O
 * deadlines + batch handling over the result cache and the sweep
 * worker pool.
 */

#include "daemon.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <sstream>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/json.hpp"
#include "common/log.hpp"
#include "common/sim_error.hpp"
#include "isa/kernel_text.hpp"
#include "sim/config_registry.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace apres {

namespace {

using Clock = std::chrono::steady_clock;

/** Wrap errno into a config-kind SimError with a prefix. */
[[noreturn]] void
throwErrno(const std::string& what)
{
    throwConfigError(what + ": " + std::strerror(errno));
}

sockaddr_un
socketAddress(const std::string& path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path)
        throwConfigError("socket path too long (max " +
                         std::to_string(sizeof addr.sun_path - 1) +
                         " bytes): " + path);
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

enum class IoOutcome { kOk, kTooLarge, kTimeout, kError };

/**
 * Arm SO_RCVTIMEO/SO_SNDTIMEO with the time left until @p deadline.
 * False once the deadline has passed. A zero @p timeout_ms means no
 * deadline: nothing is armed.
 */
bool
armDeadline(int fd, int option, std::uint64_t timeout_ms,
            Clock::time_point deadline)
{
    if (timeout_ms == 0)
        return true;
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        deadline - Clock::now())
                        .count();
    if (ms <= 0)
        return false;
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    ::setsockopt(fd, SOL_SOCKET, option, &tv, sizeof tv);
    return true;
}

/**
 * Read to EOF (the peer shut down its write side) under a total
 * deadline and a size limit. An oversized request keeps being drained
 * (discarded) until EOF so the client can finish writing and still
 * receive the typed reject, but nothing past the limit is buffered.
 */
IoOutcome
readToEof(int fd, std::uint64_t max_bytes, std::uint64_t timeout_ms,
          std::string* out, int* err_out)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    bool too_large = false;
    char buf[16384];
    for (;;) {
        if (!armDeadline(fd, SO_RCVTIMEO, timeout_ms, deadline))
            return IoOutcome::kTimeout;
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return IoOutcome::kTimeout;
            *err_out = errno;
            return IoOutcome::kError;
        }
        if (n == 0)
            return too_large ? IoOutcome::kTooLarge : IoOutcome::kOk;
        if (!too_large) {
            out->append(buf, static_cast<std::size_t>(n));
            if (out->size() > max_bytes) {
                too_large = true;
                out->clear();
            }
        }
    }
}

/**
 * Write all of @p text under a total deadline. MSG_NOSIGNAL: a peer
 * that hung up turns into an EPIPE error instead of a process-killing
 * SIGPIPE.
 */
IoOutcome
writeFully(int fd, const std::string& text, std::uint64_t timeout_ms,
           int* err_out)
{
    const Clock::time_point deadline =
        Clock::now() + std::chrono::milliseconds(timeout_ms);
    std::size_t off = 0;
    while (off < text.size()) {
        if (!armDeadline(fd, SO_SNDTIMEO, timeout_ms, deadline))
            return IoOutcome::kTimeout;
        const ssize_t n = ::send(fd, text.data() + off,
                                 text.size() - off, MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return IoOutcome::kTimeout;
            *err_out = errno;
            return IoOutcome::kError;
        }
        off += static_cast<std::size_t>(n);
    }
    return IoOutcome::kOk;
}

bool
knownWorkload(const std::string& name)
{
    const auto& names = allWorkloadNames();
    return std::find(names.begin(), names.end(), name) != names.end();
}

/** Per-job batch bookkeeping. */
struct BatchEntry
{
    std::string key;      ///< cache key; empty when the job is invalid
    std::string payload;  ///< serialized result (hit or fresh)
    bool cached = false;
    std::size_t runIndex = static_cast<std::size_t>(-1); ///< miss slot
};

} // namespace

ServeDaemon::ServeDaemon(ServeOptions options)
    : opts_(std::move(options)),
      fingerprint_(opts_.fingerprint.empty() ? serveFingerprint()
                                             : opts_.fingerprint),
      cache_(opts_.cacheDir)
{
}

ServeDaemon::~ServeDaemon()
{
    stop();
}

void
ServeDaemon::start()
{
    if (running_.load())
        fatal("ServeDaemon::start called twice");
    if (opts_.socketPath.empty())
        throwConfigError("apres_serve: no socket path configured");

    const sockaddr_un addr = socketAddress(opts_.socketPath);
    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        throwErrno("socket");
    // A stale socket file from a dead daemon would make bind fail;
    // unlink first (a live daemon on the path will still conflict at
    // connect time, which is the better failure mode).
    ::unlink(opts_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<const sockaddr*>(&addr),
               sizeof addr) != 0) {
        const int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        errno = saved;
        throwErrno("bind " + opts_.socketPath);
    }
    if (::listen(listenFd_, 64) != 0) {
        const int saved = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        errno = saved;
        throwErrno("listen " + opts_.socketPath);
    }

    stopRequested_.store(false);
    running_.store(true);
    loop_ = std::thread([this] { serveLoop(); });
}

void
ServeDaemon::stop()
{
    stopRequested_.store(true);
    wait();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(opts_.socketPath.c_str());
    }
    running_.store(false);
}

void
ServeDaemon::wait()
{
    if (loop_.joinable())
        loop_.join();
}

void
ServeDaemon::serveLoop()
{
    // EMFILE/ENFILE backoff state: fd exhaustion is an environmental
    // episode, not a per-iteration event — log it once and nap with
    // exponential growth instead of spamming at poll frequency.
    std::uint64_t fdBackoffMs = 0;
    bool fdEpisodeLogged = false;

    while (!stopRequested_.load()) {
        // Poll with a timeout so a stop()/shutdown request is noticed
        // even when no client ever connects.
        pollfd pfd{listenFd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, 200 /* ms */);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            logWarn("apres_serve: poll failed: ", std::strerror(errno));
            break;
        }
        if (ready == 0)
            continue;

        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            const int err = errno;
            if (err == EINTR)
                continue;
            if (err == EMFILE || err == ENFILE || err == ENOMEM ||
                err == ENOBUFS) {
                if (!fdEpisodeLogged) {
                    logWarn("apres_serve: accept failed (",
                            std::strerror(err),
                            "); backing off until descriptors free up");
                    fdEpisodeLogged = true;
                }
                fdBackoffMs = std::min<std::uint64_t>(
                    fdBackoffMs == 0 ? 25 : fdBackoffMs * 2, 1000);
                acceptBackoffs_.fetch_add(1,
                                          std::memory_order_relaxed);
                // Nap in slices so a stop request stays responsive.
                for (std::uint64_t slept = 0;
                     slept < fdBackoffMs && !stopRequested_.load();
                     slept += 25) {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(25));
                }
                continue;
            }
            logWarn("apres_serve: accept failed: ", std::strerror(err));
            continue;
        }
        if (fdEpisodeLogged)
            logWarn("apres_serve: accept recovered");
        fdBackoffMs = 0;
        fdEpisodeLogged = false;

        handleConnection(fd);
        ::close(fd);
        requestsServed_.fetch_add(1, std::memory_order_relaxed);
    }
    running_.store(false);
}

void
ServeDaemon::handleConnection(int fd)
{
    std::string response;
    try {
        std::string request;
        int err = 0;
        switch (readToEof(fd, opts_.maxRequestBytes, opts_.ioTimeoutMs,
                          &request, &err)) {
          case IoOutcome::kOk:
            response = handleRequest(request);
            break;
          case IoOutcome::kTooLarge:
            rejectedOversize_.fetch_add(1, std::memory_order_relaxed);
            response = errorResponse(
                "RequestTooLarge",
                "request exceeds maxRequestBytes = " +
                    std::to_string(opts_.maxRequestBytes) + " bytes");
            break;
          case IoOutcome::kTimeout:
            ioTimeouts_.fetch_add(1, std::memory_order_relaxed);
            response = errorResponse(
                "Timeout",
                "request not complete within ioTimeoutMs = " +
                    std::to_string(opts_.ioTimeoutMs) + " ms");
            break;
          case IoOutcome::kError:
            logWarn("apres_serve: request read failed: ",
                    std::strerror(err));
            response = errorResponse("InternalError",
                                     std::string("request read failed: ") +
                                         std::strerror(err));
            break;
        }
    } catch (const SimError& e) {
        response = errorResponse(e.kindName(), e.detail());
    } catch (const std::exception& e) {
        response = errorResponse("InternalError", e.what());
    }

    int err = 0;
    switch (writeFully(fd, response, opts_.ioTimeoutMs, &err)) {
      case IoOutcome::kOk:
        break;
      case IoOutcome::kTimeout:
        ioTimeouts_.fetch_add(1, std::memory_order_relaxed);
        logWarn("apres_serve: response write timed out; client too "
                "slow or gone");
        break;
      default:
        logWarn("apres_serve: client went away mid-response: ",
                std::strerror(err));
        break;
    }
}

ServeLoadStats
ServeDaemon::loadStats() const
{
    ServeLoadStats s;
    s.requestsServed = requestsServed_.load(std::memory_order_relaxed);
    s.rejectedOversize =
        rejectedOversize_.load(std::memory_order_relaxed);
    s.ioTimeouts = ioTimeouts_.load(std::memory_order_relaxed);
    s.acceptBackoffs = acceptBackoffs_.load(std::memory_order_relaxed);
    return s;
}

std::string
ServeDaemon::handleRequest(const std::string& request_json)
{
    ServeRequest request;
    try {
        request = parseServeRequest(request_json);
    } catch (const SimError& e) {
        return errorResponse(e.kindName(), e.detail());
    }

    std::ostringstream os;
    JsonWriter json(os);
    switch (request.type) {
      case ServeRequest::Type::kPing:
        json.beginObject();
        json.field("type", "pong");
        json.field("fingerprint", fingerprint_);
        json.endObject();
        json.finish();
        return os.str();

      case ServeRequest::Type::kStats: {
        const ResultCacheStats stats = cache_.stats();
        const ServeLoadStats load = loadStats();
        json.beginObject();
        json.field("type", "stats");
        json.field("fingerprint", fingerprint_);
        json.beginObject("cache");
        json.field("memoryHits", stats.memoryHits);
        json.field("diskHits", stats.diskHits);
        json.field("misses", stats.misses);
        json.field("stores", stats.stores);
        json.field("invalidDiskEntries", stats.invalidDiskEntries);
        json.field("memoryEntries",
                   static_cast<std::uint64_t>(cache_.memoryEntries()));
        json.field("writeFailures", stats.writeFailures);
        json.field("fsyncFailures", stats.fsyncFailures);
        json.field("renameFailures", stats.renameFailures);
        json.field("scrubOrphanTmps", stats.scrubOrphanTmps);
        json.endObject();
        json.beginObject("server");
        json.field("requestsServed", load.requestsServed);
        json.field("rejectedOversize", load.rejectedOversize);
        json.field("ioTimeouts", load.ioTimeouts);
        json.field("acceptBackoffs", load.acceptBackoffs);
        json.endObject();
        json.field("simulations", simulationsRun());
        json.endObject();
        json.finish();
        return os.str();
      }

      case ServeRequest::Type::kShutdown:
        stopRequested_.store(true);
        json.beginObject();
        json.field("type", "bye");
        json.endObject();
        json.finish();
        return os.str();

      case ServeRequest::Type::kRun:
        return handleRun(request);
    }
    return errorResponse("InternalError", "unreachable request type");
}

std::string
ServeDaemon::handleRun(const ServeRequest& request)
{
    std::vector<BatchEntry> entries(request.jobs.size());

    // Phase 1: resolve each job to a cache key and try the cache.
    // Invalid jobs (bad override, unknown workload, malformed kernel
    // text) become error payloads immediately — they are never keyed,
    // cached or executed.
    RunnerOptions runner_opts;
    runner_opts.threads = opts_.threads;
    runner_opts.seedMode = SeedMode::kUseConfigSeed;
    runner_opts.keepGoing = true; // errors become rows, batch completes
    runner_opts.retries = request.retries;
    runner_opts.jobTimeoutSeconds = request.timeoutSeconds;
    SweepRunner runner(runner_opts);
    std::vector<std::size_t> missEntry; // runner index -> entry index

    for (std::size_t i = 0; i < request.jobs.size(); ++i) {
        const ServeJobSpec& spec = request.jobs[i];
        BatchEntry& entry = entries[i];
        try {
            SweepJob job;
            job.label = spec.label;
            ConfigRegistry registry(job.config);
            for (const auto& [key, value] : spec.overrides)
                registry.set(key, value);

            std::shared_ptr<const Kernel> kernel;
            if (!spec.kernelText.empty()) {
                kernel = std::make_shared<const Kernel>(
                    parseKernelText(spec.kernelText));
            } else {
                if (!knownWorkload(spec.workload))
                    throwConfigError("unknown workload \"" +
                                     spec.workload + "\"");
                kernel = std::make_shared<const Kernel>(
                    makeWorkload(spec.workload, spec.scale).kernel);
            }
            job.kernel = std::move(kernel);

            entry.key = computeCacheKey(fingerprint_,
                                        kernelFingerprint(spec),
                                        registry.semanticSnapshot());
            if (std::optional<std::string> hit = cache_.lookup(entry.key)) {
                entry.cached = true;
                entry.payload = std::move(*hit);
            } else {
                entry.runIndex = runner.submit(std::move(job));
                missEntry.push_back(i);
            }
        } catch (const SimError& e) {
            RunResult r;
            r.status = "error";
            r.errorKind = e.kindName();
            r.errorDetail = e.detail();
            entry.payload = serializeRunResult(r);
        }
    }

    // Phase 2: simulate the misses across the worker pool.
    if (runner.size() > 0) {
        simulations_.fetch_add(runner.size(), std::memory_order_relaxed);
        const std::vector<SweepResult> results = runner.runAll();
        for (std::size_t m = 0; m < missEntry.size(); ++m) {
            BatchEntry& entry = entries[missEntry[m]];
            const RunResult& r = results[entry.runIndex].result;
            entry.payload = serializeRunResult(r);
            // Only clean results are memoized: an error or timeout is
            // environmental/diagnostic and must re-run next time.
            if (r.status == "ok")
                cache_.store(entry.key, entry.payload);
        }
    }

    // Phase 3: assemble the response; cached payloads are spliced
    // verbatim so repeated requests stay bitwise identical.
    const ResultCacheStats stats = cache_.stats();
    std::ostringstream os;
    JsonWriter json(os);
    json.beginObject();
    json.field("type", "result");
    json.field("fingerprint", fingerprint_);
    json.beginObject("cache");
    json.field("memoryHits", stats.memoryHits);
    json.field("diskHits", stats.diskHits);
    json.field("misses", stats.misses);
    json.endObject();
    json.field("simulations", simulationsRun());
    json.beginArray("runs");
    for (std::size_t i = 0; i < entries.size(); ++i) {
        json.beginObject();
        json.field("label", request.jobs[i].label);
        if (!entries[i].key.empty())
            json.field("key", entries[i].key);
        json.field("cached", entries[i].cached);
        json.raw("result", entries[i].payload);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.finish();
    return os.str();
}

std::string
serveRoundTrip(const std::string& socket_path,
               const std::string& request_json)
{
    const sockaddr_un addr = socketAddress(socket_path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket");
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
        const int saved = errno;
        ::close(fd);
        errno = saved;
        throwErrno("connect " + socket_path);
    }
    int err = 0;
    const char* failed = nullptr;
    std::string response;
    if (writeFully(fd, request_json, 0, &err) != IoOutcome::kOk)
        failed = "write";
    else if (::shutdown(fd, SHUT_WR) != 0) {
        err = errno;
        failed = "shutdown";
    } else if (readToEof(fd, UINT64_MAX, 0, &response, &err) !=
               IoOutcome::kOk)
        failed = "read";
    ::close(fd);
    if (failed) {
        errno = err;
        throwErrno(failed);
    }
    return response;
}

} // namespace apres
