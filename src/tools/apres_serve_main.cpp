/**
 * @file
 * apres_serve — the simulation service daemon.
 *
 * Accepts batched run requests as JSON over a local AF_UNIX socket
 * and memoizes results in a two-tier content-addressed cache, so
 * repeated configurations are served in O(1) without re-simulating.
 *
 *   apres_serve --socket /tmp/apres.sock --cache-dir ~/.cache/apres
 *
 * Submit work with the apres_sim client mode:
 *
 *   apres_sim --connect /tmp/apres.sock --workload KM --apres --json
 *
 * or with any tool that speaks the protocol (see DESIGN.md
 * "Simulation service"). Stop it with a {"type":"shutdown"} request
 * or SIGINT/SIGTERM.
 */

#include <atomic>
#include <csignal>
#include <iostream>
#include <string>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/sim_error.hpp"
#include "serve/daemon.hpp"

using namespace apres;

namespace {

std::atomic<ServeDaemon*> g_daemon{nullptr};

void
onSignal(int)
{
    // async-signal-safe: just request the stop; the poll loop notices.
    if (ServeDaemon* daemon = g_daemon.load())
        daemon->requestStop();
}

void
printHelp()
{
    std::cout <<
        "apres_serve - APRES simulation service with a "
        "content-addressed result cache\n\n"
        "usage: apres_serve --socket PATH [options]\n\n"
        "  --socket PATH          AF_UNIX socket to listen on "
        "(required)\n"
        "  --cache-dir DIR        persistent cache directory (default: "
        "in-memory only)\n"
        "  --threads N            worker threads per batch (default: "
        "hardware concurrency)\n"
        "  --fingerprint S        override the cache schema "
        "fingerprint\n"
        "                         (also: APRES_SERVE_FINGERPRINT env "
        "var)\n"
        "  --io-timeout-ms N      socket read/write deadline; 0 "
        "disables (default: 10000)\n"
        "  --max-request-bytes N  reject larger requests "
        "(default: 16 MiB)\n"
        "  --help                 this text\n\n"
        "Requests are one JSON document per connection, served one at\n"
        "a time; see DESIGN.md \"Simulation service\" for the protocol\n"
        "and cache-key anatomy.\n";
}

int
run(int argc, char** argv)
{
    ServeOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("option " + arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            printHelp();
            return 0;
        } else if (arg == "--socket") {
            opts.socketPath = next();
        } else if (arg == "--cache-dir") {
            opts.cacheDir = next();
        } else if (arg == "--threads") {
            const std::uint64_t threads = parseUintOption(arg, next());
            if (threads > 4096)
                fatal("--threads must be at most 4096");
            opts.threads = static_cast<int>(threads);
        } else if (arg == "--fingerprint") {
            opts.fingerprint = next();
        } else if (arg == "--io-timeout-ms") {
            opts.ioTimeoutMs = parseUintOption(arg, next());
        } else if (arg == "--max-request-bytes") {
            opts.maxRequestBytes = parsePositiveUintOption(arg, next());
        } else {
            fatal("unknown option: " + arg + " (try --help)");
        }
    }
    if (opts.socketPath.empty())
        fatal("apres_serve: --socket PATH is required (try --help)");

    ServeDaemon daemon(opts);
    daemon.start();
    g_daemon.store(&daemon);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    std::cerr << "[apres-serve] listening on " << opts.socketPath
              << (opts.cacheDir.empty()
                      ? std::string(" (in-memory cache)")
                      : " (cache dir " + opts.cacheDir + ")")
              << "\n";
    daemon.wait();
    g_daemon.store(nullptr);
    daemon.stop();

    const ResultCacheStats stats = daemon.cache().stats();
    std::cerr << "[apres-serve] served " << stats.hits() << " hit(s), "
              << stats.misses << " miss(es), ran "
              << daemon.simulationsRun() << " simulation(s)\n";
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const SimError& e) {
        std::cerr << "apres_serve: " << e.what() << '\n';
        return 1;
    }
}
