/**
 * @file
 * serve-replay: one closed-loop client against a fresh apres_serve
 * daemon (2 worker threads, empty cache directory). Each distinct cell
 * is sent once as a miss, then the cells are repeated as hits.
 *
 * A round starts the daemon and waits for its first pong (set-up),
 * sends every request (timed), then shuts the daemon down and collects
 * its CPU time and peak RSS. Every hit must be byte-identical to its
 * miss, every miss to an in-process JobExecutor run of the same cell,
 * and the daemon must simulate exactly the distinct cells.
 */

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <sstream>
#include <thread>
#include <tuple>

#include "bench.hpp"
#include "common/json_value.hpp"
#include "isa/address_gen.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/result_cache.hpp"
#include "sim/config_registry.hpp"
#include "sim/job_executor.hpp"
#include "workloads/workload.hpp"

extern char** environ;

namespace apresbench {
namespace {

constexpr const char* kApps[] = {"KM", "BFS", "PF", "BP", "SPMV", "HISTO"};
constexpr std::pair<const char*, const char*> kPolicies[] = {
    {"lrr", "none"}, {"laws", "sap"}};
constexpr double kScale = 0.02;
constexpr int kHitsPerCell = 20;
constexpr int kTransportPings = 50;
constexpr int kReplayReps = 20;

struct ServeCell
{
    std::string app;
    std::string sched;
    std::string pf;
    std::uint64_t seed;
    std::string request;
};

std::vector<ServeCell>
makeCells(std::uint64_t bench_seed)
{
    std::vector<ServeCell> cells;
    for (const char* app : kApps) {
        for (const auto& [sched, pf] : kPolicies) {
            ServeCell c{app, sched, pf,
                        apres::mix64(bench_seed, cells.size(), 0x5E4E) | 1,
                        ""};
            std::ostringstream os;
            os << "{\"type\": \"run\", \"jobs\": [{\"label\": \"" << app
               << '/' << sched << '+' << pf << "\", \"workload\": \"" << app
               << "\", \"scale\": " << kScale
               << ", \"overrides\": {\"scheduler\": \"" << sched
               << "\", \"prefetcher\": \"" << pf << "\", \"seed\": \""
               << c.seed << "\"}}]}";
            c.request = os.str();
            cells.push_back(std::move(c));
        }
    }
    return cells;
}

/** The cell's job as the daemon builds it. */
apres::SweepJob
jobOf(const ServeCell& c)
{
    apres::SweepJob job;
    apres::ConfigRegistry reg(job.config);
    reg.set("scheduler", c.sched);
    reg.set("prefetcher", c.pf);
    reg.set("seed", std::to_string(c.seed));
    job.kernel = std::make_shared<const apres::Kernel>(
        apres::makeWorkload(c.app, kScale).kernel);
    job.label = c.app;
    return job;
}

/** A running apres_serve child; terminated and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const std::string& bin, const std::string& socket,
           const std::string& cache_dir, const std::string& log)
        : socket_(socket)
    {
        const std::vector<std::string> argv_s = {
            bin, "--socket", socket, "--cache-dir", cache_dir, "--threads",
            "2"};
        std::vector<char*> argv;
        for (const std::string& a : argv_s)
            argv.push_back(const_cast<char*>(a.c_str()));
        argv.push_back(nullptr);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const int rc =
            posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        if (rc != 0)
            throw std::runtime_error("cannot start " + bin);
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ::kill(pid_, SIGKILL);
            ::waitpid(pid_, nullptr, 0);
        }
    }

    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    /** Ping until the daemon answers; throws after 10 s. */
    void waitReady() const
    {
        const double deadline = now() + 10.0;
        for (;;) {
            try {
                if (apres::serveRoundTrip(socket_, "{\"type\": \"ping\"}")
                        .find("pong") != std::string::npos)
                    return;
            } catch (const std::exception&) {
                if (now() > deadline)
                    throw;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }

    /** Send shutdown and reap; @return the daemon's resource usage. */
    rusage stop()
    {
        rusage ru{};
        apres::serveRoundTrip(socket_, "{\"type\": \"shutdown\"}");
        int status = 0;
        ::wait4(pid_, &status, 0, &ru);
        pid_ = -1;
        return ru;
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

double
cpuOf(const rusage& ru)
{
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
               1e-6;
}

} // namespace

Outcome
runServeReplay(const Args& args, Spans& spans)
{
    namespace fs = std::filesystem;
    Outcome out;
    if (args.serveBin.empty())
        throw std::runtime_error("serve-replay needs --serve-bin");
    const std::vector<ServeCell> cells = makeCells(args.seed);

    // Hit order: every cell kHitsPerCell times, shuffled by the seed.
    std::vector<std::size_t> hit_order;
    for (int h = 0; h < kHitsPerCell; ++h) {
        for (std::size_t i = 0; i < cells.size(); ++i)
            hit_order.push_back(i);
    }
    apres::Rng rng(apres::mix64(args.seed, 0x417, 0x0D3E));
    for (std::size_t i = hit_order.size(); i > 1; --i)
        std::swap(hit_order[i - 1], hit_order[rng.nextBounded(i)]);

    // In-process reference runs of every cell (outside any timed phase).
    std::vector<apres::RunResult> reference;
    std::vector<std::string> reference_payload;
    double sim_instr_per_round = 0.0;
    std::map<std::string, double> layer_counts;
    {
        const apres::JobExecutor executor;
        for (const ServeCell& c : cells) {
            const apres::SweepJob job = jobOf(c);
            apres::RunResult r = executor.execute(job, c.seed).result;
            const auto bad = checkRun("serve-replay in-process " + c.app + "/" +
                                          c.sched, r,
                                      expectedInstructions(*job.kernel,
                                                           job.config));
            out.failures.insert(out.failures.end(), bad.begin(), bad.end());
            sim_instr_per_round += static_cast<double>(r.instructions);
            addLayerCounts(layer_counts, r);
            // The daemon splices the payload without its trailing newline.
            std::string payload = apres::serializeRunResult(r);
            while (!payload.empty() && std::isspace(
                                           static_cast<unsigned char>(payload.back())))
                payload.pop_back();
            reference_payload.push_back(std::move(payload));
            reference.push_back(std::move(r));
        }
    }

    const std::string socket = args.workDir + "/serve.sock";
    std::vector<double> hits_ms, misses_ms, response_bytes;
    double miss_seconds = 0.0, sim_instr = 0.0, peak_rss = 0.0;
    double memory_hits = 0.0, simulations = 0.0;

    runRounds(args, spans, out, [&](int round, Spans& sp) {
        const std::string cache_dir = args.workDir + "/serve-cache";
        fs::remove_all(cache_dir);
        fs::remove(socket);

        const double t_setup = now();
        std::unique_ptr<Daemon> daemon;
        {
            Scope scope(sp, "serve.daemon_start");
            daemon = std::make_unique<Daemon>(args.serveBin, socket, cache_dir,
                                              args.workDir + "/serve.log");
            daemon->waitReady();
        }
        out.setupSeconds.push_back(now() - t_setup);

        // (cell, hit?, response) in send order; checked after the timed
        // phase so checking costs no request latency.
        std::vector<std::tuple<std::size_t, bool, std::string>> sent;
        sent.reserve(cells.size() + hit_order.size());
        auto send = [&](std::size_t i, bool hit) {
            const double t = now();
            std::string response;
            {
                Scope scope(sp, hit ? "serve.hit" : "serve.miss");
                response = apres::serveRoundTrip(socket, cells[i].request);
            }
            const double secs = now() - t;
            (hit ? hits_ms : misses_ms).push_back(secs * 1e3);
            if (!hit)
                miss_seconds += secs;
            sent.emplace_back(i, hit, std::move(response));
        };
        Timed timed = timePhase([&] {
            for (std::size_t i = 0; i < cells.size(); ++i)
                send(i, false);
            for (const std::size_t i : hit_order)
                send(i, true);
        });
        peak_rss = std::max(peak_rss, peakRssMb());

        if (sp.enabled()) {
            for (int p = 0; p < kTransportPings; ++p) {
                Scope scope(sp, "serve.transport");
                apres::serveRoundTrip(socket, "{\"type\": \"ping\"}");
            }
        }
        const rusage ru = daemon->stop();
        daemon.reset();
        timed.cpu += cpuOf(ru);
        peak_rss = std::max(peak_rss, static_cast<double>(ru.ru_maxrss) / 1024.0);
        sim_instr += sim_instr_per_round;

        std::vector<std::string> miss_payload(cells.size());
        for (const auto& [i, hit, response] : sent) {
            ++out.attempted;
            const std::string what = std::string("serve-replay ") +
                                     (hit ? "hit " : "miss ") + cells[i].app +
                                     "/" + cells[i].sched;
            const std::string payload = rawResultPayload(response);
            bool ok = false;
            try {
                const apres::JsonValue doc = apres::JsonValue::parse(response);
                const apres::JsonValue& run = doc.at("runs").at(0);
                ok = run.at("result").at("status").asString() == "ok";
                if (run.at("cached").asBool() != hit)
                    out.failures.push_back(what + ": cached flag is wrong");
            } catch (const std::exception& e) {
                out.failures.push_back(what + ": " + e.what());
            }
            if (!ok) {
                ++out.failed;
                out.failures.push_back(what + ": no ok result");
            }
            if (hit)
                response_bytes.push_back(static_cast<double>(response.size()));
            if (!hit)
                miss_payload[i] = payload;
            else if (payload != miss_payload[i])
                out.failures.push_back(what + ": differs from its miss");
        }
        const std::string& last_response = std::get<2>(sent.back());
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const std::string& a = miss_payload[i];
            const std::string& b = reference_payload[i];
            if (a != b) {
                std::size_t at = 0;
                while (at < a.size() && at < b.size() && a[at] == b[at])
                    ++at;
                const std::size_t from = at > 60 ? at - 60 : 0;
                std::string msg =
                    "serve-replay " + cells[i].app + "/" + cells[i].sched +
                    ": differs from in-process run at byte " +
                    std::to_string(at) + ": ..." + a.substr(from, 100) +
                    " vs ..." + b.substr(from, 100);
                std::replace(msg.begin(), msg.end(), '\n', ' ');
                out.failures.push_back(msg);
            }
        }
        const apres::JsonValue last = apres::JsonValue::parse(last_response);
        simulations = last.at("simulations").asDouble();
        memory_hits = last.at("cache").at("memoryHits").asDouble();
        if (simulations != static_cast<double>(cells.size()))
            out.failures.push_back(
                "serve-replay: daemon simulated " +
                std::to_string(static_cast<long long>(simulations)) +
                " cells, " + std::to_string(cells.size()) + " distinct");
        std::map<std::string, double> counts = layer_counts;
        counts["serve.simulations"] = simulations;
        counts["serve.memory_hits"] = memory_hits;
        counts["serve.requests"] =
            static_cast<double>(cells.size() + hit_order.size());
        recordCounts(out, counts, round == 0);
        return timed;
    });

    auto& m = out.metrics;
    m.push_back({"sim_minstr_per_s",
                 miss_seconds > 0.0 ? sim_instr / miss_seconds / 1e6 : 0.0,
                 "Minstr/s"});
    m.push_back({"peak_rss_mb", peak_rss, "MB"});
    if (args.trace) {
        // Outside-in replays of the daemon's per-request steps, on the
        // same requests and payloads, in this process.
        apres::ResultCache cache;
        std::vector<std::string> keys;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const ServeCell& c = cells[i];
            for (int rep = 0; rep < kReplayReps; ++rep) {
                apres::ServeRequest req;
                {
                    Scope scope(spans, "serve.parse");
                    req = apres::parseServeRequest(c.request);
                }
                {
                    Scope scope(spans, "workloads.build");
                    (void)apres::makeWorkload(c.app, kScale);
                }
                std::string key;
                {
                    Scope scope(spans, "serve.key");
                    apres::GpuConfig cfg;
                    apres::ConfigRegistry reg(cfg);
                    for (const auto& [k, v] : req.jobs.at(0).overrides)
                        reg.set(k, v);
                    key = apres::computeCacheKey(
                        apres::serveFingerprint(),
                        apres::kernelFingerprint(req.jobs.at(0)),
                        reg.semanticSnapshot());
                }
                {
                    Scope scope(spans, "serve.serialize");
                    (void)apres::serializeRunResult(reference[i]);
                }
                if (rep == 0) {
                    cache.store(key, reference_payload[i]);
                    keys.push_back(key);
                }
            }
        }
        for (int rep = 0; rep < kReplayReps; ++rep) {
            for (const std::string& key : keys) {
                Scope scope(spans, "serve.lookup");
                if (!cache.lookup(key))
                    out.failures.push_back("serve-replay: replay lookup missed");
            }
        }
        const auto us = [&](const char* name) {
            return spans.meanSeconds(name) * 1e6;
        };
        m.push_back({"serve.hit_p50_ms", percentile(hits_ms, 50), "ms"});
        m.push_back({"serve.hit_p95_ms", percentile(hits_ms, 95), "ms"});
        m.push_back({"serve.miss_p50_ms", median(misses_ms), "ms"});
        m.push_back({"serve.parse_us", us("serve.parse"), "us"});
        m.push_back({"serve.key_us", us("serve.key"), "us"});
        m.push_back({"serve.lookup_us", us("serve.lookup"), "us"});
        m.push_back({"serve.serialize_us", us("serve.serialize"), "us"});
        m.push_back({"serve.transport_us", us("serve.transport"), "us"});
        m.push_back({"serve.memory_hits", memory_hits, "count"});
        m.push_back({"serve.simulations", simulations, "count"});
        m.push_back({"serve.response_kb", median(response_bytes) / 1024.0,
                     "KB"});
        m.push_back({"workloads.build_ms", us("workloads.build") / 1e3, "ms"});
        appendCountMetrics(m, layer_counts);
    }
    return out;
}

} // namespace apresbench
