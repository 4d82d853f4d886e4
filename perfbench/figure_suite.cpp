/**
 * @file
 * figure-suite: the KM cells bench_fig10 ... bench_fig15 submit, in
 * their order, as one SweepRunner batch on two workers at reduced scale.
 *
 * A round builds the kernel, the configs and the batch (set-up), then
 * runs the batch (timed). Every cell is checked and repeated cells must
 * be bitwise identical. Once per run, one cell per config is checked
 * against the naive engine outside the timed phase.
 */

#include <set>

#include "bench.hpp"
#include "isa/address_gen.hpp"
#include "serve/protocol.hpp"
#include "sim/config_registry.hpp"
#include "sim/runner.hpp"
#include "workloads/workload.hpp"

namespace apresbench {
namespace {

/** The six scheduler/prefetcher configs the figures draw from. */
struct CellConfig
{
    const char* tag;
    const char* sched;
    const char* pf;
};
constexpr CellConfig kConfigs[] = {
    {"base", "lrr", "none"},       {"ccws", "ccws", "none"},
    {"laws", "laws", "none"},      {"ccws-str", "ccws", "str"},
    {"laws-str", "laws", "str"},   {"apres", "laws", "sap"},
};
constexpr int kBase = 0, kCcwsStr = 3, kApres = 5;

/** Per figure (10..15), the configs its binary submits per app, in order. */
const std::vector<std::vector<int>> kFigures = {
    {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 5}, {3, 5}, {0, 3, 5}, {0, 3, 5}, {0, 3, 5},
};

// Only KM: every CCWS cell costs 0.5-0.9 s of host time whatever the
// scale, so the full 15-app suite would allow no repeated rounds.
constexpr const char* kApp = "KM";
constexpr double kScale = 0.01;
constexpr double kNaiveScale = 0.002;
constexpr int kWorkers = 2;
constexpr int kSetupReps = 5;

/** One round's inputs: the kernel, a config per tag, and the cells. */
struct Suite
{
    std::shared_ptr<const apres::Kernel> kernel;
    std::vector<apres::GpuConfig> configs;
    std::vector<int> cells; ///< config index per cell, submission order
};

apres::GpuConfig
configOf(const CellConfig& c)
{
    apres::GpuConfig cfg;
    apres::ConfigRegistry reg(cfg);
    reg.set("scheduler", c.sched);
    reg.set("prefetcher", c.pf);
    (void)reg.snapshot(); // what every result echoes
    return cfg;
}

Suite
buildSuite(Spans& spans)
{
    Suite s;
    {
        Scope scope(spans, "workloads.build");
        s.kernel = std::make_shared<const apres::Kernel>(
            apres::makeWorkload(kApp, kScale).kernel);
    }
    for (const CellConfig& c : kConfigs) {
        Scope scope(spans, "sim.config");
        s.configs.push_back(configOf(c));
    }
    for (const std::vector<int>& fig : kFigures)
        s.cells.insert(s.cells.end(), fig.begin(), fig.end());
    return s;
}

} // namespace

Outcome
runFigureSuite(const Args& args, Spans& spans)
{
    Outcome out;
    const std::uint64_t base_seed = apres::mix64(args.seed, 0xF16, 0x5EED);
    std::vector<double> busy;
    std::map<std::string, std::vector<double>> cell_host; // per config tag
    double sim_instr = 0.0, job_seconds = 0.0;
    std::size_t distinct_keys = 0;

    runRounds(args, spans, out, [&](int round, Spans& sp) {
        // Set-up, kSetupReps times so its median rests on several samples.
        Suite suite;
        std::unique_ptr<apres::SweepRunner> runner;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t_setup = now();
            suite = buildSuite(sp);
            apres::RunnerOptions ro;
            ro.threads = kWorkers;
            ro.baseSeed = base_seed;
            ro.keepGoing = true;
            runner = std::make_unique<apres::SweepRunner>(ro);
            for (const int c : suite.cells)
                runner->submit(std::string(kApp) + "/" + kConfigs[c].tag,
                               suite.configs[c], suite.kernel);
            out.setupSeconds.push_back(now() - t_setup);
        }

        std::vector<apres::SweepResult> results;
        const Timed timed = timePhase([&] {
            Scope scope(sp, "runner.runAll");
            results = runner->runAll();
        });

        // Checks and counts, outside the timed phase.
        out.attempted += results.size();
        std::map<std::string, double> counts;
        std::map<int, std::size_t> first_of; // config -> its first cell
        std::vector<const apres::RunResult*> all;
        double job_sum = 0.0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const int c = suite.cells[i];
            const apres::RunResult& r = results[i].result;
            const std::string what =
                std::string("figure-suite ") + kApp + "/" + kConfigs[c].tag;
            const auto bad = checkRun(
                what, r, expectedInstructions(*suite.kernel, suite.configs[c]));
            if (r.status != "ok" || !r.completed)
                ++out.failed;
            out.failures.insert(out.failures.end(), bad.begin(), bad.end());
            const auto [it, fresh] = first_of.emplace(c, i);
            if (!fresh) {
                const std::string d = diffStats(what + " repeat",
                                                results[it->second].result, r);
                if (!d.empty())
                    out.failures.push_back(d);
            }
            addLayerCounts(counts, r);
            all.push_back(&r);
            sim_instr += static_cast<double>(r.instructions);
            job_sum += results[i].wallSeconds;
            if (sp.enabled())
                cell_host[kConfigs[c].tag].push_back(results[i].wallSeconds);
        }
        job_seconds += job_sum;
        counts["runner.cells"] = static_cast<double>(results.size());
        counts["runner.distinct_cells"] = static_cast<double>(first_of.size());
        counts["stats.digest"] = statsDigest(all);
        recordCounts(out, counts, round == 0);

        if (sp.enabled()) {
            busy.push_back(job_sum / (kWorkers * timed.wall));
            std::set<std::string> keys;
            apres::ServeJobSpec spec;
            spec.workload = kApp;
            spec.scale = kScale;
            for (std::size_t i = 0; i < results.size(); ++i) {
                apres::GpuConfig cfg = suite.configs[suite.cells[i]];
                cfg.seed = results[i].seed;
                keys.insert(apres::computeCacheKey(
                    apres::serveFingerprint(), apres::kernelFingerprint(spec),
                    apres::ConfigRegistry(cfg).semanticSnapshot()));
            }
            distinct_keys = keys.size();
        }
        if (round == 0) {
            // Benchmark-scale speedups over the baseline (Fig. 10 cells),
            // printed for the README's comparison with the paper.
            const auto cycles = [&](int c) {
                return static_cast<double>(
                    results[first_of.at(c)].result.cycles);
            };
            std::printf("figure-suite speedups over base (%s, scale %g): "
                        "ccws-str=%.4f apres=%.4f\n",
                        kApp, kScale, cycles(kBase) / cycles(kCcwsStr),
                        cycles(kBase) / cycles(kApres));
        }
        return timed;
    });
    const double peak_rss = peakRssMb();

    // One cell per config against the naive engine, outside the timed
    // phase and at a smaller scale.
    const apres::Kernel kernel = apres::makeWorkload(kApp, kNaiveScale).kernel;
    for (const CellConfig& c : kConfigs) {
        apres::GpuConfig cfg = configOf(c);
        const apres::RunResult ff = apres::simulate(cfg, kernel);
        cfg.fastForward = false;
        const apres::RunResult naive = apres::simulate(cfg, kernel);
        const std::string what =
            std::string("figure-suite naive ") + kApp + "/" + c.tag;
        const auto bad = checkRun(what, ff, expectedInstructions(kernel, cfg));
        out.failures.insert(out.failures.end(), bad.begin(), bad.end());
        const std::string d = diffStats(what, ff, naive);
        if (!d.empty())
            out.failures.push_back(d);
    }

    auto& m = out.metrics;
    m.push_back({"sim_minstr_per_s",
                 job_seconds > 0.0 ? sim_instr / job_seconds / 1e6 : 0.0,
                 "Minstr/s"});
    m.push_back({"peak_rss_mb", peak_rss, "MB"});
    if (args.trace) {
        m.push_back({"workloads.build_ms",
                     spans.meanSeconds("workloads.build") * 1e3, "ms"});
        m.push_back({"sim.config_ms", spans.meanSeconds("sim.config") * 1e3,
                     "ms"});
        m.push_back({"runner.busy_frac", median(busy), "ratio"});
        m.push_back({"runner.cells", out.counts["runner.cells"], "count"});
        m.push_back({"runner.distinct_cells",
                     out.counts["runner.distinct_cells"], "count"});
        m.push_back({"runner.distinct_keys",
                     static_cast<double>(distinct_keys), "count"});
        for (const CellConfig& c : kConfigs)
            m.push_back({std::string("figcell.") + c.tag + ".host_s",
                         median(cell_host[c.tag]), "s"});
        appendCountMetrics(m, out.counts);
    }
    return out;
}

} // namespace apresbench
