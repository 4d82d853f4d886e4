/**
 * @file
 * explore-campaign: an apres_explore campaign with a fixed seed and
 * budget, from an empty corpus, run serially through JobExecutor.
 *
 * A round clears the corpus directory, constructs the Explorer and
 * resolves its probe machines (set-up), then runs the campaign (timed). Afterwards every kept
 * corpus entry is re-probed from this program with each probe machine:
 * its runs must pass the run checks, its bins must equal the ones the
 * campaign recorded, and the report must be self-consistent. The
 * re-probe also gives the per-layer timings and the simulation rate.
 *
 * The campaign's seed is fixed rather than drawn from --seed: which
 * kernels a campaign generates, and so how much it simulates, depends
 * on its seed, and that spread would swamp any regression gate. --seed
 * names the round's corpus directory only.
 */

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "explore/coverage.hpp"
#include "explore/explorer.hpp"
#include "explore/signature.hpp"
#include "isa/address_gen.hpp"
#include "sim/config_registry.hpp"

namespace apresbench {
namespace {

constexpr std::uint64_t kExploreSeed = 7;
constexpr int kBudget = 24;
/** Kept corpus entries re-probed after the campaign (first in corpus order). */
constexpr std::size_t kReprobeEntries = 8;
constexpr int kSetupReps = 10;

/** The probe machine Explorer::probeSignature builds for probe @p pi. */
apres::GpuConfig
probeConfig(const apres::ProbeConfig& probe, std::size_t pi)
{
    apres::GpuConfig cfg;
    apres::ConfigRegistry reg(cfg);
    reg.set("numSms", "2");
    reg.set("sm.warpsPerSm", "16");
    reg.set("sm.warpsPerBlock", "8");
    reg.set("maxCycles", "400000");
    reg.set("sim.metrics", "true");
    reg.set("sim.trace", "true");
    reg.set("sim.traceBufferEvents", "256");
    for (const auto& [key, value] : probe.overrides)
        reg.set(key, value);
    cfg.seed = apres::mix64(0xC0FFEE, pi, 0xBEEF) | 1;
    return cfg;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

} // namespace

Outcome
runExploreCampaign(const Args& args, Spans& spans)
{
    namespace fs = std::filesystem;
    // Capped probes are part of the design; their maxCycles warnings
    // would only add stderr writes to the timed phase.
    apres::setLogLevel(apres::LogLevel::kNone);
    Outcome out;
    const std::string corpus_dir =
        args.workDir + "/explore-corpus-" + std::to_string(args.seed);
    const std::vector<apres::ProbeConfig> probes =
        apres::Explorer::defaultProbes();

    std::vector<apres::CorpusEntry> kept;
    std::vector<apres::GpuConfig> probe_configs;

    runRounds(args, spans, out, [&](int round, Spans& sp) {
        // The previous round's corpus goes first; that is housekeeping,
        // not set-up.
        fs::remove_all(corpus_dir);
        fs::create_directories(corpus_dir);

        // Set-up: the Explorer and its probe machines resolved through
        // ConfigRegistry, done kSetupReps times so the median rests on
        // several samples.
        std::unique_ptr<apres::Explorer> explorer;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            const double t_setup = now();
            Scope scope(sp, "explore.setup");
            apres::ExploreOptions opts;
            opts.seed = kExploreSeed;
            opts.budget = kBudget;
            opts.corpusDir = corpus_dir;
            explorer = std::make_unique<apres::Explorer>(std::move(opts));
            probe_configs.clear();
            for (std::size_t pi = 0; pi < probes.size(); ++pi)
                probe_configs.push_back(probeConfig(probes[pi], pi));
            out.setupSeconds.push_back(now() - t_setup);
        }

        const Timed timed = timePhase([&] {
            Scope scope(sp, "explore.run");
            explorer->run();
        });
        out.attempted += static_cast<std::uint64_t>(kBudget) * probes.size();

        std::ostringstream report;
        explorer->writeReport(report);
        std::vector<ExploreEntry> entries;
        kept.clear();
        for (const apres::CorpusEntry& e : explorer->corpus()) {
            if (!e.kept || e.loaded)
                continue;
            kept.push_back(e);
            entries.push_back({e.name, apres::serializeSignature(e.signature),
                               readFile(corpus_dir + "/" + e.name + ".kt"),
                               e.bins});
        }
        const auto bad = checkExplore(report.str(), entries);
        out.failures.insert(out.failures.end(), bad.begin(), bad.end());

        std::map<std::string, double> counts;
        counts["explore.admitted"] =
            static_cast<double>(explorer->corpus().size());
        counts["explore.kept"] = static_cast<double>(kept.size());
        counts["explore.final_bins"] =
            static_cast<double>(explorer->coverage().size());
        counts["explore.report_digest"] = static_cast<double>(std::stoull(
            apres::contentHash(report.str()).substr(0, 12), nullptr, 16));
        recordCounts(out, counts, round == 0);
        return timed;
    });
    const double peak_rss = peakRssMb();

    // Re-probe the kept corpus from this program, outside the timed
    // phase: the run checks, the bins check, and the per-layer timings.
    double sim_instr = 0.0, sim_seconds = 0.0;
    std::map<std::string, double> layer_counts;
    apres::CoverageMap coverage;
    double capped = 0.0;
    for (std::size_t k = 0; k < kept.size() && k < kReprobeEntries; ++k) {
        const apres::CorpusEntry& e = kept[k];
        std::shared_ptr<const apres::Kernel> kernel;
        {
            Scope scope(spans, "explore.kernel_build");
            kernel = std::make_shared<const apres::Kernel>(
                apres::buildKernel(e.signature, e.name));
        }
        std::set<std::string> bins;
        for (std::size_t pi = 0; pi < probes.size(); ++pi) {
            const apres::GpuConfig& cfg = probe_configs[pi];
            std::unique_ptr<apres::Gpu> gpu;
            {
                Scope scope(spans, "sim.gpu_construct");
                gpu = std::make_unique<apres::Gpu>(cfg, *kernel);
            }
            apres::RunResult r;
            const double t = now();
            {
                Scope scope(spans, "explore.probe_sim");
                r = gpu->run();
            }
            sim_seconds += now() - t;
            if (const apres::Tracer* tracer = gpu->tracer()) {
                for (const auto& [event, count] : tracer->eventTypeCounts())
                    r.policy.set("trace." + event, static_cast<double>(count));
            }
            // Probes are capped at maxCycles on purpose ("completed:0" is
            // a coverage bin); a capped probe must have run to the cap.
            const std::string what =
                "explore " + e.name + " probe " + probes[pi].label;
            if (r.completed) {
                const auto bad =
                    checkRun(what, r, expectedInstructions(*kernel, cfg));
                out.failures.insert(out.failures.end(), bad.begin(), bad.end());
            } else {
                capped += 1.0;
                const auto bad = checkConservation(what, r);
                out.failures.insert(out.failures.end(), bad.begin(), bad.end());
                if (r.status != "ok" || r.cycles < cfg.maxCycles)
                    out.failures.push_back(what + ": stopped short of the cap");
            }
            sim_instr += static_cast<double>(r.instructions);
            addLayerCounts(layer_counts, r);
            {
                Scope scope(spans, "explore.bins");
                const auto probe_bins = apres::coverageBins(probes[pi].label, r);
                coverage.add(probe_bins);
                bins.insert(probe_bins.begin(), probe_bins.end());
            }
        }
        if (std::vector<std::string>(bins.begin(), bins.end()) != e.bins)
            out.failures.push_back("explore " + e.name +
                                   ": re-probed bins differ from the campaign's");
    }
    if (kept.empty())
        out.failures.push_back("explore: campaign kept no corpus entry");
    layer_counts["explore.capped_probes"] = capped;
    out.counts.insert(layer_counts.begin(), layer_counts.end());

    auto& m = out.metrics;
    m.push_back({"sim_minstr_per_s",
                 sim_seconds > 0.0 ? sim_instr / sim_seconds / 1e6 : 0.0,
                 "Minstr/s"});
    m.push_back({"peak_rss_mb", peak_rss, "MB"});
    if (args.trace) {
        m.push_back({"explore.kernel_build_us",
                     spans.meanSeconds("explore.kernel_build") * 1e6, "us"});
        m.push_back({"sim.gpu_construct_ms",
                     spans.meanSeconds("sim.gpu_construct") * 1e3, "ms"});
        m.push_back({"explore.probe_sim_ms",
                     spans.meanSeconds("explore.probe_sim") * 1e3, "ms"});
        m.push_back({"explore.bins_us", spans.meanSeconds("explore.bins") * 1e6,
                     "us"});
        m.push_back({"explore.probe_runs",
                     static_cast<double>(kBudget * probes.size()), "count"});
        m.push_back({"explore.admitted", out.counts["explore.admitted"],
                     "count"});
        m.push_back({"explore.final_bins", out.counts["explore.final_bins"],
                     "count"});
        appendCountMetrics(m, layer_counts);
    }
    return out;
}

} // namespace apresbench
