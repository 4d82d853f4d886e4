/**
 * @file
 * fullchip-apres: one KM run at LAWS+SAP on an 80-SM x 64-warp chip,
 * serial fast-forward engine, default sim.shards.
 *
 * A round builds the kernel and config and constructs the Gpu
 * (set-up), then times Gpu::run(), the hot loop through core, memory
 * and the APRES policies.
 * Once per run a reduced-scale run of the same config is checked
 * against the naive engine outside the timed phase.
 */

#include "bench.hpp"
#include "isa/address_gen.hpp"
#include "sim/config_registry.hpp"
#include "workloads/workload.hpp"

namespace apresbench {
namespace {

constexpr const char* kApp = "KM";
constexpr double kScale = 0.05;
constexpr double kNaiveScale = 0.002;
constexpr int kSetupReps = 5;

apres::GpuConfig
fullchipConfig(std::uint64_t seed)
{
    apres::GpuConfig cfg;
    apres::ConfigRegistry reg(cfg);
    reg.set("numSms", "80");
    reg.set("sm.warpsPerSm", "64");
    reg.set("sm.warpsPerBlock", "64");
    reg.set("scheduler", "laws");
    reg.set("prefetcher", "sap");
    cfg.seed = seed;
    return cfg;
}

} // namespace

Outcome
runFullchip(const Args& args, Spans& spans)
{
    Outcome out;
    const std::uint64_t seed = apres::mix64(args.seed, 0xF011, 0xC41F) | 1;
    double sim_instr = 0.0, sim_seconds = 0.0;

    runRounds(args, spans, out, [&](int round, Spans& sp) {
        // Set-up: kernel, config and the constructed Gpu, done
        // kSetupReps times so its median rests on several samples.
        std::shared_ptr<const apres::Kernel> kernel;
        apres::GpuConfig cfg;
        std::unique_ptr<apres::Gpu> gpu;
        for (int rep = 0; rep < kSetupReps; ++rep) {
            gpu.reset();
            const double t_setup = now();
            {
                Scope scope(sp, "workloads.build");
                kernel = std::make_shared<const apres::Kernel>(
                    apres::makeWorkload(kApp, kScale).kernel);
            }
            {
                Scope scope(sp, "sim.config");
                cfg = fullchipConfig(seed);
            }
            {
                Scope scope(sp, "sim.gpu_construct");
                gpu = std::make_unique<apres::Gpu>(cfg, *kernel);
            }
            out.setupSeconds.push_back(now() - t_setup);
        }

        apres::RunResult result;
        const Timed timed = timePhase([&] {
            Scope scope(sp, "sim.gpu_run");
            result = gpu->run();
        });
        sim_instr += static_cast<double>(result.instructions);
        sim_seconds += timed.wall;

        ++out.attempted;
        if (result.status != "ok" || !result.completed)
            ++out.failed;
        const auto bad = checkRun("fullchip-apres", result,
                                  expectedInstructions(*kernel, cfg));
        out.failures.insert(out.failures.end(), bad.begin(), bad.end());
        std::map<std::string, double> counts;
        addLayerCounts(counts, result);
        counts["stats.digest"] = statsDigest({&result});
        recordCounts(out, counts, round == 0);
        return timed;
    });
    const double peak_rss = peakRssMb();

    {
        const apres::Kernel kernel = apres::makeWorkload(kApp, kNaiveScale).kernel;
        apres::GpuConfig cfg = fullchipConfig(seed);
        const apres::RunResult ff = apres::simulate(cfg, kernel);
        cfg.fastForward = false;
        const apres::RunResult naive = apres::simulate(cfg, kernel);
        const auto bad = checkRun("fullchip-apres reduced", ff,
                                  expectedInstructions(kernel, cfg));
        out.failures.insert(out.failures.end(), bad.begin(), bad.end());
        const std::string d = diffStats("fullchip-apres naive", ff, naive);
        if (!d.empty())
            out.failures.push_back(d);
    }

    auto& m = out.metrics;
    m.push_back({"sim_minstr_per_s",
                 sim_seconds > 0.0 ? sim_instr / sim_seconds / 1e6 : 0.0,
                 "Minstr/s"});
    m.push_back({"peak_rss_mb", peak_rss, "MB"});
    if (args.trace) {
        const double run = spans.meanSeconds("sim.gpu_run");
        const double instr = out.counts["sim.instructions"];
        const double l1 = out.counts["l1.accesses"];
        m.push_back({"workloads.build_ms",
                     spans.meanSeconds("workloads.build") * 1e3, "ms"});
        m.push_back({"sim.config_ms", spans.meanSeconds("sim.config") * 1e3,
                     "ms"});
        m.push_back({"sim.gpu_construct_ms",
                     spans.meanSeconds("sim.gpu_construct") * 1e3, "ms"});
        m.push_back({"sim.gpu_run_s", run, "s"});
        m.push_back({"sim.ns_per_instr", instr > 0 ? run * 1e9 / instr : 0.0,
                     "ns"});
        m.push_back({"mem.host_ns_per_l1_access",
                     l1 > 0 ? run * 1e9 / l1 : 0.0, "ns"});
        appendCountMetrics(m, out.counts);
    }
    return out;
}

} // namespace apresbench
