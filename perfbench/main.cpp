/**
 * @file
 * apresbench: runs one workload of the apres-sim benchmark and prints,
 * as the last line of stdout, one JSON object with the keys correct,
 * attempted, failed and metrics.
 *
 *   apresbench --workload NAME --seed N --seconds S --trace 0|1
 *              --serve-bin PATH --work-dir DIR [--commit SHA]
 *   apresbench --self-test
 *
 * Untraced runs report the end-to-end metrics; traced runs report the
 * per-layer metrics (timed from this program's own calls into each
 * module) and write their spans to the work directory.
 */

#include <sched.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "common/json.hpp"

using namespace apresbench;

namespace {

#ifndef APRESBENCH_BUILD_TYPE
#define APRESBENCH_BUILD_TYPE "unknown"
#endif

/** Every end-to-end metric an untraced run reports, with its unit. */
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"wall_s", "s"},
    {"cpu_s", "s"},
    {"setup_s", "s"},
    {"sim_minstr_per_s", "Minstr/s"},
    {"peak_rss_mb", "MB"},
};

/** Every per-layer metric a traced run reports, with its unit. */
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"workloads.build_ms", "ms"},
    {"explore.kernel_build_us", "us"},
    {"sim.config_ms", "ms"},
    {"sim.gpu_construct_ms", "ms"},
    {"sim.gpu_run_s", "s"},
    {"sim.ns_per_instr", "ns"},
    {"sim.instructions", "count"},
    {"sim.cycles", "count"},
    {"runner.busy_frac", "ratio"},
    {"runner.cells", "count"},
    {"runner.distinct_cells", "count"},
    {"runner.distinct_keys", "count"},
    {"figcell.base.host_s", "s"},
    {"figcell.ccws.host_s", "s"},
    {"figcell.laws.host_s", "s"},
    {"figcell.ccws-str.host_s", "s"},
    {"figcell.laws-str.host_s", "s"},
    {"figcell.apres.host_s", "s"},
    {"ccws.events", "count"},
    {"laws.groupsFormed", "count"},
    {"sap.prefetchesIssued", "count"},
    {"prefetch.issued", "count"},
    {"prefetch.useful_frac", "ratio"},
    {"mem.host_ns_per_l1_access", "ns"},
    {"l1.accesses", "count"},
    {"l1.misses", "count"},
    {"l1.mshrMerges", "count"},
    {"l2.accesses", "count"},
    {"dram.requests", "count"},
    {"lsu.mshrReplays", "count"},
    {"serve.hit_p50_ms", "ms"},
    {"serve.hit_p95_ms", "ms"},
    {"serve.miss_p50_ms", "ms"},
    {"serve.parse_us", "us"},
    {"serve.key_us", "us"},
    {"serve.lookup_us", "us"},
    {"serve.serialize_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.memory_hits", "count"},
    {"serve.simulations", "count"},
    {"serve.response_kb", "KB"},
    {"explore.bins_us", "us"},
    {"explore.probe_sim_ms", "ms"},
    {"explore.probe_runs", "count"},
    {"explore.admitted", "count"},
    {"explore.final_bins", "count"},
    {"trace.overhead", "ratio"},
};

std::string
loadAverage()
{
    std::ifstream in("/proc/loadavg");
    std::string one;
    in >> one;
    return one.empty() ? "unknown" : one;
}

/** The document @p write produces through a JsonWriter, on one line. */
template <class F>
std::string
jsonLine(F&& write)
{
    std::ostringstream os;
    apres::JsonWriter json(os);
    write(json);
    json.finish();
    std::string line;
    bool at_break = false;
    for (const char c : os.str()) {
        if (c == '\n') {
            at_break = true;
        } else if (!(at_break && c == ' ')) {
            if (at_break)
                line += ' ';
            at_break = false;
            line += c;
        }
    }
    return line;
}

int
usage(const char* why)
{
    std::fprintf(stderr,
                 "apresbench: %s\nusage: apresbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --serve-bin PATH --work-dir DIR "
                 "[--commit SHA] | --self-test\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    Args args;
    std::string commit = "unknown";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--self-test")
            return selfTest();
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const std::string val = argv[++i];
        try {
            if (arg == "--workload")
                args.workload = val;
            else if (arg == "--seed")
                args.seed = std::stoull(val);
            else if (arg == "--seconds")
                args.seconds = std::stod(val);
            else if (arg == "--trace")
                args.trace = val == "1";
            else if (arg == "--serve-bin")
                args.serveBin = val;
            else if (arg == "--work-dir")
                args.workDir = val;
            else if (arg == "--commit")
                commit = val;
            else
                return usage(("unknown argument " + arg).c_str());
        } catch (const std::exception&) {
            return usage(("bad value for " + arg).c_str());
        }
    }
    if (args.workDir.empty())
        return usage("--work-dir is required");

    cpu_set_t set;
    CPU_ZERO(&set);
    const int nproc = sched_getaffinity(0, sizeof set, &set) == 0
                          ? CPU_COUNT(&set)
                          : 0;
    const std::string load_start = loadAverage();

    Spans spans(args.trace);
    Outcome out;
    try {
        if (args.workload == "figure-suite")
            out = runFigureSuite(args, spans);
        else if (args.workload == "fullchip-apres")
            out = runFullchip(args, spans);
        else if (args.workload == "serve-replay")
            out = runServeReplay(args, spans);
        else if (args.workload == "explore-campaign")
            out = runExploreCampaign(args, spans);
        else
            return usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "apresbench: %s aborted: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }

    // Host and build record, then the per-run operation tally.
    std::printf("host {\"hwThreads\": %u, \"nproc\": %d, \"loadavgStart\": "
                "%s, \"loadavgEnd\": %s, \"buildType\": \"%s\", "
                "\"compiler\": \"%s\", \"commit\": \"%s\"}\n",
                std::thread::hardware_concurrency(), nproc,
                load_start.c_str(), loadAverage().c_str(),
                APRESBENCH_BUILD_TYPE, apres::jsonEscape(__VERSION__).c_str(),
                apres::jsonEscape(commit).c_str());
    std::printf("operations %s attempted=%llu failed=%llu\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    const std::string counts = jsonLine([&](apres::JsonWriter& json) {
        json.beginObject();
        for (const auto& [key, value] : out.counts)
            json.field(key, value);
        json.endObject();
    });
    std::printf("counts %s %s\n", args.workload.c_str(), counts.c_str());
    std::printf("rounds %s wall_s", args.workload.c_str());
    for (const double w : out.roundWalls)
        std::printf(" %.4f", w);
    std::printf("\n");
    for (const std::string& f : out.failures)
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());

    // The metrics of this mode, in table order; a per-layer metric the
    // workload does not touch reads 0.
    out.metrics.push_back({"setup_s", median(out.setupSeconds), "s"});
    std::vector<Metric> metrics;
    for (const auto& [name, unit] : args.trace ? kPerLayer : kEndToEnd) {
        Metric m{name, 0.0, unit};
        for (const Metric& got : out.metrics) {
            if (got.name == name)
                m.value = got.value;
        }
        metrics.push_back(m);
    }
    if (args.trace) {
        const std::string path = args.workDir + "/spans-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json";
        spans.write(path);
        std::printf("spans written to %s; self time per span:\n", path.c_str());
        for (const auto& [name, secs] : spans.selfSeconds())
            std::printf("  %-24s %.6f s\n", name.c_str(), secs);
    }

    const std::string result = jsonLine([&](apres::JsonWriter& json) {
        json.beginObject();
        json.field("correct", out.failures.empty());
        json.field("attempted", out.attempted);
        json.field("failed", out.failed);
        json.beginObject("metrics");
        for (const Metric& m : metrics) {
            json.beginObject(m.name);
            json.field("value", m.value);
            json.field("unit", m.unit);
            json.endObject();
        }
        json.endObject();
        json.endObject();
    });
    std::printf("%s\n", result.c_str());
    return 0;
}
