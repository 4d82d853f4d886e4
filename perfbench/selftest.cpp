/**
 * @file
 * Self-test of the output checks: each must accept a clean result and
 * reject a doctored one. Run with `apresbench --self-test`.
 */

#include <cstdio>

#include "bench.hpp"
#include "common/rng.hpp"
#include "explore/signature.hpp"
#include "serve/protocol.hpp"
#include "sim/config_registry.hpp"
#include "workloads/workload.hpp"

namespace apresbench {
namespace {

int failures = 0;

void
expect(bool ok, const char* what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++failures;
}

std::string
response(const std::string& payload, bool cached)
{
    return std::string("{\"type\": \"result\", \"runs\": [{\"cached\": ") +
           (cached ? "true" : "false") + ", \"result\": " + payload + "}]}";
}

} // namespace

int
selfTest()
{
    apres::GpuConfig cfg;
    apres::ConfigRegistry(cfg).set("numSms", "2");
    const apres::Kernel kernel = apres::makeWorkload("KM", 0.002).kernel;
    const apres::RunResult clean = apres::simulate(cfg, kernel);
    const std::uint64_t expected = expectedInstructions(kernel, cfg);

    expect(checkRun("clean", clean, expected).empty(),
           "clean run passes the run checks");

    apres::RunResult off_by_one = clean;
    off_by_one.instructions += 1;
    expect(!checkRun("doctored", off_by_one, expected).empty(),
           "instruction count off by one is rejected");

    apres::RunResult l1_broken = clean;
    l1_broken.l1.demandHits += 1;
    expect(!checkRun("doctored", l1_broken, expected).empty(),
           "L1 accesses != hits + misses (off by one) is rejected");

    apres::RunResult l2_broken = clean;
    l2_broken.l2.demandMisses += 1;
    expect(!checkRun("doctored", l2_broken, expected).empty(),
           "L2 accesses != hits + misses (off by one) is rejected");

    expect(diffStats("same", clean, clean).empty(),
           "a result is bitwise identical to itself");
    expect(!diffStats("doctored", clean, off_by_one).empty(),
           "a repeat whose stats differ is rejected");

    const std::string miss = response(apres::serializeRunResult(clean), false);
    const std::string hit = response(apres::serializeRunResult(clean), true);
    const std::string bad_hit =
        response(apres::serializeRunResult(off_by_one), true);
    expect(!rawResultPayload(miss).empty() &&
               rawResultPayload(miss) == rawResultPayload(hit),
           "a hit with its miss's payload is accepted");
    expect(rawResultPayload(bad_hit) != rawResultPayload(miss),
           "a hit whose stats differ from its miss is rejected");

    apres::Rng rng(11);
    const apres::KernelSignature sig_a = apres::randomSignature(rng);
    const apres::KernelSignature sig_b = apres::randomSignature(rng);
    const ExploreEntry a{"a", apres::serializeSignature(sig_a),
                         apres::kernelTextOf(sig_a, "a"), {"bin.x", "bin.y"}};
    ExploreEntry b{"b", apres::serializeSignature(sig_b),
                   apres::kernelTextOf(sig_b, "b"), {"bin.y", "bin.z"}};
    const std::string report =
        "{\"initialCoverage\": 0, \"finalCoverage\": 3, \"newBins\": 3}";
    expect(checkExplore(report, {a, b}).empty(),
           "a consistent explore report and corpus are accepted");
    b.bins = {"bin.y"};
    expect(!checkExplore(report, {a, b}).empty(),
           "a corpus entry with no uniquely owned bin is rejected");
    b.bins = {"bin.z"};
    expect(!checkExplore("{\"initialCoverage\": 0, \"finalCoverage\": 3, "
                         "\"newBins\": 2}",
                         {a, b})
                .empty(),
           "finalCoverage != initialCoverage + newBins is rejected");
    b.signature += " junk";
    expect(!checkExplore(report, {a, b}).empty(),
           "a signature that does not round-trip is rejected");

    Outcome counts;
    recordCounts(counts, {{"sim.instructions", 10.0}}, true);
    recordCounts(counts, {{"sim.instructions", 10.0}}, false);
    expect(counts.failures.empty(), "repeated counts are accepted");
    recordCounts(counts, {{"sim.instructions", 11.0}}, false);
    expect(!counts.failures.empty(), "a count that changes is rejected");

    std::printf("self-test: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}

} // namespace apresbench
