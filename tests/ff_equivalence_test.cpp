/**
 * @file
 * Fast-forward equivalence suite: the event-driven engine
 * (sim.fastForward, default on) must produce *bitwise identical*
 * statistics to the naive cycle-by-cycle loop — the whole
 * RunResult::toStatSet() dump, every key and every value — for every
 * registered scheduler x prefetcher combination and for kernel shapes
 * that exercise every wakeup source: loads (Table IV workloads),
 * block barriers, and store-heavy bodies.
 *
 * This pins down the engine's invariant (DESIGN.md, "Simulation
 * core"): a skipped cycle is one in which provably no SM could issue,
 * so skipping it changes nothing but how fast the wall clock moves.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "isa/address_gen.hpp"
#include "isa/kernel.hpp"
#include "sim/gpu.hpp"
#include "sim/policy_registry.hpp"
#include "workloads/workload.hpp"

namespace apres {
namespace {

GpuConfig
smallGpu(const std::string& sched, const std::string& pf)
{
    GpuConfig cfg;
    cfg.numSms = 2;
    cfg.sm.warpsPerSm = 16;
    cfg.sm.warpsPerBlock = 16;
    cfg.sm.jobsPerWarp = 2;
    cfg.scheduler = sched;
    cfg.prefetcher = pf;
    cfg.maxCycles = 2'000'000;
    return cfg;
}

/**
 * Barrier-heavy kernel: two warp-blocks per SM (warpsPerBlock below
 * warpsPerSm) that alternate a long-latency strided load with a
 * block-wide barrier, so warps repeatedly park at the barrier while
 * stragglers wait on memory — the barrier-release wakeup path.
 */
Kernel
makeBarrierKernel()
{
    KernelBuilder b("barrier-heavy");
    const int v = b.load(std::make_unique<StridedGen>(
        Addr{0x2000'0000}, /*warp_stride=*/std::int64_t{1} << 18,
        /*iter_stride=*/128));
    b.barrier();
    const int w = b.alu({v}, /*count=*/2);
    b.barrier();
    b.store(std::make_unique<StridedGen>(Addr{0x6000'0000},
                                         /*warp_stride=*/std::int64_t{1}
                                             << 18,
                                         /*iter_stride=*/128),
            w);
    return b.build(/*trip_count=*/40);
}

/**
 * Store-heavy kernel: three stores per loaded value; the LSU queue is
 * dominated by stores (which complete without tracking), exercising
 * the canAccept() back-pressure wakeup path.
 */
Kernel
makeStoreKernel()
{
    KernelBuilder b("store-heavy");
    const int v = b.load(std::make_unique<StridedGen>(
        Addr{0x3000'0000}, /*warp_stride=*/std::int64_t{1} << 18,
        /*iter_stride=*/128));
    const int w = b.alu({v});
    for (int i = 0; i < 3; ++i) {
        b.store(std::make_unique<StridedGen>(
                    Addr{0x7000'0000} + static_cast<Addr>(i) * 0x100'0000,
                    /*warp_stride=*/std::int64_t{1} << 18,
                    /*iter_stride=*/128),
                w);
    }
    return b.build(/*trip_count=*/60);
}

/** The kernels every combination is checked against. */
struct NamedKernel
{
    std::string name;
    std::shared_ptr<const Kernel> kernel;
    int warpsPerBlock = 0; ///< 0 = leave the config's default
};

const std::vector<NamedKernel>&
kernelsUnderTest()
{
    static const std::vector<NamedKernel> kernels = [] {
        std::vector<NamedKernel> out;
        // Table IV shapes: KM thrashes a 2 MB window (cache-sensitive
        // irregular), NW streams with stores, BFS has high-locality
        // irregular loads.
        for (const char* name : {"KM", "NW", "BFS"}) {
            out.push_back({name,
                           std::make_shared<const Kernel>(
                               makeWorkload(name, 0.05).kernel),
                           0});
        }
        out.push_back({"barrier-heavy",
                       std::make_shared<const Kernel>(makeBarrierKernel()),
                       /*warpsPerBlock=*/8});
        out.push_back({"store-heavy",
                       std::make_shared<const Kernel>(makeStoreKernel()),
                       0});
        return out;
    }();
    return kernels;
}

/** EXPECT_EQ on every key and value of two StatSet dumps. */
void
expectBitwiseIdentical(const StatSet& want, const StatSet& got,
                       const std::string& label)
{
    const std::map<std::string, double>& a = want.entries();
    const std::map<std::string, double>& b = got.entries();
    ASSERT_EQ(a.size(), b.size()) << label;
    auto ib = b.begin();
    for (auto ia = a.begin(); ia != a.end(); ++ia, ++ib) {
        EXPECT_EQ(ia->first, ib->first) << label;
        EXPECT_EQ(ia->second, ib->second)
            << label << ": stat '" << ia->first << "' diverged";
    }
}

/** One scheduler x prefetcher pair, gtest-parameterized. */
using Combo = std::tuple<std::string, std::string>;

/** Every registered pair except SAP without LAWS (SAP needs LAWS). */
std::vector<Combo>
validCombos()
{
    std::vector<Combo> out;
    for (const std::string& sched : schedulerNames()) {
        for (const std::string& pf : prefetcherNames()) {
            if (pf != "sap" || sched == "laws")
                out.emplace_back(sched, pf);
        }
    }
    return out;
}

class FfEquivalence : public ::testing::TestWithParam<Combo>
{
};

TEST_P(FfEquivalence, StatSetBitwiseIdentical)
{
    const auto& [sched, pf] = GetParam();

    for (const NamedKernel& nk : kernelsUnderTest()) {
        GpuConfig cfg = smallGpu(sched, pf);
        if (nk.warpsPerBlock > 0)
            cfg.sm.warpsPerBlock = nk.warpsPerBlock;

        GpuConfig naive_cfg = cfg;
        naive_cfg.fastForward = false;
        GpuConfig ff_cfg = cfg;
        ff_cfg.fastForward = true;
        // Run the invariant auditor on the fast-forward side only:
        // the comparison then also proves auditing is pure
        // observation (stats stay bitwise identical to an unaudited
        // naive run) and that the whole matrix is violation-free,
        // including the skip-window checks after every jump.
        ff_cfg.audit = true;

        const StatSet naive = simulate(naive_cfg, *nk.kernel).toStatSet();
        const StatSet ff = simulate(ff_cfg, *nk.kernel).toStatSet();
        const std::map<std::string, double>& a = naive.entries();
        const std::map<std::string, double>& b = ff.entries();

        ASSERT_EQ(a.size(), b.size()) << nk.name;
        auto ib = b.begin();
        for (auto ia = a.begin(); ia != a.end(); ++ia, ++ib) {
            EXPECT_EQ(ia->first, ib->first) << nk.name;
            EXPECT_EQ(ia->second, ib->second)
                << nk.name << ": stat '" << ia->first << "' diverged";
        }
    }
}

/**
 * StatSet entries minus the opt-in "metrics." namespace. Metrics keys
 * exist only when sampling is on, so the purity comparison strips them
 * before demanding bitwise equality of everything else.
 */
std::map<std::string, double>
entriesWithoutMetrics(const StatSet& stats)
{
    std::map<std::string, double> out;
    for (const auto& [key, value] : stats.entries()) {
        if (key.rfind("metrics.", 0) != 0)
            out.emplace(key, value);
    }
    return out;
}

TEST_P(FfEquivalence, ObservationIsPure)
{
    // Tracing and metrics must be pure observation: every simulation
    // statistic bitwise identical with both sinks installed vs
    // neither, in both engines. The naive side re-runs the equivalence
    // matrix at maximal emission density (every cycle ticks), the ff
    // side covers the bulk-skip paths and the engine-lane spans.
    const auto& [sched, pf] = GetParam();

    for (const NamedKernel& nk : kernelsUnderTest()) {
        GpuConfig cfg = smallGpu(sched, pf);
        if (nk.warpsPerBlock > 0)
            cfg.sm.warpsPerBlock = nk.warpsPerBlock;

        GpuConfig base_cfg = cfg;
        base_cfg.fastForward = true;
        GpuConfig obs_ff_cfg = base_cfg;
        obs_ff_cfg.trace = true;
        obs_ff_cfg.metrics = true;
        GpuConfig obs_naive_cfg = obs_ff_cfg;
        obs_naive_cfg.fastForward = false;

        const std::map<std::string, double> base = entriesWithoutMetrics(
            simulate(base_cfg, *nk.kernel).toStatSet());
        for (const GpuConfig& obs_cfg : {obs_naive_cfg, obs_ff_cfg}) {
            const std::map<std::string, double> obs =
                entriesWithoutMetrics(
                    simulate(obs_cfg, *nk.kernel).toStatSet());
            const char* engine =
                obs_cfg.fastForward ? "ff" : "naive";
            ASSERT_EQ(base.size(), obs.size()) << nk.name << " " << engine;
            auto io = obs.begin();
            for (auto ib = base.begin(); ib != base.end(); ++ib, ++io) {
                EXPECT_EQ(ib->first, io->first)
                    << nk.name << " " << engine;
                EXPECT_EQ(ib->second, io->second)
                    << nk.name << " (" << engine << "): stat '"
                    << ib->first << "' perturbed by observation";
            }
        }
    }
}

TEST_P(FfEquivalence, ParallelEngineBitwiseIdentical)
{
    // The sharded epoch engine (sim.shards > 1) against the serial
    // oracle, across the same scheduler x prefetcher x kernel matrix:
    // the whole toStatSet() dump must be bitwise identical for every
    // shard count. Variants cover an even split (2 shards over 4 SMs),
    // an uneven split without fast-forward (3 shards, naive workers),
    // and the hardware-concurrency default (shards=0, clamped to
    // numSms), with the auditor enabled on one of them to prove epoch
    // audits fire at the same cycles and stay pure.
    const auto& [sched, pf] = GetParam();

    for (const NamedKernel& nk : kernelsUnderTest()) {
        GpuConfig cfg = smallGpu(sched, pf);
        cfg.numSms = 4;
        if (nk.warpsPerBlock > 0)
            cfg.sm.warpsPerBlock = nk.warpsPerBlock;

        const StatSet serial = simulate(cfg, *nk.kernel).toStatSet();

        struct Variant
        {
            int shards;
            bool fastForward;
            bool audit;
            const char* name;
        };
        for (const Variant& v :
             {Variant{2, true, true, "shards2-ff-audit"},
              Variant{3, false, false, "shards3-naive"},
              Variant{0, true, false, "shards-hw"}}) {
            GpuConfig par_cfg = cfg;
            par_cfg.shards = v.shards;
            par_cfg.fastForward = v.fastForward;
            par_cfg.audit = v.audit;
            const StatSet par = simulate(par_cfg, *nk.kernel).toStatSet();
            expectBitwiseIdentical(serial, par,
                                   nk.name + std::string("/") + v.name);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FfEquivalence,
    ::testing::ValuesIn(validCombos()),
    [](const ::testing::TestParamInfo<Combo>& info) {
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// --- Parallel-engine axes beyond the combo matrix -------------------

/**
 * The issue's shard axis {1, 2, 7, hw} on a 7-SM chip: 7 shards puts
 * one SM per worker, 2 shards splits 4/3 (uneven), hw clamps to 7.
 * APRES policies (LAWS + SAP) so the full WGT/LLT/PT machinery runs
 * under sharding.
 */
TEST(ParallelEngine, ShardAxisOverSevenSms)
{
    GpuConfig cfg = smallGpu("laws", "sap");
    cfg.numSms = 7;
    const Kernel kernel = makeWorkload("KM", 0.05).kernel;

    const StatSet serial = simulate(cfg, kernel).toStatSet();
    for (int shards : {2, 7, 0}) {
        GpuConfig par_cfg = cfg;
        par_cfg.shards = shards;
        const StatSet par = simulate(par_cfg, kernel).toStatSet();
        expectBitwiseIdentical(serial, par,
                               "shards=" + std::to_string(shards));
    }
}

/**
 * Observation purity under sharding: with tracing + metrics + audit
 * on, a 3-shard run must (a) leave every simulation statistic bitwise
 * identical to an unobserved 3-shard run, (b) produce the *same
 * merged metrics values* as an observed serial run (per-SM registry
 * merge is exact), and (c) emit the identical per-lane event sequence
 * as the serial engine — the golden-trace contract is engine-blind.
 */
TEST(ParallelEngine, ObservationIsPureUnderSharding)
{
    GpuConfig cfg = smallGpu("laws", "sap");
    cfg.numSms = 4;
    cfg.shards = 3;
    const Kernel kernel = makeWorkload("BFS", 0.05).kernel;

    const std::map<std::string, double> base =
        entriesWithoutMetrics(simulate(cfg, kernel).toStatSet());

    GpuConfig obs_cfg = cfg;
    obs_cfg.trace = true;
    obs_cfg.metrics = true;
    obs_cfg.audit = true;
    Gpu par_gpu(obs_cfg, kernel);
    const StatSet par = par_gpu.run().toStatSet();
    const std::map<std::string, double> par_stripped =
        entriesWithoutMetrics(par);

    ASSERT_EQ(base.size(), par_stripped.size());
    auto ip = par_stripped.begin();
    for (auto ib = base.begin(); ib != base.end(); ++ib, ++ip) {
        EXPECT_EQ(ib->first, ip->first);
        EXPECT_EQ(ib->second, ip->second)
            << "stat '" << ib->first << "' perturbed by observation";
    }

    GpuConfig obs_serial_cfg = obs_cfg;
    obs_serial_cfg.shards = 1;
    Gpu serial_gpu(obs_serial_cfg, kernel);
    const StatSet serial = serial_gpu.run().toStatSet();
    expectBitwiseIdentical(serial, par, "observed serial vs 3 shards");

    ASSERT_NE(serial_gpu.tracer(), nullptr);
    ASSERT_NE(par_gpu.tracer(), nullptr);
    EXPECT_EQ(serial_gpu.tracer()->eventSummary(),
              par_gpu.tracer()->eventSummary());
}

/**
 * The lifted warp cap under sharding: 80 warps/SM (beyond the old
 * 64-warp word) across 4 shards stays bitwise identical to serial —
 * WarpMask-based scoreboard/WGT/LLT state is shard-confined.
 */
TEST(ParallelEngine, MoreThan64WarpsPerSmBitwiseIdentical)
{
    GpuConfig cfg = smallGpu("laws", "sap");
    cfg.numSms = 4;
    cfg.sm.warpsPerSm = 80;
    cfg.sm.warpsPerBlock = 16;
    cfg.sm.jobsPerWarp = 1;
    const Kernel kernel = makeWorkload("NW", 0.05).kernel;

    const StatSet serial = simulate(cfg, kernel).toStatSet();
    GpuConfig par_cfg = cfg;
    par_cfg.shards = 4;
    const StatSet par = simulate(par_cfg, kernel).toStatSet();
    expectBitwiseIdentical(serial, par, "80 warps/SM, 4 shards");
}

// The engine's hot structures get their own targeted checks in
// lsu_structures_test.cpp; this file is end-to-end only.

} // namespace
} // namespace apres
