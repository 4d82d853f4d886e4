/**
 * @file
 * Shared plumbing of the apresbench workloads: arguments, the result
 * each workload hands back, host-side clocks and resource readings, the
 * in-memory span recorder behind the traced run, and the output checks.
 *
 * Every timing here is host time taken from the benchmark's own code
 * around calls into the simulator's public API; nothing in src/ is
 * instrumented.
 */

#ifndef APRESBENCH_BENCH_HPP
#define APRESBENCH_BENCH_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "sim/gpu.hpp"

namespace apresbench {

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string serveBin; ///< path of the apres_serve daemon binary
    std::string workDir;  ///< scratch directory inside the checkout
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What a workload hands back to main(). */
struct Outcome
{
    std::uint64_t attempted = 0; ///< operations: jobs, requests, probes
    std::uint64_t failed = 0;    ///< operations that did not finish ok
    std::vector<std::string> failures; ///< failed output checks
    std::vector<Metric> metrics;
    /** Recorded counts; must repeat exactly across the runs of a set. */
    std::map<std::string, double> counts;
    /** Time of each set-up repetition, seconds. */
    std::vector<double> setupSeconds;
    /** Wall time of each round's timed phase, seconds. */
    std::vector<double> roundWalls;
};

// ---- clocks and resource readings ---------------------------------------

/** Monotonic host seconds. */
double now();

/** User + system CPU seconds of this process so far. */
double processCpuSeconds();

/** Peak resident set of this process so far, MB (VmHWM). */
double peakRssMb();

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/** Nearest-rank percentile @p p in [0,100] of @p v (0 when empty). */
double percentile(std::vector<double> v, double p);

// ---- spans ---------------------------------------------------------------

/**
 * In-memory span recorder: name, start, end and parent of every span,
 * written out once when the run ends. Disabled recorders record
 * nothing, so untraced runs pay one branch per scope.
 */
class Spans
{
  public:
    explicit Spans(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; @return its id. */
    int open(const char* name);

    /** Close span @p id (must be the innermost open one). */
    void close(int id);

    /** Mean duration in seconds of the spans named @p name. */
    double meanSeconds(const std::string& name) const;

    /** Duration minus the time covered by direct children, per name. */
    std::map<std::string, double> selfSeconds() const;

    /** Write every span as one JSON document. */
    void write(const std::string& path) const;

  private:
    struct Span
    {
        const char* name;
        double start;
        double end;
        int parent;
    };

    bool enabled_;
    std::vector<Span> spans_;
    int current_ = -1;
};

/** RAII span scope. */
class Scope
{
  public:
    Scope(Spans& spans, const char* name)
        : spans_(spans), id_(spans.enabled() ? spans.open(name) : -1)
    {
    }
    ~Scope()
    {
        if (id_ >= 0)
            spans_.close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Spans& spans_;
    int id_;
};

// ---- output checks -------------------------------------------------------

/**
 * Warp instructions a completed run of @p kernel must retire on a
 * machine of @p config, derived from the static code alone: the loop
 * body (every instruction but the trailing exit) runs tripCount times
 * per launched warp job and the exit once.
 */
std::uint64_t expectedInstructions(const apres::Kernel& kernel,
                                   const apres::GpuConfig& config);

/**
 * Properties every result must have: status ok, completed, the
 * derived instruction count, and hit/miss conservation in L1 and L2.
 * @return one message per violated property, each prefixed by @p what.
 */
std::vector<std::string> checkRun(const std::string& what,
                                  const apres::RunResult& result,
                                  std::uint64_t expected_instructions);

/** Hit/miss conservation in L1 and L2 alone (holds for capped runs too). */
std::vector<std::string> checkConservation(const std::string& what,
                                           const apres::RunResult& result);

/**
 * Add the per-layer counts of @p result (instructions, cycles, L1/L2/
 * DRAM traffic, policy events, prefetches) into @p acc.
 */
void addLayerCounts(std::map<std::string, double>& acc,
                    const apres::RunResult& result);

/** 48-bit digest of every statistic of @p results, exact in a double. */
double statsDigest(const std::vector<const apres::RunResult*>& results);

/**
 * Per-layer metrics derived from summed counts: the counts themselves
 * plus prefetch.useful_frac, appended to @p metrics.
 */
void appendCountMetrics(std::vector<Metric>& metrics,
                        const std::map<std::string, double>& counts);

/**
 * Compare two results statistic by statistic; @return one message for
 * the first difference, empty when bitwise identical.
 */
std::string diffStats(const std::string& what, const apres::RunResult& a,
                      const apres::RunResult& b);

/**
 * The "result" object of a serve run response, as the raw bytes the
 * daemon sent (empty when absent): hits splice cached payloads
 * verbatim, so hit and miss must match byte for byte.
 */
std::string rawResultPayload(const std::string& response);

/**
 * Checks of an explore report and corpus: finalCoverage ==
 * initialCoverage + newBins > 0, every corpus file's signature
 * round-trips and its kernel text rebuilds, and every kept entry owns a
 * bin no other kept entry lights.
 */
struct ExploreEntry
{
    std::string name;
    std::string signature;     ///< serialized signature
    std::string kernelText;    ///< the corpus file written for it
    std::vector<std::string> bins;
};
std::vector<std::string> checkExplore(const std::string& report_json,
                                      const std::vector<ExploreEntry>& kept);

/** Run the checks against doctored inputs; @return 0 when all reject. */
int selfTest();

// ---- workloads -----------------------------------------------------------

Outcome runFigureSuite(const Args& args, Spans& spans);
Outcome runFullchip(const Args& args, Spans& spans);
Outcome runServeReplay(const Args& args, Spans& spans);
Outcome runExploreCampaign(const Args& args, Spans& spans);

/** Host wall and CPU seconds of one round's timed phase. */
struct Timed
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Wall and CPU seconds of this process spent in @p phase. */
template <class F>
Timed
timePhase(F&& phase)
{
    const double c0 = processCpuSeconds();
    const double w0 = now();
    phase();
    return {now() - w0, processCpuSeconds() - c0};
}

/**
 * Run whole rounds of a workload until the next one would end after
 * args.seconds: at least one, two when tracing. A traced run alternates
 * untraced and traced rounds, so the tracing overhead is measured on the
 * same work. @p body(round, spans) runs one round and returns its timed
 * phase; its spans record only in traced rounds. Appends wall_s and
 * cpu_s (medians over rounds) and, when tracing, trace.overhead to
 * out.metrics, and every round's wall to out.roundWalls.
 */
void runRounds(const Args& args, Spans& spans, Outcome& out,
               const std::function<Timed(int, Spans&)>& body);

/**
 * Add each recorded count of @p round to @p out; on a later round, a
 * count that differs from the first round's becomes a failure.
 */
void recordCounts(Outcome& out, const std::map<std::string, double>& round,
                  bool first);


} // namespace apresbench

#endif // APRESBENCH_BENCH_HPP
