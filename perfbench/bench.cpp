/**
 * @file
 * Clocks, resource readings, the span recorder and the output checks
 * shared by every workload.
 */

#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/json_value.hpp"
#include "explore/signature.hpp"
#include "isa/kernel_text.hpp"

namespace apresbench {

double
now()
{
    using namespace std::chrono;
    return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double
processCpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MB
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
    const std::size_t idx =
        static_cast<std::size_t>(std::max(1.0, rank)) - 1;
    return v[std::min(idx, v.size() - 1)];
}

// ---- spans ---------------------------------------------------------------

int
Spans::open(const char* name)
{
    spans_.push_back({name, now(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
}

void
Spans::close(int id)
{
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = now();
    current_ = span.parent;
}

double
Spans::meanSeconds(const std::string& name) const
{
    double total = 0.0;
    std::size_t n = 0;
    for (const Span& s : spans_) {
        if (name == s.name) {
            total += s.end - s.start;
            ++n;
        }
    }
    return n ? total / static_cast<double>(n) : 0.0;
}

std::map<std::string, double>
Spans::selfSeconds() const
{
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[spans_[i].name] += spans_[i].end - spans_[i].start - child[i];
    return self;
}

void
Spans::write(const std::string& path) const
{
    std::ofstream out(path);
    apres::JsonWriter json(out);
    json.beginObject();
    json.beginArray("spans");
    const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
    for (const Span& s : spans_) {
        json.beginObject();
        json.field("name", s.name);
        json.field("startUs", (s.start - t0) * 1e6);
        json.field("endUs", (s.end - t0) * 1e6);
        json.field("parent", static_cast<double>(s.parent));
        json.endObject();
    }
    json.endArray();
    json.beginObject("selfSeconds");
    for (const auto& [name, secs] : selfSeconds())
        json.field(name, secs);
    json.endObject();
    json.endObject();
    json.finish();
}

// ---- checks --------------------------------------------------------------

std::uint64_t
expectedInstructions(const apres::Kernel& kernel, const apres::GpuConfig& config)
{
    std::uint64_t body = 0;
    std::uint64_t exits = 0;
    for (const apres::Instruction& inst : kernel.code()) {
        if (inst.op == apres::Opcode::kExit)
            ++exits;
        else
            ++body;
    }
    const std::uint64_t per_job = body * kernel.tripCount() + exits;
    const std::uint64_t jobs =
        static_cast<std::uint64_t>(config.numSms) *
        static_cast<std::uint64_t>(config.sm.warpsPerSm) *
        static_cast<std::uint64_t>(config.sm.jobsPerWarp);
    return per_job * jobs;
}

std::vector<std::string>
checkRun(const std::string& what, const apres::RunResult& r,
         std::uint64_t expected_instructions)
{
    std::vector<std::string> bad;
    if (r.status != "ok")
        bad.push_back(what + ": status " + r.status + " " + r.errorDetail);
    if (!r.completed)
        bad.push_back(what + ": did not complete");
    if (r.instructions != expected_instructions) {
        bad.push_back(what + ": " + std::to_string(r.instructions) +
                      " instructions, derived " +
                      std::to_string(expected_instructions));
    }
    const auto more = checkConservation(what, r);
    bad.insert(bad.end(), more.begin(), more.end());
    return bad;
}

std::vector<std::string>
checkConservation(const std::string& what, const apres::RunResult& r)
{
    std::vector<std::string> bad;
    if (r.l1.demandAccesses != r.l1.demandHits + r.l1.demandMisses)
        bad.push_back(what + ": l1.accesses != l1.hits + l1.misses");
    if (r.l2.demandAccesses != r.l2.demandHits + r.l2.demandMisses)
        bad.push_back(what + ": l2.accesses != l2.hits + l2.misses");
    return bad;
}

void
addLayerCounts(std::map<std::string, double>& acc, const apres::RunResult& r)
{
    auto add = [&](const char* key, double v) { acc[key] += v; };
    add("sim.instructions", static_cast<double>(r.instructions));
    add("sim.cycles", static_cast<double>(r.cycles));
    add("l1.accesses", static_cast<double>(r.l1.demandAccesses));
    add("l1.misses", static_cast<double>(r.l1.demandMisses));
    add("l1.mshrMerges", static_cast<double>(r.l1.mshrMerges));
    add("l2.accesses", static_cast<double>(r.l2.demandAccesses));
    add("dram.requests", static_cast<double>(r.dramRequests));
    add("lsu.mshrReplays", static_cast<double>(r.mshrReplays));
    add("ccws.events", r.policy.get("ccws.events"));
    add("laws.groupsFormed", r.policy.get("laws.groupsFormed"));
    add("sap.prefetchesIssued", r.policy.get("sap.prefetchesIssued"));
    add("prefetch.issued", static_cast<double>(r.prefetchesIssued));
    add("prefetch.fills", static_cast<double>(r.l1.prefetchFills));
    add("prefetch.useful", static_cast<double>(r.l1.usefulPrefetches));
}

double
statsDigest(const std::vector<const apres::RunResult*>& results)
{
    std::ostringstream os;
    os.precision(17);
    for (const apres::RunResult* r : results) {
        const apres::StatSet stats = r->toStatSet();
        for (const auto& [key, value] : stats.entries())
            os << key << '=' << value << '\n';
        os << "--\n";
    }
    return static_cast<double>(
        std::stoull(apres::contentHash(os.str()).substr(0, 12), nullptr, 16));
}

void
appendCountMetrics(std::vector<Metric>& metrics,
                   const std::map<std::string, double>& counts)
{
    for (const char* key :
         {"sim.instructions", "sim.cycles", "l1.accesses", "l1.misses",
          "l1.mshrMerges", "l2.accesses", "dram.requests", "lsu.mshrReplays",
          "ccws.events", "laws.groupsFormed", "sap.prefetchesIssued",
          "prefetch.issued"}) {
        const auto it = counts.find(key);
        metrics.push_back({key, it == counts.end() ? 0.0 : it->second,
                           "count"});
    }
    const auto fills = counts.find("prefetch.fills");
    const auto useful = counts.find("prefetch.useful");
    const double f = fills == counts.end() ? 0.0 : fills->second;
    metrics.push_back({"prefetch.useful_frac",
                       f > 0.0 ? useful->second / f : 0.0, "ratio"});
}

std::string
diffStats(const std::string& what, const apres::RunResult& a,
          const apres::RunResult& b)
{
    const auto sa = a.toStatSet().entries();
    const auto sb = b.toStatSet().entries();
    for (const auto& [key, value] : sa) {
        const auto it = sb.find(key);
        if (it == sb.end())
            return what + ": " + key + " missing";
        // Bitwise: a deterministic simulator repeats every double.
        if (std::memcmp(&value, &it->second, sizeof value) != 0) {
            std::ostringstream os;
            os.precision(17);
            os << what << ": " << key << " " << value << " vs " << it->second;
            return os.str();
        }
    }
    if (sa.size() != sb.size())
        return what + ": statistic sets differ in size";
    return "";
}

std::string
rawResultPayload(const std::string& response)
{
    const std::string tag = "\"result\":";
    std::size_t pos = response.find(tag);
    if (pos == std::string::npos)
        return "";
    pos = response.find('{', pos + tag.size());
    if (pos == std::string::npos)
        return "";
    int depth = 0;
    bool in_string = false;
    for (std::size_t i = pos; i < response.size(); ++i) {
        const char c = response[i];
        if (in_string) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_string = false;
        } else if (c == '"') {
            in_string = true;
        } else if (c == '{') {
            ++depth;
        } else if (c == '}' && --depth == 0) {
            return response.substr(pos, i - pos + 1);
        }
    }
    return "";
}

std::vector<std::string>
checkExplore(const std::string& report_json,
             const std::vector<ExploreEntry>& kept)
{
    std::vector<std::string> bad;
    const apres::JsonValue report = apres::JsonValue::parse(report_json);
    const std::uint64_t initial = report.at("initialCoverage").asUint64();
    const std::uint64_t fin = report.at("finalCoverage").asUint64();
    const std::uint64_t fresh = report.at("newBins").asUint64();
    if (fin != initial + fresh || fin == 0) {
        bad.push_back("explore: finalCoverage " + std::to_string(fin) +
                      " != initialCoverage " + std::to_string(initial) +
                      " + newBins " + std::to_string(fresh) + " > 0");
    }
    std::map<std::string, int> owners;
    for (const ExploreEntry& e : kept) {
        for (const std::string& bin : std::set<std::string>(
                 e.bins.begin(), e.bins.end()))
            ++owners[bin];
    }
    for (const ExploreEntry& e : kept) {
        try {
            const apres::KernelSignature sig =
                apres::parseSignature(e.signature);
            if (apres::serializeSignature(sig) != e.signature)
                bad.push_back("explore: " + e.name +
                              " signature does not round-trip");
            const apres::Kernel built = apres::buildKernel(sig, e.name);
            const apres::Kernel parsed = apres::parseKernelText(e.kernelText);
            if (built.code().size() != parsed.code().size() ||
                built.tripCount() != parsed.tripCount())
                bad.push_back("explore: " + e.name +
                              " corpus text does not rebuild its kernel");
        } catch (const std::exception& ex) {
            bad.push_back("explore: " + e.name + " does not rebuild: " +
                          ex.what());
        }
        const bool owns = std::any_of(
            e.bins.begin(), e.bins.end(),
            [&](const std::string& bin) { return owners[bin] == 1; });
        if (!owns)
            bad.push_back("explore: " + e.name + " owns no unique bin");
    }
    return bad;
}

void
recordCounts(Outcome& out, const std::map<std::string, double>& round,
             bool first)
{
    for (const auto& [key, value] : round) {
        if (first) {
            out.counts[key] = value;
            continue;
        }
        const auto it = out.counts.find(key);
        if (it == out.counts.end() || it->second != value) {
            std::ostringstream os;
            os.precision(17);
            os << "count " << key << " changed between rounds: "
               << (it == out.counts.end() ? NAN : it->second) << " -> "
               << value;
            out.failures.push_back(os.str());
        }
    }
}

void
runRounds(const Args& args, Spans& spans, Outcome& out,
          const std::function<Timed(int, Spans&)>& body)
{
    std::vector<double> cpus, traced, untraced;
    Spans off(false);
    const double start = now();
    double last_round = 0.0;
    const int min_rounds = args.trace ? 2 : 1;
    for (int round = 0;
         round < min_rounds || now() - start + last_round <= args.seconds;
         ++round) {
        const double round_start = now();
        const bool tracing = args.trace && round % 2 == 1;
        const Timed t = body(round, tracing ? spans : off);
        out.roundWalls.push_back(t.wall);
        cpus.push_back(t.cpu);
        (tracing ? traced : untraced).push_back(t.wall);
        last_round = now() - round_start;
    }
    out.metrics.push_back({"wall_s", median(out.roundWalls), "s"});
    out.metrics.push_back({"cpu_s", median(cpus), "s"});
    if (args.trace)
        out.metrics.push_back(
            {"trace.overhead", median(traced) / median(untraced), "ratio"});
}

} // namespace apresbench
