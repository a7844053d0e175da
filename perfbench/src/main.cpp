/**
 * @file
 * The TileFlow benchmark program. One run sets up one workload, runs
 * its operations in a closed loop (one client, one process) for the
 * requested time, checks every output, and prints one JSON line:
 *
 *   perfbench --workload W --seed N --seconds S --trace 0|1
 *             [--spec-dir DIR] [--golden FILE] [--trace-out FILE]
 *   perfbench --write-golden FILE
 *
 * --trace 0 reports the end-to-end metrics with tracing off. --trace 1
 * instead reports per-layer metrics: it reruns the operations with
 * tracing on, with bound pruning off and with incremental evaluation
 * off, replays single layer calls, probes determinism, and writes a
 * Chrome trace to --trace-out. README.md maps every metric to the
 * layer it measures and the end-to-end metric it should move.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "common/telemetry.hpp"
#include "probes.hpp"
#include "suite.hpp"

using namespace perfbench;

namespace {

// Set-up takes from a fraction of a millisecond to a few, so a single
// sample mostly measures the machine's noise at that moment. setup_s is
// the median of samples taken between passes, at most every
// kSetupEverySeconds, so that they spread over the run and each starts
// from the state a pass leaves behind. The set-ups before the first
// operation feed only the traced run's per-layer set-up metrics.
constexpr int kFirstSetups = 5;
constexpr double kSetupEverySeconds = 0.2;
constexpr size_t kMinOps = 110; // ten samples beyond p90
constexpr int kProbePerSpace = 24;

// The traced phase reruns the untraced baseline's passes. Capping the
// baseline keeps the Chrome trace to about one search pass (some
// 150k events) or a few dozen model-eval passes.
constexpr double kTracedSeconds = 2.0;

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string specDir = "examples/specs";
    std::string golden = "perfbench/golden/model_eval.tsv";
    std::string traceOut;
    std::string writeGolden;
};

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "search-3d|search-tiling|model-eval --seed N --seconds S "
                 "--trace 0|1 [--spec-dir DIR] [--golden FILE] "
                 "[--trace-out FILE]\n       perfbench --write-golden FILE\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + arg);
        const std::string v = argv[++i];
        char* end = nullptr;
        if (arg == "--workload") {
            a.workload = v;
        } else if (arg == "--seed") {
            a.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = !v.empty() && *end == '\0';
        } else if (arg == "--seconds") {
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end != '\0' || !(a.seconds > 0.0))
                usage("--seconds must be a positive number");
        } else if (arg == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace must be 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--spec-dir") {
            a.specDir = v;
        } else if (arg == "--golden") {
            a.golden = v;
        } else if (arg == "--trace-out") {
            a.traceOut = v;
        } else if (arg == "--write-golden") {
            a.writeGolden = v;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!a.writeGolden.empty())
        return a;
    const auto& names = workloadNames();
    if (std::find(names.begin(), names.end(), a.workload) == names.end())
        usage("unknown workload '" + a.workload + "'");
    if (!have_seed)
        usage("--seed must be a non-negative integer");
    if (a.seconds <= 0.0)
        usage("--seconds is required");
    if (a.trace && a.traceOut.empty())
        usage("--trace 1 needs --trace-out");
    return a;
}

// ---------------------------------------------------------------------
// model-eval goldens
// ---------------------------------------------------------------------

/** The values a golden line pins: cycles, energy, then read / fill /
 *  update bytes per memory level, innermost first. */
std::vector<double>
goldenValues(const EvalResult& r)
{
    std::vector<double> v = {r.valid ? 1.0 : 0.0, r.cycles, r.energyPJ};
    for (const LevelTraffic& level : r.dm.levels) {
        v.push_back(level.readBytes);
        v.push_back(level.fillBytes);
        v.push_back(level.updateBytes);
    }
    return v;
}

bool
sameBits(const std::vector<double>& a, const std::vector<double>& b)
{
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](double x, double y) {
                          return std::bit_cast<uint64_t>(x) ==
                                 std::bit_cast<uint64_t>(y);
                      });
}

int
writeGolden(const std::string& path, const std::string& spec_dir)
{
    const auto suite = makeSuite("model-eval", spec_dir);
    std::ofstream out(path);
    out << "# model-eval goldens: tree, valid, cycles, energy_pJ, then "
           "read/fill/update bytes per level (innermost first).\n"
           "# %.17g round-trips every double exactly; compared bit for "
           "bit.\n";
    for (const TreeCase& c : suite->trees) {
        out << c.label;
        for (double v : goldenValues(c.model->evaluate(*c.tree))) {
            char buf[40];
            std::snprintf(buf, sizeof buf, "\t%.17g", v);
            out << buf;
        }
        out << "\n";
    }
    out.close();
    if (!out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}

/** Golden values per tree, in suite order; fatal() when the file is
 *  missing or does not cover every tree. */
std::vector<std::vector<double>>
loadGolden(const std::string& path, const Suite& suite)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot read golden file '", path, "'");
    std::map<std::string, std::vector<double>> by_label;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string label;
        std::getline(fields, label, '\t');
        std::vector<double> values;
        std::string field;
        while (std::getline(fields, field, '\t'))
            values.push_back(std::strtod(field.c_str(), nullptr));
        by_label[label] = std::move(values);
    }
    std::vector<std::vector<double>> out;
    for (const TreeCase& c : suite.trees) {
        const auto it = by_label.find(c.label);
        if (it == by_label.end())
            fatal("golden file '", path, "' has no entry for ", c.label);
        out.push_back(it->second);
    }
    return out;
}

// ---------------------------------------------------------------------
// Operations and passes
// ---------------------------------------------------------------------

/** Tree builds seen through the wrapped MappingSpace builder. */
struct BuildStats
{
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> ns{0};
    std::atomic<uint64_t> allocs{0};
};

/** A MappingSpace with the same knobs whose builder times each call
 *  and records it as a span; the wrapped space must outlive it. */
MappingSpace
wrapSpace(const MappingSpace& inner, BuildStats& stats)
{
    return MappingSpace(inner.knobs(), [&inner, &stats](
                                           const std::vector<int64_t>& c) {
        const uint64_t allocs = threadAllocs();
        const uint64_t start = telemetryNowNs();
        AnalysisTree tree = inner.build(c);
        const uint64_t end = telemetryNowNs();
        stats.calls.fetch_add(1, std::memory_order_relaxed);
        stats.ns.fetch_add(end - start, std::memory_order_relaxed);
        stats.allocs.fetch_add(threadAllocs() - allocs,
                               std::memory_order_relaxed);
        if (tracingEnabled())
            traceRecordSpan("bench.space.build", "bench", start, end);
        return tree;
    });
}

struct Phase
{
    std::vector<double> latencyNs;
    std::vector<double> bestVsRef; ///< search ops with a reference
    uint64_t failed = 0;
    int passes = 0;
    double wallS = 0.0; ///< inside passes only
    double cpuS = 0.0;

    size_t ops() const { return latencyNs.size(); }
    double throughput() const { return wallS > 0.0 ? ops() / wallS : 0.0; }
};

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           double(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

class Runner
{
  public:
    Runner(const Suite& suite, uint64_t seed) : suite_(suite), seed_(seed)
    {
    }

    std::vector<std::vector<double>> golden;

    /** Spaces used instead of the cases' own (traced phase). */
    const std::vector<MappingSpace>* spaces = nullptr;

    SearchArm arm;

    /** Called after every pass, outside its timing (nullable). */
    std::function<void()> betweenPasses;

    size_t
    size() const
    {
        return suite_.searches.empty() ? suite_.trees.size()
                                       : suite_.searches.size();
    }

    /**
     * Run whole passes over every case in a seeded order until at
     * least `min_seconds` and `min_ops` are reached, or exactly
     * `passes` passes when it is positive. Pass p always draws the
     * same order and per-operation seeds, so two phases with the same
     * pass count run the same operations.
     */
    Phase
    run(double min_seconds, size_t min_ops, int passes = 0)
    {
        Phase ph;
        const auto t0 = std::chrono::steady_clock::now();
        for (int p = 0;; ++p) {
            const auto start = std::chrono::steady_clock::now();
            const double elapsed =
                std::chrono::duration<double>(start - t0).count();
            if (passes > 0 ? p >= passes
                           : p > 0 && elapsed >= min_seconds &&
                                 ph.ops() >= min_ops)
                break;
            const double cpu0 = cpuSeconds();
            runPass(p, ph);
            ph.cpuS += cpuSeconds() - cpu0;
            ph.wallS += std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
            ++ph.passes;
            if (betweenPasses)
                betweenPasses();
        }
        return ph;
    }

    /**
     * Run pass 0's operations once per arm, the arms of one operation
     * back to back in an order that rotates from one operation to the
     * next, so that the latencies compared are taken under the same
     * machine load. Returns one phase per arm.
     */
    std::vector<Phase>
    runArms(const std::vector<SearchArm>& arms)
    {
        std::vector<Phase> out(arms.size());
        size_t k = 0;
        forEachOp(0, [&](size_t idx, uint64_t op_seed) {
            for (size_t j = 0; j < arms.size(); ++j) {
                const size_t a = (j + k) % arms.size();
                arm = arms[a];
                runOp(idx, op_seed, out[a]);
            }
            ++k;
        });
        arm = {};
        return out;
    }

  private:
    void
    runPass(int pass, Phase& ph)
    {
        forEachOp(pass, [&](size_t idx, uint64_t op_seed) {
            runOp(idx, op_seed, ph);
        });
    }

    /** Pass `pass`'s seeded order of cases and per-operation seeds. */
    template <typename F>
    void
    forEachOp(int pass, F&& fn)
    {
        std::vector<size_t> order(size());
        std::iota(order.begin(), order.end(), 0);
        uint64_t state = mix(seed_ ^ mix(uint64_t(pass)));
        for (size_t i = order.size(); i > 1; --i) {
            state = mix(state);
            std::swap(order[i - 1], order[state % i]);
        }
        for (size_t idx : order) {
            state = mix(state);
            fn(idx, state);
        }
    }

    void
    runOp(size_t idx, uint64_t op_seed, Phase& ph)
    {
        std::string failure;
        const uint64_t start = telemetryNowNs();
        uint64_t end = start;
        try {
            if (suite_.searches.empty()) {
                const TreeCase& c = suite_.trees[idx];
                const EvalResult r = c.model->evaluate(*c.tree);
                end = telemetryNowNs();
                if (tracingEnabled())
                    traceRecordSpan("bench.op", "bench", start, end);
                if (!sameBits(goldenValues(r), golden[idx]))
                    failure = c.label + ": differs from the golden";
            } else {
                const SearchCase& c = suite_.searches[idx];
                const MappingSpace& space =
                    spaces ? (*spaces)[idx] : *c.space;
                const MapperResult r =
                    runSearch(suite_, c, space, op_seed, arm);
                end = telemetryNowNs();
                if (tracingEnabled())
                    traceRecordSpan("bench.op", "bench", start, end);
                failure = checkSearch(c, r);
                if (failure.empty() && c.refCycles > 0.0)
                    ph.bestVsRef.push_back(r.bestCycles / c.refCycles);
                if (!failure.empty())
                    failure = c.label + ": " + failure;
            }
        } catch (const std::exception& e) {
            end = telemetryNowNs();
            failure = std::string("operation threw: ") + e.what();
        }
        ph.latencyNs.push_back(double(end - start));
        if (!failure.empty()) {
            ++ph.failed;
            if (ph.failed <= 5)
                std::fprintf(stderr, "perfbench: FAILED %s\n",
                             failure.c_str());
        }
    }

    const Suite& suite_;
    uint64_t seed_;
};

// ---------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------

/** Linear-interpolated quantile, q in [0, 1]. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

class Metrics
{
  public:
    void
    add(const std::string& name, double value, const char* unit)
    {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g",
                      std::isfinite(value) ? value : 0.0);
        if (!json_.empty())
            json_ += ", ";
        json_ += "\"" + name + "\": {\"value\": " + buf +
                 ", \"unit\": \"" + unit + "\"}";
    }

    const std::string& json() const { return json_; }

  private:
    std::string json_;
};

/** Peak of two registry gauges, sampled every millisecond. */
class GaugePeaks
{
  public:
    GaugePeaks()
        : thread_([this] {
              MetricsRegistry& reg = MetricsRegistry::global();
              const Gauge& subtree = reg.gauge("analysis.subtree_bytes");
              const Gauge& evalcache = reg.gauge("evalcache.bytes");
              while (!stop_.load()) {
                  subtree_ = std::max(subtree_, subtree.value());
                  evalcache_ = std::max(evalcache_, evalcache.value());
                  std::this_thread::sleep_for(std::chrono::milliseconds(1));
              }
          })
    {
    }

    ~GaugePeaks() { stop(); }

    GaugePeaks(const GaugePeaks&) = delete;
    GaugePeaks& operator=(const GaugePeaks&) = delete;

    void
    stop()
    {
        stop_ = true;
        if (thread_.joinable())
            thread_.join();
    }

    /** Peaks; read only after stop(). */
    double subtree() const { return subtree_; }
    double evalcache() const { return evalcache_; }

  private:
    std::atomic<bool> stop_{false};
    double subtree_ = 0.0;
    double evalcache_ = 0.0;
    std::thread thread_;
};

/** Mean of (arm latency - base latency) over the operations both
 *  phases ran in the same order, in ms. */
double
netMs(const Phase& base, const Phase& arm)
{
    const size_t n = std::min(base.ops(), arm.ops());
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i)
        sum += arm.latencyNs[i] - base.latencyNs[i];
    return n ? sum / double(n) / 1e6 : 0.0;
}

void
addEndToEnd(Metrics& m, const Phase& ph, double setup_s,
            double best_vs_ref)
{
    m.add("latency_ms.p50", quantile(ph.latencyNs, 0.5) / 1e6, "ms");
    m.add("latency_ms.p90", quantile(ph.latencyNs, 0.9) / 1e6, "ms");
    m.add("throughput_ops_s", ph.throughput(), "1/s");
    m.add("cpu_ms_per_op", ph.cpuS * 1e3 / double(ph.ops()), "ms");
    m.add("best_vs_ref.geomean", best_vs_ref, "ratio");
    m.add("setup_s", setup_s, "s");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    m.add("peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB");
}

/**
 * model-eval's quality figure: per shape and arch, the best canned
 * dataflow's cycles over the TileFlow dataflow's, as a geomean.
 */
double
cannedBestVsRef(const Suite& suite)
{
    std::map<std::string, std::pair<double, double>> groups;
    for (const TreeCase& c : suite.trees) {
        const EvalResult r = c.model->evaluate(*c.tree);
        if (!r.valid)
            continue;
        auto& [best, ref] = groups[c.group];
        best = best > 0.0 ? std::min(best, r.cycles) : r.cycles;
        if (c.tileflowDataflow)
            ref = r.cycles;
    }
    std::vector<double> ratios;
    for (const auto& [group, g] : groups) {
        if (g.second > 0.0)
            ratios.push_back(g.first / g.second);
    }
    return geomean(ratios);
}

uint64_t
counter(const char* name)
{
    return MetricsRegistry::global().counterValue(name);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    setInformEnabled(false);
    try {
        if (!args.writeGolden.empty())
            return writeGolden(args.writeGolden, args.specDir);

        // The last suite is kept; the traced run traces one more set-up.
        std::unique_ptr<Suite> suite;
        std::vector<double> frontend_ns, space_ns, dataflow_ns;
        auto setUp = [&] {
            suite.reset();
            suite = makeSuite(args.workload, args.specDir);
            const SetupTimes& t = suite->times;
            frontend_ns.push_back(double(t.frontend.ns));
            space_ns.push_back(double(t.space.ns));
            dataflow_ns.push_back(t.dataflow.meanUs());
        };
        for (int i = 0; i < kFirstSetups; ++i)
            setUp();
        if (args.trace) {
            setTracingEnabled(true);
            setUp();
        }
        setTracingEnabled(false);

        attachReferences(*suite);
        Runner runner(*suite, args.seed);
        if (!suite->trees.empty())
            runner.golden = loadGolden(args.golden, *suite);
        const bool search = !suite->searches.empty();

        Metrics m;
        uint64_t attempted = 0;
        uint64_t failed = 0;
        auto account = [&](const Phase& ph) {
            attempted += ph.ops();
            failed += ph.failed;
        };

        if (!args.trace) {
            // Set-up samples between passes build a fresh suite and
            // drop it; the runner keeps using its own. The first pass is
            // always followed by one.
            std::vector<double> setup_ns;
            std::chrono::steady_clock::time_point last_sample{};
            runner.betweenPasses = [&] {
                const auto now = std::chrono::steady_clock::now();
                if (now - last_sample <
                    std::chrono::duration<double>(kSetupEverySeconds))
                    return;
                setup_ns.push_back(
                    double(makeSuite(args.workload, args.specDir)->times.totalNs));
                last_sample = std::chrono::steady_clock::now();
            };
            const Phase ph = runner.run(args.seconds, kMinOps);
            runner.betweenPasses = nullptr;
            account(ph);
            addEndToEnd(m, ph, median(setup_ns) / 1e9,
                        search ? geomean(ph.bestVsRef)
                               : cannedBestVsRef(*suite));
            std::fprintf(stderr,
                         "perfbench: %s seed %llu: %zu ops in %d passes, "
                         "%.2f s; %zu set-up samples\n",
                         args.workload.c_str(),
                         (unsigned long long)args.seed, ph.ops(),
                         ph.passes, ph.wallS, setup_ns.size());
        } else {
            // One warm-up pass, so that the untraced baseline does not
            // pay the process's first-touch costs that its traced rerun
            // no longer pays.
            account(runner.run(0.0, 0, 1));
            const Phase base =
                runner.run(std::min(args.seconds / 4.0, kTracedSeconds), 1);
            account(base);
            double bound_net = 0.0, incremental_net = 0.0;
            if (search) {
                SearchArm no_prune;
                no_prune.boundPrune = false;
                SearchArm no_incremental;
                no_incremental.incremental = false;
                const std::vector<Phase> arms =
                    runner.runArms({SearchArm{}, no_prune, no_incremental});
                for (const Phase& ph : arms)
                    account(ph);
                bound_net = netMs(arms[0], arms[1]);
                incremental_net = netMs(arms[0], arms[2]);
            }
            DeterminismResult det;
            if (suite->name == "search-3d")
                det = determinismProbe(*suite, args.seed);

            // Traced rerun of the baseline's passes.
            std::vector<BuildStats> builds(suite->searches.size());
            std::vector<MappingSpace> wrapped;
            for (size_t i = 0; i < suite->searches.size(); ++i)
                wrapped.push_back(wrapSpace(*suite->searches[i].space,
                                            builds[i]));
            runner.spaces = &wrapped;
            MetricsRegistry& reg = MetricsRegistry::global();
            reg.reset();
            clearTrace();
            setTracingEnabled(true);
            GaugePeaks peaks;
            const Phase traced = runner.run(0.0, 0, base.passes);
            peaks.stop();
            account(traced);
            const ReplayResult replay =
                replayProbe(*suite, args.seed, kProbePerSpace);
            setTracingEnabled(false);

            const double ops = double(traced.ops());
            uint64_t build_calls = 0, build_ns = 0, build_allocs = 0;
            for (const BuildStats& b : builds) {
                build_calls += b.calls;
                build_ns += b.ns;
                build_allocs += b.allocs;
            }
            const Histogram& batch = reg.histogram("mcts.batch_ns");
            const Histogram& gen = reg.histogram("ga.generation_ns");
            const Histogram& wait = reg.histogram("threadpool.queue_wait_ns");
            const double candidates = double(counter("mapper.candidates"));
            const double hits = double(counter("evalcache.hits"));

            m.add("frontend.load_ms", median(frontend_ns) / 1e6, "ms");
            m.add("space.make_ms", median(space_ns) / 1e6, "ms");
            m.add("space.build_us", ratio(build_ns / 1e3, build_calls), "us");
            m.add("space.build_allocs", ratio(build_allocs, build_calls),
                  "count");
            m.add("space.builds_per_op", ratio(build_calls, ops), "count");
            m.add("dataflow.build_us", median(dataflow_ns), "us");
            m.add("validate.us", replay.validate.meanUs(), "us");
            m.add("evaluate.us", replay.evaluate.meanUs(), "us");
            m.add("evaluate.allocs", replay.evaluate.meanAllocs(), "count");
            m.add("incremental.us", replay.incremental.meanUs(), "us");
            m.add("subtree.hit_ratio",
                  ratio(counter("analysis.subtree_hits"),
                        counter("analysis.subtree_lookups")),
                  "ratio");
            m.add("subtree.bytes", peaks.subtree(), "B");
            m.add("bound.us", replay.bound.meanUs(), "us");
            m.add("bound.allocs", replay.bound.meanAllocs(), "count");
            m.add("bound.prune_ratio",
                  ratio(counter("mapper.bound_pruned"), candidates), "ratio");
            m.add("bound.tightness.p50", quantile(replay.tightness, 0.5), "%");
            m.add("bound.tightness.p90", quantile(replay.tightness, 0.9), "%");
            m.add("bound.net_ms", bound_net, "ms");
            m.add("incremental.net_ms", incremental_net, "ms");
            m.add("mapper.candidates_per_op", candidates / ops, "count");
            m.add("mapper.evaluations_per_op",
                  counter("mapper.evaluations") / ops, "count");
            m.add("evalcache.hit_ratio",
                  ratio(hits, hits + counter("evalcache.misses")), "ratio");
            m.add("evalcache.lookup_us", replay.evalcache.meanUs(), "us");
            m.add("evalcache.bytes", peaks.evalcache(), "B");
            m.add("mcts.batch_us", batch.meanNs() / 1e3, "us");
            m.add("ga.generation_ms", gen.meanNs() / 1e6, "ms");
            m.add("threadpool.queue_wait_us.p50",
                  wait.count() ? wait.quantileNs(0.5) / 1e3 : 0.0, "us");
            m.add("threadpool.queue_wait_us.p90",
                  wait.count() ? wait.quantileNs(0.9) / 1e3 : 0.0, "us");
            m.add("threadpool.tasks_per_op", counter("threadpool.tasks") / ops,
                  "count");
            m.add("trace.overhead",
                  ratio(base.throughput(), traced.throughput()) - 1.0,
                  "ratio");
            m.add("determinism.result_mismatches",
                  double(det.resultMismatches), "count");
            m.add("determinism.evals_spread", double(det.evalsSpread),
                  "count");

            if (!writeChromeTrace(args.traceOut))
                fatal("cannot write trace to '", args.traceOut, "'");
            std::fprintf(stderr,
                         "perfbench: %s seed %llu traced: %zu ops, "
                         "%zu trace events (%llu dropped) in %s\n",
                         args.workload.c_str(),
                         (unsigned long long)args.seed, traced.ops(),
                         traceEventCount(),
                         (unsigned long long)traceDroppedCount(),
                         args.traceOut.c_str());
        }

        std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                    "%llu, \"metrics\": {%s}}\n",
                    failed == 0 ? "true" : "false",
                    (unsigned long long)attempted,
                    (unsigned long long)failed, m.json().c_str());
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
