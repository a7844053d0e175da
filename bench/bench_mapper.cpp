/**
 * @file
 * Branch-and-bound pruning bench: wall time of the tiling search with
 * the admissible lower bound (analysis/lowerbound.hpp) disarmed vs
 * armed.
 *
 * Each workload runs the same MCTS tiling exploration (same seed, same
 * sample budget) through exploreTiling with MapperConfig::boundPrune
 * off (every candidate pays the full analytical model) and on
 * (candidates that provably cannot beat the best-so-far, or provably
 * overflow a buffer, are discarded after only the bound). The two arms
 * alternate, off then on, kRepeats times, so a noisy machine slows
 * both alike. The headline is the median over repetitions of
 * (off wall time / on wall time), summed over the workloads: how much
 * search time pruning saves end to end. The process fails (exit code
 * 1) when that ratio is under kBar, or when any run's best cycles
 * differ from the others' — pruning must never change the answer.
 * The mapper.bound_tightness histogram reports how close the bound
 * runs to the exact model on the candidates that were fully evaluated
 * (100 * bound / actual, in percent).
 *
 * Emits the headline numbers as JSON (default BENCH_mapper.json; CI
 * uploads it as an artifact) so regressions are diffable across
 * commits. --json PATH overrides the artifact path; --quick shrinks
 * the sample budget for CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "arch/presets.hpp"
#include "bench_util.hpp"
#include "common/telemetry.hpp"
#include "dataflows/attention.hpp"
#include "ir/shapes.hpp"
#include "mapper/mapper.hpp"

using namespace tileflow;

namespace {

/** Off/on pairs per workload. */
constexpr int kRepeats = 5;

/** Least median off/on wall-time ratio that passes. */
constexpr double kBar = 1.2;

struct RunStats
{
    double seconds = 0.0;
    uint64_t evaluations = 0;
    uint64_t pruned = 0;
    double bestCycles = 0.0;
};

RunStats
runOnce(const Evaluator& model, const MappingSpace& space, int samples,
        bool prune)
{
    MapperConfig cfg;
    cfg.boundPrune = prune;
    const auto t0 = std::chrono::steady_clock::now();
    const MapperResult result =
        exploreTiling(model, space, samples, 0x1235813u, cfg);
    RunStats stats;
    stats.seconds = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    stats.evaluations = uint64_t(result.evaluations);
    stats.pruned = result.boundPruned;
    stats.bestCycles = result.found ? result.bestCycles : 0.0;
    return stats;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

} // namespace

int
main(int argc, char** argv)
{
    int samples = 4000;
    std::string json_path = "BENCH_mapper.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
            samples = 800;
        } else if (std::strcmp(argv[i], "--json") == 0 &&
                   i + 1 < argc) {
            json_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: bench_mapper [--quick] [--json PATH]\n");
            return 2;
        }
    }

    bench::banner("Branch-and-bound pruning: search wall time with the "
                  "lower bound disarmed vs armed");

    std::printf("%-10s %10s %10s %9s %10s %10s %12s\n", "workload",
                "off ms", "on ms", "off/on", "evals(on)", "pruned",
                "best cycles");

    const ArchSpec edge = makeEdgeArch();
    bench::JsonReport json;
    json.number("samples", samples);
    json.number("repeats", kRepeats);

    std::vector<double> off_total(kRepeats, 0.0);
    std::vector<double> on_total(kRepeats, 0.0);
    bool same_best = true;

    for (const char* name : {"Bert-S", "Bert-L"}) {
        const Workload workload =
            buildAttention(attentionShape(name), true);
        const Evaluator model(workload, edge);
        const MappingSpace space =
            makeAttentionTilingSpace(workload, edge);

        std::vector<double> off_s, on_s;
        RunStats on;
        double best = 0.0;
        for (int rep = 0; rep < kRepeats; ++rep) {
            const RunStats off = runOnce(model, space, samples, false);
            on = runOnce(model, space, samples, true);
            off_s.push_back(off.seconds);
            on_s.push_back(on.seconds);
            off_total[size_t(rep)] += off.seconds;
            on_total[size_t(rep)] += on.seconds;
            if (rep == 0)
                best = off.bestCycles;
            same_best = same_best && best > 0.0 &&
                        off.bestCycles == best && on.bestCycles == best;
        }
        const double off_ms = 1e3 * median(off_s);
        const double on_ms = 1e3 * median(on_s);
        const double ratio = on_ms > 0.0 ? off_ms / on_ms : 0.0;
        std::printf("%-10s %10.1f %10.1f %8.2fx %10llu %10llu %12.0f\n",
                    name, off_ms, on_ms, ratio,
                    (unsigned long long)on.evaluations,
                    (unsigned long long)on.pruned, best);

        const std::string key = name;
        json.number(key + ".wall_ms_off", off_ms);
        json.number(key + ".wall_ms_on", on_ms);
        json.number(key + ".off_on_ratio", ratio);
        json.number(key + ".evaluations_on", double(on.evaluations));
        json.number(key + ".bound_pruned", double(on.pruned));
        json.number(key + ".best_cycles", best);
    }

    std::vector<double> ratios;
    for (int rep = 0; rep < kRepeats; ++rep)
        ratios.push_back(off_total[size_t(rep)] / on_total[size_t(rep)]);
    const double ratio = median(ratios);

    // Bound tightness on the candidates that were fully evaluated:
    // 100 * bound / actual in percent (bucketed — the histogram's
    // quantiles are upper bounds within 2x). 100% would be an exact
    // bound; admissibility guarantees it never exceeds 100.
    const Histogram& tightness =
        MetricsRegistry::global().histogram("mapper.bound_tightness");
    if (tightness.count() > 0) {
        std::printf("\nbound tightness (100*bound/actual, %%): "
                    "p50<=%llu p90<=%llu p99<=%llu over %llu "
                    "evaluated candidates\n",
                    (unsigned long long)tightness.quantileNs(0.5),
                    (unsigned long long)tightness.quantileNs(0.9),
                    (unsigned long long)tightness.quantileNs(0.99),
                    (unsigned long long)tightness.count());
    }
    json.number("tightness.count", double(tightness.count()));
    json.number("tightness.p50", double(tightness.quantileNs(0.5)));
    json.number("tightness.p90", double(tightness.quantileNs(0.9)));
    json.number("tightness.p99", double(tightness.quantileNs(0.99)));
    json.number("off_on_ratio", ratio);
    json.number("same_best", same_best ? 1.0 : 0.0);

    std::printf("\noff/on wall-time ratio, median of %d pairs: %.2fx "
                "(bar: >= %.1fx); best cycles %s with pruning on and "
                "off\n",
                kRepeats, ratio, kBar,
                same_best ? "identical" : "DIFFER");

    if (json.writeTo(json_path))
        std::printf("json written to %s\n", json_path.c_str());
    else
        std::fprintf(stderr, "failed to write %s\n", json_path.c_str());

    std::printf("\nprocess-cumulative telemetry:\n%s",
                MetricsRegistry::global().table().c_str());
    return ratio >= kBar && same_best ? 0 : 1;
}
