/**
 * @file
 * Scaling study of the parallel execution layer: the per-chip Monte
 * Carlo fan-out (manufacture + adapt one app per chip) at 1/2/4/8
 * threads over the same chip population.  Two properties are checked
 * and reported:
 *   - wall-clock speedup vs the single-thread run (the work is
 *     embarrassingly parallel, so it should approach the thread count
 *     on an idle multi-core host);
 *   - bit-identical results: every per-chip metric must match the
 *     1-thread run exactly at every thread count (the determinism
 *     contract of Rng::split + serial-order accumulation).
 *
 * EVAL_CHIPS resizes the population (default 32).
 */

#include <algorithm>
#include <cstring>

#include "bench_common.hh"

using namespace eval;

namespace {

struct ScalingRun
{
    double wallS = 0.0;
    std::vector<AppRunResult> runs;
};

bool
bitIdentical(const AppRunResult &a, const AppRunResult &b)
{
    return std::memcmp(&a.freqRel, &b.freqRel, sizeof a.freqRel) == 0 &&
           std::memcmp(&a.perfRel, &b.perfRel, sizeof a.perfRel) == 0 &&
           std::memcmp(&a.powerW, &b.powerW, sizeof a.powerW) == 0 &&
           std::memcmp(&a.pePerInstr, &b.pePerInstr,
                       sizeof a.pePerInstr) == 0;
}

/**
 * One full pipeline at @p threads: manufacture the population
 * (parallel variation-field FFTs), then adapt one app on every chip
 * (parallel per-chip fan-out).  The shared-cache prewarm between the
 * two segments is excluded from the timing: the characterization
 * probes fan out in CharacterizationCache::warm and the NoVar
 * reference is one serial run, and neither is the per-chip layer
 * under study.
 */
ScalingRun
runAtThreads(BenchReporter &reporter, const ExperimentConfig &cfg,
             std::size_t threads)
{
    setGlobalThreads(threads);
    const AppProfile &app = appByName("gzip");

    const auto t0 = std::chrono::steady_clock::now();
    ExperimentContext ctx(cfg);
    const auto t1 = std::chrono::steady_clock::now();

    // Untimed prewarm of the shared caches.
    ctx.characterizations().warm({&app});
    ctx.novarPerf(app);

    const auto t2 = std::chrono::steady_clock::now();
    auto runs = globalPool().parallelMap(
        static_cast<std::size_t>(cfg.chips), [&](std::size_t chip) {
            return ctx.runApp(chip, 0, app, EnvironmentKind::TS_ASV,
                              AdaptScheme::ExhDyn);
        });
    const auto t3 = std::chrono::steady_clock::now();
    reporter.addChips(cfg.chips);

    ScalingRun out;
    out.wallS = std::chrono::duration<double>(t1 - t0).count() +
                std::chrono::duration<double>(t3 - t2).count();
    out.runs = std::move(runs);
    return out;
}

} // namespace

int
main()
{
    BenchReporter reporter("parallel_scaling");
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = benchChips(32);

    const std::vector<std::size_t> threadCounts = {1, 2, 4, 8};
    std::vector<ScalingRun> results;
    for (std::size_t n : threadCounts)
        results.push_back(runAtThreads(reporter, cfg, n));

    bool identical = true;
    for (std::size_t i = 1; i < results.size(); ++i) {
        for (int c = 0; c < cfg.chips; ++c) {
            if (!bitIdentical(results[0].runs[c], results[i].runs[c]))
                identical = false;
        }
    }

    TablePrinter table("Parallel scaling: per-chip fan-out");
    table.header({"threads", "wall (s)", "speedup"});
    const double base = results[0].wallS;
    for (std::size_t i = 0; i < threadCounts.size(); ++i) {
        table.row({std::to_string(threadCounts[i]),
                   formatDouble(results[i].wallS, 2),
                   formatDouble(base / results[i].wallS, 2)});
    }
    table.print();
    std::printf("\n%d chips, %u hardware threads; results %s across "
                "thread counts.\n",
                cfg.chips, std::thread::hardware_concurrency(),
                identical ? "BIT-IDENTICAL" : "DIVERGED");

    for (std::size_t i = 0; i < threadCounts.size(); ++i) {
        reporter.metric(
            "wall_s_" + std::to_string(threadCounts[i]) + "t",
            results[i].wallS);
    }
    reporter.metric("speedup_8t", base / results.back().wallS);
    reporter.metric("bit_identical", identical ? 1.0 : 0.0);
    reporter.metric("chips", cfg.chips);

    // Span-tracer overhead: the same single-thread pipeline with the
    // tracer off and on.  Off must record nothing at all (the
    // disabled path is one relaxed atomic load); on must record the
    // full timeline, and the wall-clock delta is the overhead the
    // ≤3% budget in DESIGN.md Sec 5e refers to.
    SpanTracer &tracer = SpanTracer::global();
    const bool wasTracing = tracer.enabled();
    constexpr int kOverheadReps = 3; // min-of-N tames scheduler noise
    constexpr double kOverheadBudgetPct = 3.0; // DESIGN.md Sec 5e

    tracer.setEnabled(false);
    const std::size_t eventsBefore = tracer.eventCount();
    double offWallS = runAtThreads(reporter, cfg, 1).wallS;
    double offMaxS = offWallS;
    for (int i = 1; i < kOverheadReps; ++i) {
        const double w = runAtThreads(reporter, cfg, 1).wallS;
        offWallS = std::min(offWallS, w);
        offMaxS = std::max(offMaxS, w);
    }
    EVAL_ASSERT(tracer.eventCount() == eventsBefore,
                "disabled tracer recorded span events");

    tracer.setEnabled(true);
    double onWallS = runAtThreads(reporter, cfg, 1).wallS;
    for (int i = 1; i < kOverheadReps; ++i)
        onWallS = std::min(onWallS, runAtThreads(reporter, cfg, 1).wallS);
    EVAL_ASSERT(tracer.eventCount() > eventsBefore,
                "enabled tracer recorded no span events");
    tracer.setEnabled(wasTracing);

    // The assertion tolerates the run-to-run spread of the tracer-off
    // samples on top of the budget: short EVAL_FAST windows jitter by
    // several percent under scheduler noise, and the budget polices
    // the tracer, not the machine.
    const double overheadPct =
        offWallS > 0.0 ? (onWallS / offWallS - 1.0) * 100.0 : 0.0;
    const double noisePct =
        offWallS > 0.0 ? (offMaxS / offWallS - 1.0) * 100.0 : 0.0;
    std::printf("span tracer overhead: %.2f%% (%zu events, budget "
                "%.0f%% + %.2f%% measured noise)\n",
                overheadPct, tracer.eventCount() - eventsBefore,
                kOverheadBudgetPct, noisePct);
    EVAL_ASSERT(overheadPct <= kOverheadBudgetPct + noisePct,
                "span tracer overhead exceeds the enabled budget");
    reporter.metric("span_overhead_pct", overheadPct);
    reporter.metric(
        "span_events",
        static_cast<double>(tracer.eventCount() - eventsBefore));

    return identical ? 0 : 1;
}
