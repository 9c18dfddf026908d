/**
 * @file
 * Shared driver for the figure/table benches: runs the (environment x
 * scheme x application x chip) sweep of Sec 6 and aggregates the
 * relative frequency / performance / power metrics.
 *
 * Conventions (DESIGN.md Sec 5): EVAL_CHIPS overrides the per-bench
 * default chip count (the paper uses 100); EVAL_SEED, EVAL_APPS and
 * EVAL_FAST are honoured through ExperimentConfig::fromEnv;
 * EVAL_THREADS sizes the global thread pool for the per-chip fan-out
 * (unset = hardware concurrency; results are bit-identical either
 * way, see DESIGN.md Sec 5c).
 *
 * Observability (DESIGN.md "Observability"): every bench constructs a
 * BenchReporter, which prints one machine-readable JSON footer line
 * ("BENCH_JSON {...}") with the bench name, wall-clock seconds, peak
 * RSS, and its key metrics.  EVAL_BENCH_JSON=path also appends the
 * footer to a file.  Every other run artifact comes from
 * obs/telemetry.hh, the same setup eval_cli uses: EVAL_STATS_OUT
 * (stats JSON), EVAL_TRACE_OUT (decision trace), EVAL_TRACE_SPANS
 * (Chrome/Perfetto spans), EVAL_PROFILE_OUT (span profile, derived
 * from the span path when unset), EVAL_MANIFEST (default
 * <bench>.manifest.json; set empty to disable).  The manifest's
 * outputs list every one of them, and all survive fatal()/uncaught-
 * exception exits.  When spans are traced the footer gains a compact
 * span_self_ms map benchtrack uses for regression blame.
 *
 * After each per-chip fan-out a bench credits the chips it ran with
 * BenchReporter::addChips; the reporter divides the total by the wall
 * clock into a throughput_chips_per_s footer metric, which benchtrack
 * gates as higher-is-better.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/eval.hh"
#include "exec/thread_pool.hh"
#include "obs/telemetry.hh"
#include "stats/stats.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

/**
 * Uniform bench footer: collects key metrics during the run and, on
 * destruction, prints exactly one line
 *   BENCH_JSON {"bench": "<name>", "wall_clock_s": W, "metrics": {...}}
 * so trajectory tooling can scrape every bench the same way.  Also
 * starts the run telemetry described in the file header.
 */
class BenchReporter
{
  public:
    explicit BenchReporter(std::string name)
        : name_(std::move(name)),
          start_(std::chrono::steady_clock::now()),
          telemetry_(telemetryFromEnv(name_ + ".manifest.json"))
    {
        // Benches opt in to the parallel execution layer: EVAL_THREADS
        // when set, hardware concurrency otherwise (the library
        // default stays serial).  The footer reports this count, the
        // one the manifest records, even if the bench resizes the
        // pool later.
        setGlobalThreads(0);
        threads_ = globalThreads();
        startTelemetry(name_, telemetry_, threads_);
    }

    BenchReporter(const BenchReporter &) = delete;
    BenchReporter &operator=(const BenchReporter &) = delete;

    void
    metric(const std::string &key, double value)
    {
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.9g", value);
        metrics_.emplace_back(key, buf);
    }

    void
    metric(const std::string &key, const std::string &value)
    {
        metrics_.emplace_back(key, "\"" + value + "\"");
    }

    /** Credit @p n finished chips to the footer throughput.  Call
     *  serially, after the fan-out that ran them. */
    void addChips(std::uint64_t n) { chips_ += n; }

    ~BenchReporter()
    {
        const double wallS =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();

        // Per-chip throughput, so a wall-clock gate cannot hide
        // per-chip regressions when chip counts change (benchtrack
        // gates this higher-is-better).
        if (chips_ > 0 && wallS > 0.0) {
            metric("throughput_chips_per_s",
                   static_cast<double>(chips_) / wallS);
        }

        std::string json = "{\"bench\": \"" + name_ +
                           "\", \"wall_clock_s\": ";
        char buf[40];
        std::snprintf(buf, sizeof(buf), "%.3f", wallS);
        json += buf;
        json += ", \"threads\": " + std::to_string(threads_);
        json += ", \"peak_rss_kb\": " + std::to_string(peakRssKb());
        if (!telemetry_.spans.empty())
            json += ", \"trace_spans\": \"" + telemetry_.spans + "\"";

        // Compact per-span self-time map (top spans by self time, in
        // ms) when tracing ran: benchtrack ingests it and names the
        // culprit spans when the wall-clock gate trips.
        if (SpanTracer::global().enabled()) {
            const auto spans = SpanTracer::global().selfTimeByName();
            std::string spanJson;
            std::size_t emitted = 0;
            for (const auto &[span, selfNs] : spans) {
                if (emitted == 8)
                    break;
                std::snprintf(buf, sizeof(buf), "%.3f",
                              static_cast<double>(selfNs) / 1e6);
                spanJson += (emitted ? ", \"" : "\"") + span +
                            "\": " + buf;
                ++emitted;
            }
            if (!spanJson.empty())
                json += ", \"span_self_ms\": {" + spanJson + "}";
        }

        json += ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics_.size(); ++i) {
            json += (i ? ", \"" : "\"") + metrics_[i].first +
                    "\": " + metrics_[i].second;
        }
        json += "}}\n";
        std::fputs(("BENCH_JSON " + json).c_str(), stdout);

        // The file gets the bare object so it is valid JSONL.
        const std::string jsonPath = envString("EVAL_BENCH_JSON", "");
        if (!jsonPath.empty()) {
            if (std::FILE *f = std::fopen(jsonPath.c_str(), "a")) {
                std::fputs(json.c_str(), f);
                std::fclose(f);
            } else {
                warn("cannot append bench footer to '", jsonPath, "'");
            }
            RunManifest::global().setOutput("bench_json", jsonPath);
        }

        finishTelemetry(name_, wallS);
    }

  private:
    std::string name_;
    std::chrono::steady_clock::time_point start_;
    TelemetryOutputs telemetry_;
    std::size_t threads_ = 1;
    std::vector<std::pair<std::string, std::string>> metrics_;
    std::uint64_t chips_ = 0;
};

/** Chip count: EVAL_CHIPS if set, otherwise the bench's default. */
inline int
benchChips(int dflt)
{
    int chips = static_cast<int>(envInt("EVAL_CHIPS", dflt));
    if (envBool("EVAL_FAST", false))
        chips = std::min(chips, 6);
    return std::max(chips, 1);
}

/** Build the experiment configuration for a bench (and stamp its
 *  seed + fingerprint into the run manifest). */
inline ExperimentConfig
benchConfig(int defaultChips)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = benchChips(defaultChips);
    RunManifest::global().setSeed(cfg.seed);
    RunManifest::global().setConfig(cfg.fingerprint());
    return cfg;
}

/** Aggregated metric set over (chip, app) samples. */
struct SweepCell
{
    RunningStats freqRel;
    RunningStats perfRel;
    RunningStats powerW;
    std::map<RetuneOutcome, std::uint64_t> outcomes;
    std::uint64_t invocations = 0;
};

/** Results of a full environment sweep. */
struct SweepResult
{
    /** [environment][scheme] */
    std::map<std::string, SweepCell> cells;
    SweepCell baseline;
    SweepCell novar;

    static std::string
    key(EnvironmentKind env, AdaptScheme scheme)
    {
        return std::string(environmentName(env)) + "/" +
               adaptSchemeName(scheme);
    }
};

/** The six managed environment groups of Figures 10-12. */
inline std::vector<EnvironmentKind>
figureEnvironments()
{
    return {EnvironmentKind::TS,          EnvironmentKind::TS_ASV,
            EnvironmentKind::TS_ASV_ABB,  EnvironmentKind::TS_ASV_Q,
            EnvironmentKind::TS_ASV_Q_FU, EnvironmentKind::ALL};
}

inline std::vector<AdaptScheme>
allSchemes()
{
    return {AdaptScheme::Static, AdaptScheme::FuzzyDyn,
            AdaptScheme::ExhDyn};
}

/**
 * Run the Figure 10-12 sweep: runChipSweep on every chip.  Each
 * application runs on one core of each chip (core rotates so all four
 * quadrants are exercised).
 *
 * Chips fan out across the global thread pool (one task per chip —
 * each task drives its own per-chip core models; the shared context
 * caches are internally synchronized).  The per-chip samples are then
 * folded into the RunningStats serially in chip order, so the sweep
 * result is bit-identical for every thread count.
 */
inline SweepResult
runEnvironmentSweep(ExperimentContext &ctx,
                    const std::vector<EnvironmentKind> &envs,
                    const std::vector<AdaptScheme> &schemes,
                    bool progress = true)
{
    SweepResult result;
    const auto apps = ctx.selectedApps();
    const int chips = ctx.config().chips;
    const std::size_t numManaged = envs.size() * schemes.size();

    // Prewarm the shared caches so parallel chip tasks do not wait on
    // them: the characterization probes fan out on the pool, then the
    // NoVar reference runs serially (it owns the one ideal model).
    ctx.characterizations().warm(apps);
    for (const AppProfile *app : apps)
        ctx.novarPerf(*app);

    const auto perChip = globalPool().parallelMap(
        static_cast<std::size_t>(chips), [&](std::size_t chip) {
            ChipSweepRuns runs =
                runChipSweep(ctx, chip, apps, envs, schemes);
            if (progress && !isQuiet()) {
                std::fprintf(stderr, "[bench] chip %zu/%d done\n",
                             chip + 1, chips);
            }
            return runs;
        });

    // Serial accumulation in chip order: RunningStats additions follow
    // exactly the order the serial sweep would use.
    for (int chip = 0; chip < chips; ++chip) {
        const ChipSweepRuns &runs = perChip[chip];
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const AppRunResult &base = runs.base[a];
            result.baseline.freqRel.add(base.freqRel);
            result.baseline.perfRel.add(base.perfRel);
            result.baseline.powerW.add(base.powerW);

            const AppRunResult &nv = runs.novar[a];
            result.novar.freqRel.add(nv.freqRel);
            result.novar.perfRel.add(nv.perfRel);
            result.novar.powerW.add(nv.powerW);

            std::size_t m = a * numManaged;
            for (EnvironmentKind env : envs) {
                for (AdaptScheme scheme : schemes) {
                    const AppRunResult &r = runs.managed[m++];
                    SweepCell &cell =
                        result.cells[SweepResult::key(env, scheme)];
                    cell.freqRel.add(r.freqRel);
                    cell.perfRel.add(r.perfRel);
                    cell.powerW.add(r.powerW);
                    for (RetuneOutcome o : r.outcomes) {
                        ++cell.outcomes[o];
                        ++cell.invocations;
                    }
                }
            }
        }
    }
    return result;
}

/** Print one Figure 10/11/12-style table for the chosen metric. */
inline void
printEnvironmentFigure(const SweepResult &sweep, const std::string &title,
                       const std::string &metricName,
                       RunningStats SweepCell::*metric, int precision = 3)
{
    TablePrinter table(title);
    table.header({"environment", "Static", "Fuzzy-Dyn", "Exh-Dyn"});
    for (EnvironmentKind env : figureEnvironments()) {
        std::vector<std::string> row{environmentName(env)};
        for (AdaptScheme scheme : allSchemes()) {
            const auto it =
                sweep.cells.find(SweepResult::key(env, scheme));
            row.push_back(it == sweep.cells.end()
                              ? "-"
                              : formatDouble((it->second.*metric).mean(),
                                             precision));
        }
        table.row(row);
    }
    table.row({"Baseline (ref)",
               formatDouble((sweep.baseline.*metric).mean(), precision),
               "", ""});
    table.row({"NoVar (ref)",
               formatDouble((sweep.novar.*metric).mean(), precision), "",
               ""});
    table.print();
    std::printf("samples per cell: %zu (%s)\n\n",
                sweep.baseline.freqRel.count(), metricName.c_str());
}

} // namespace eval

