#include "obs/telemetry.hh"

#include <cstdlib>
#include <utility>

#include "obs/metrics_sampler.hh"
#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/exit_flush.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/config.hh"
#include "util/logging.hh"

namespace eval {

namespace {

constexpr std::int64_t kDefaultStatusIntervalMs = 500;

/** The profile that rides alongside a span trace: x.json ->
 *  x.profile.json, any other name gains ".profile.json". */
std::string
profilePathFor(const std::string &spans)
{
    const std::string suffix = ".json";
    if (spans.size() > suffix.size() &&
        spans.compare(spans.size() - suffix.size(), suffix.size(),
                      suffix) == 0)
        return spans.substr(0, spans.size() - suffix.size()) +
               ".profile.json";
    return spans + ".profile.json";
}

/** A status interval <= 0 means the default. */
std::int64_t
statusInterval(std::int64_t ms)
{
    return ms > 0 ? ms : kDefaultStatusIntervalMs;
}

} // namespace

TelemetryOutputs
telemetryFromEnv(const std::string &defaultManifest)
{
    TelemetryOutputs out;
    out.stats = envString("EVAL_STATS_OUT", "");
    out.decisions = envString("EVAL_TRACE_OUT", "");
    out.profile = envString("EVAL_PROFILE_OUT", "");
    setSpansOutput(out, envString("EVAL_TRACE_SPANS", ""));
    // A set-but-empty EVAL_MANIFEST disables the manifest, so this one
    // cannot use envString (which treats empty as unset).
    const char *manifest = std::getenv("EVAL_MANIFEST");
    out.manifest = manifest ? manifest : defaultManifest;
    out.status = envString("EVAL_STATUS_OUT", "");
    out.statusIntervalMs = statusInterval(
        envInt("EVAL_STATUS_INTERVAL_MS", kDefaultStatusIntervalMs));
    return out;
}

void
setSpansOutput(TelemetryOutputs &out, const std::string &spans)
{
    const bool derived = out.profile.empty() ||
                         (!out.spans.empty() &&
                          out.profile == profilePathFor(out.spans));
    out.spans = spans;
    if (derived)
        out.profile = spans.empty() ? "" : profilePathFor(spans);
}

void
startTelemetry(const std::string &tool, const TelemetryOutputs &out,
               std::size_t threads)
{
    if (!out.decisions.empty())
        DecisionTrace::global().setEnabled(true);
    if (!out.spans.empty() || !out.profile.empty())
        SpanTracer::global().setEnabled(true);

    RunManifest &manifest = RunManifest::global();
    manifest.setTool(tool);
    manifest.setThreads(threads);
    for (const auto &[key, path] :
         {std::pair{"stats", out.stats},
          std::pair{"decision_trace", out.decisions},
          std::pair{"trace_spans", out.spans},
          std::pair{"span_profile", out.profile},
          std::pair{"status", out.status}}) {
        if (!path.empty())
            manifest.setOutput(key, path);
    }

    // Live status: the sampler registers its own ExitFlush closure, so
    // the final snapshot survives crashes too (DESIGN.md Sec 5f).
    if (!out.status.empty()) {
        SamplerConfig sampler;
        sampler.tool = tool;
        sampler.statusPath = out.status;
        sampler.intervalMs = static_cast<std::uint64_t>(
            statusInterval(out.statusIntervalMs));
        MetricsSampler::global().configure(sampler);
        MetricsSampler::global().start();
    }

    // Registered up front so a run that dies mid-way (fatal(),
    // uncaught exception) still leaves its files; finishTelemetry
    // runs the same closure on the normal path.
    ExitFlush::global().add(tool + ".telemetry", [out] {
        if (!out.stats.empty())
            StatRegistry::global().writeJson(out.stats);
        if (!out.decisions.empty())
            DecisionTrace::global().writeJsonl(out.decisions);
        if (!out.spans.empty() && !SpanTracer::global().writeJson(out.spans))
            warn("failed to write span trace to ", out.spans);
        if (!out.profile.empty() &&
            !SpanTracer::global().writeProfileJson(out.profile))
            warn("failed to write span profile to ", out.profile);
        if (!out.manifest.empty() &&
            !RunManifest::global().write(out.manifest))
            warn("failed to write manifest to ", out.manifest);
    });
}

void
finishTelemetry(const std::string &stage, double wallS)
{
    RunManifest::global().addStage(stage, wallS);
    // stop() joins the sampler thread, publishes the final
    // (100%-progress) snapshot and unregisters the sampler's ExitFlush
    // closure before the blanket flush below.
    MetricsSampler::global().stop();
    ExitFlush::global().runNow();
}

} // namespace eval
