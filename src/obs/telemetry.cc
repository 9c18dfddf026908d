#include "obs/telemetry.hh"

#include <cstdlib>
#include <utility>

#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/exit_flush.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/config.hh"
#include "util/logging.hh"

namespace eval {

namespace {

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
          std::pair{"span_profile", out.profile}}) {
        if (!path.empty())
            manifest.setOutput(key, path);
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
    ExitFlush::global().runNow();
}

} // namespace eval
