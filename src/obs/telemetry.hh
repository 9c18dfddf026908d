/**
 * @file
 * One telemetry setup for every front end (benches via BenchReporter,
 * eval_cli): which run artifacts exist, how each is switched on, how
 * it is flushed on exit, and how it is recorded in the run manifest
 * (DESIGN.md Sec 5).
 *
 *   artifact    env var             eval_cli flag      manifest key
 *   stats       EVAL_STATS_OUT      --stats-out        stats
 *   decisions   EVAL_TRACE_OUT      --trace-out        decision_trace
 *   spans       EVAL_TRACE_SPANS    --trace-spans      trace_spans
 *   profile     EVAL_PROFILE_OUT    --profile-out      span_profile
 *   manifest    EVAL_MANIFEST       --manifest         (the manifest)
 *
 * An empty path switches the artifact off.  The span profile rides
 * alongside the span trace (x.json -> x.profile.json) when no profile
 * path is given.
 *
 * Protocol: build the outputs (telemetryFromEnv, then any flags), call
 * startTelemetry once before the run, and finishTelemetry once after
 * it.  startTelemetry registers the writers with ExitFlush, so every
 * artifact also survives a fatal()/uncaught-exception exit.
 */

#pragma once

#include <cstddef>
#include <string>

namespace eval {

/** Where each run artifact goes; empty = not written. */
struct TelemetryOutputs
{
    std::string stats;     ///< StatRegistry JSON dump
    std::string decisions; ///< DecisionTrace JSONL
    std::string spans;     ///< SpanTracer Chrome trace_event JSON
    std::string profile;   ///< SpanTracer profile.json
    std::string manifest;  ///< RunManifest JSON
};

/** The outputs the EVAL_* telemetry variables name; the manifest
 *  defaults to @p defaultManifest (EVAL_MANIFEST= disables it). */
TelemetryOutputs telemetryFromEnv(const std::string &defaultManifest);

/** Point the span trace at @p spans.  A profile path that was empty or
 *  derived from the old span path follows it (x.json ->
 *  x.profile.json); an explicitly named profile stays. */
void setSpansOutput(TelemetryOutputs &out, const std::string &spans);

/**
 * Switch on what @p out asks for: enable DecisionTrace / SpanTracer,
 * stamp @p tool, @p threads and every non-empty output path into the
 * RunManifest, and register one ExitFlush closure that writes the
 * stats, decisions, spans, profile and manifest files.  Call once per
 * process, before the run.
 */
void startTelemetry(const std::string &tool, const TelemetryOutputs &out,
                    std::size_t threads);

/** Normal-exit flush: record @p stage with @p wallS in the manifest,
 *  then run every pending ExitFlush closure, so the atexit hook finds
 *  nothing left. */
void finishTelemetry(const std::string &stage, double wallS);

} // namespace eval
