/**
 * @file
 * Fleet telemetry merge: folds per-shard Chrome traces and span
 * profiles into one Perfetto timeline and one fleet profile.
 *
 * Each forked worker writes its own `trace/shard-<i>.json` (Chrome
 * trace_event format, from SpanTracer::writeJson) and
 * `trace/profile-shard-<i>.json` (the profile.json schema from
 * SpanTracer::profileJson).  After the campaign merge the supervisor
 * calls mergeShardTelemetry, which:
 *
 *  - rewrites every shard's events onto pid = shard index (with
 *    process_name "shard <i>" and process_sort_index = <i> metadata,
 *    so Perfetto renders the fleet as ordered process lanes while
 *    per-thread lanes keep their thread_name labels), and
 *  - sums profile buckets by span path.  Buckets are exact u64
 *    counters, so the fold is associative and order-insensitive —
 *    the same discipline CampaignAccumulator::merge enforces for
 *    stats, checked by tests/shard/trace_merge_test — and the merge
 *    walks shards in index order anyway to keep outputs byte-stable.
 *
 * Telemetry is observational: a missing or corrupt shard trace warns
 * and skips that shard, it never fails the campaign.  The parse
 * helpers themselves throw SnapshotError (the shard layer's error
 * contract) so tools (eval_prof) get a clean failure.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "trace/span_tracer.hh"

namespace eval {

/** Telemetry file layout inside the run directory. */
std::string shardTraceDir(const std::string &outDir);
std::string shardTracePath(const std::string &outDir,
                           std::uint32_t shardIndex);
std::string shardProfilePath(const std::string &outDir,
                             std::uint32_t shardIndex);
std::string mergedTracePath(const std::string &outDir);
std::string fleetProfilePath(const std::string &outDir);

/** A span profile keyed by path (the ProfileBucket::path field is
 *  kept in sync with the key). */
using SpanProfile = std::map<std::string, ProfileBucket>;

/** Parse a profile.json document (schema_version 1).  Throws
 *  SnapshotError on malformed JSON or a wrong schema. */
SpanProfile parseProfileJson(const std::string &text);

/** Fold @p other into @p into by summing buckets path-wise.
 *  Associative and order-insensitive (u64 sums). */
void mergeProfileInto(SpanProfile &into, const SpanProfile &other);

/** Serialize with profileJsonOf, the writer behind
 *  SpanTracer::profileJson (sorted by path — a deterministic
 *  function of the profile). */
std::string profileToJson(const SpanProfile &profile);

/**
 * Merge per-shard Chrome traces into one timeline: every event of
 * shard i lands on pid i, each shard gains process_name /
 * process_sort_index metadata, thread metadata and span args pass
 * through.  Throws SnapshotError on malformed shard JSON.
 */
std::string mergeShardTraces(
    const std::vector<std::pair<std::uint32_t, std::string>> &shards);

/** What mergeShardTelemetry found and wrote. */
struct FleetTelemetry
{
    std::uint32_t tracesMerged = 0;   ///< shard traces folded in
    std::uint32_t profilesMerged = 0; ///< shard profiles folded in
    bool wroteTrace = false;
    bool wroteProfile = false;
};

/**
 * Read every shard's trace/profile under @p outDir, merge, and write
 * @p mergedTraceOut + @p fleetProfileOut (atomic renames; pass "" to
 * use the default locations under shardTraceDir).  Each file written
 * is recorded in the run manifest's outputs (trace_spans,
 * span_profile).  Missing or corrupt shard files warn and are
 * skipped; nothing here throws.
 */
FleetTelemetry mergeShardTelemetry(std::uint32_t shards,
                                   const std::string &outDir,
                                   const std::string &mergedTraceOut,
                                   const std::string &fleetProfileOut);

} // namespace eval
