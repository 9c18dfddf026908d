/**
 * @file
 * Shard supervisor: plans the population split, drives the workers
 * (in-process for tests/benches, fork/exec for real runs), and merges
 * the per-shard results into the monolithic-equivalent outputs.
 *
 * Merging walks shards in index order; CampaignAccumulator::merge
 * refuses any other order, so the merged snapshot, stats JSON, and
 * digest are byte-identical to a monolithic run over the same chip
 * range — at any shard count, resumed or not.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shard/campaign.hh"

namespace eval {

/** One supervised campaign run. */
struct ShardSupervisorOptions
{
    CampaignConfig campaign;
    std::uint32_t shards = 1;
    std::string outDir;
    std::uint64_t checkpointEvery = 16;
    bool resume = false;
    /**
     * Fork/exec worker protocol: argv prefix for one worker (the
     * executable plus every campaign/out-dir/resume flag); the
     * supervisor appends "--shard=i/N" per shard and runs all
     * workers concurrently.  Empty = run workers in-process,
     * sequentially, each with a fresh ExperimentContext.
     */
    std::vector<std::string> workerArgv;
    /**
     * Fleet telemetry: when true, every worker writes a Chrome trace
     * + span profile under <outDir>/trace (forked workers get
     * --trace-spans/--profile-out flags appended; in-process mode
     * drives the global SpanTracer around each shard, clearing it
     * between shards), and after the campaign merge the supervisor
     * folds them into one Perfetto timeline (pid = shard index) and
     * one fleet profile.json — see shard/trace_merge.hh.
     */
    bool traceSpans = false;
    /** Merged timeline destination; "" = <outDir>/trace/trace.json. */
    std::string mergedTraceOut;
    /** Fleet profile destination; "" = <outDir>/trace/profile.json. */
    std::string fleetProfileOut;
};

/** Merged outputs inside the run directory. */
std::string mergedSnapshotPath(const std::string &outDir);
std::string mergedStatsPath(const std::string &outDir);

/**
 * Merge the completed shard results in shard order.  Throws
 * SnapshotError when any shard result is missing, corrupt, or from a
 * different campaign.
 */
CampaignAccumulator mergeShardResults(const CampaignConfig &campaign,
                                      std::uint32_t shards,
                                      const std::string &outDir);

/** Write merged.snap (binary snapshot) + merged.stats.json (atomic
 *  renames). */
bool writeMergedOutputs(const CampaignAccumulator &merged,
                        const std::string &outDir);

/**
 * Run every shard (skipping ones with usable results when resuming),
 * merge, and write the merged outputs.  Returns a process exit code:
 * 0 on success, the failing worker's code (in-process) or 1 (forked)
 * otherwise.
 */
int runShardSupervisor(const ShardSupervisorOptions &opts);

/**
 * The reference semantics: one context, every chip in id order, no
 * sharding machinery.  The differential suite compares everything
 * the supervisor produces against this.
 */
CampaignAccumulator runMonolithic(const CampaignConfig &campaign);

} // namespace eval
