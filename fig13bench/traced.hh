/**
 * @file
 * The traced campaign driver.  It makes the same public calls, in the
 * same order, as runMonolithic/runCampaignChip and runShardWorker,
 * but wraps each call into a layer in a ScopedSpan (so the profile
 * and Chrome trace show the layer) and records the call's duration in
 * a LayerLedger (so the benchmark can report exact per-call
 * percentiles, which the span ring cannot keep for a whole run).
 *
 * The traced campaign must reproduce the untraced campaign's digest
 * bit for bit; the benchmark checks that on every traced run.
 */

#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "shard/campaign.hh"
#include "shard/plan.hh"
#include "trace/span_tracer.hh"
#include "valid/json_value.hh"

namespace fig13bench {

/** Layer span names.  Their inclusive times are disjoint: together
 *  they are the run's attributed time (trace.coverage_share). */
inline constexpr const char *kLayerSpans[] = {
    "experiment.setup",      "variation.manufacture",
    "timing.model_build",    "arch.characterize",
    "arch.characterize_wait", "fuzzy.train",
    "controller.adapt",      "shard.fold",
    "shard.merge",           "valid.checkpoint",
};

/** Container span around one chip task (holds the layer spans). */
inline constexpr const char *kChipTaskSpan = "exec.chip_task";

/** Thread-safe per-layer duration samples and event counters. */
class LayerLedger
{
  public:
    void sample(const char *layer, std::uint64_t ns);
    void count(const char *name, std::uint64_t n);


    std::vector<std::uint64_t> samples(const std::string &layer) const;
    std::uint64_t totalNs(const std::string &layer) const;
    std::uint64_t counter(const std::string &name) const;

    eval::JsonValue toJson() const;
    /** Fold in a toJson() document (a shard worker's ledger). */
    void mergeJson(const eval::JsonValue &json);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<std::uint64_t>> samples_;
    std::map<std::string, std::uint64_t> counters_;
};

/** A layer span that also records its duration in a ledger. */
class LayerScope
{
  public:
    LayerScope(LayerLedger &ledger, const char *layer);
    ~LayerScope();

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    eval::ScopedSpan span_;
    LayerLedger &ledger_;
    const char *layer_;
    std::uint64_t startNs_;
};

/** runMonolithic with layer spans. */
eval::CampaignAccumulator
tracedMonolithic(const eval::CampaignConfig &campaign, LayerLedger &ledger);

/**
 * One shard of the campaign with layer spans, written as the same
 * completed shard result runShardWorker writes, so the supervisor
 * merges it unchanged.  Returns a kShardExit* code.
 */
int tracedShardWorker(const eval::CampaignConfig &campaign,
                      const eval::ShardSpec &spec,
                      const std::string &outDir, LayerLedger &ledger);

} // namespace fig13bench
