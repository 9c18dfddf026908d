#include "traced.hh"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <utility>

#include "core/fuzzy_adaptation.hh"
#include "core/optimizer.hh"
#include "exec/thread_pool.hh"
#include "shard/worker.hh"
#include "valid/checkpoint.hh"
#include "workload/profile.hh"

namespace fig13bench {

using namespace eval;

namespace {

/** Heat-sink temperature of every controller invocation; the value
 *  runCampaignChip uses (a mismatch shows as a digest mismatch). */
constexpr double kThC = 65.0;

/** Chips per fan-out block: runMonolithic's block size and the shard
 *  worker's default checkpoint cadence (the supervisor keeps it). */
constexpr std::uint64_t kBlockChips = 16;

/**
 * Tells the first request for an app's characterization (which runs
 * it) from requests that block on it in CharacterizationCache's
 * call_once.  The first requester is decided before the call, so in
 * a race the two durations may swap labels; their sum is exact.
 */
class ColdApps
{
  public:
    const AppCharacterization &
    get(ExperimentContext &ctx, const AppProfile &app, LayerLedger &ledger)
    {
        State prev;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            State &s = state_[app.name];
            prev = s;
            if (s == State::Cold)
                s = State::Running;
        }
        if (prev == State::Done)
            return ctx.characterizations().get(app);
        const AppCharacterization *chr = nullptr;
        {
            LayerScope scope(ledger, prev == State::Cold
                                         ? "arch.characterize"
                                         : "arch.characterize_wait");
            chr = &ctx.characterizations().get(app);
        }
        if (prev == State::Cold) {
            // Each phase runs two queue configurations, each a warm-up
            // and a measured Core::run of simInsts instructions.
            ledger.count("arch.sim_insts",
                         4 * ctx.config().simInsts * chr->phases.size());
        }
        std::lock_guard<std::mutex> lock(mutex_);
        state_[app.name] = State::Done;
        return *chr;
    }

  private:
    enum class State { Cold, Running, Done };
    std::mutex mutex_;
    std::map<std::string, State> state_;
};

/** runCampaignChip, call for call, with a span around each layer. */
ChipCampaignResult
tracedCampaignChip(ExperimentContext &ctx, const CampaignConfig &campaign,
                   std::size_t chip, ColdApps &cold, LayerLedger &ledger)
{
    LayerScope task(ledger, kChipTaskSpan);
    {
        LayerScope scope(ledger, "variation.manufacture");
        ctx.chip(chip);
    }
    const auto apps = ctx.selectedApps();
    std::set<std::size_t> built;
    std::set<std::pair<std::size_t, int>> trained;

    ChipCampaignResult result;
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        const EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[e]);
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const AppProfile &app = *apps[a];
            const std::size_t coreIdx = (chip + a) % 4;
            if (built.insert(coreIdx).second) {
                LayerScope scope(ledger, "timing.model_build");
                ctx.coreModel(chip, coreIdx);
                ledger.count("timing.models", 1);
            }
            CoreSystemModel &core = ctx.coreModel(chip, coreIdx);
            core.setAppType(app.isFp);

            std::unique_ptr<ExhaustiveOptimizer> exh;
            std::unique_ptr<FuzzyOptimizer> fuzzy;
            SubsystemOptimizer *sub = nullptr;
            if (campaign.scheme == AdaptScheme::FuzzyDyn) {
                // ExperimentContext::coreFuzzy trains once per
                // (chip, core, ASV/ABB) and caches the result.
                const int capsKey = (caps.asv ? 1 : 0) | (caps.abb ? 2 : 0);
                if (trained.insert({coreIdx, capsKey}).second) {
                    LayerScope scope(ledger, "fuzzy.train");
                    ctx.coreFuzzy(chip, coreIdx, caps);
                    ledger.count("fuzzy.trainings", 1);
                }
                fuzzy = std::make_unique<FuzzyOptimizer>(
                    ctx.coreFuzzy(chip, coreIdx, caps));
                sub = fuzzy.get();
            } else {
                exh = std::make_unique<ExhaustiveOptimizer>(
                    caps, ctx.config().constraints);
                sub = exh.get();
            }
            DynamicController ctl(*sub, caps, ctx.config().constraints,
                                  ctx.config().recovery);

            const AppCharacterization &chr = cold.get(ctx, app, ledger);
            for (std::size_t p = 0; p < chr.phases.size(); ++p) {
                PhaseAdaptation ad;
                {
                    LayerScope scope(ledger, "controller.adapt");
                    ad = ctl.adaptPhase(core, p, chr.phases[p].chr, kThC);
                }
                if (!ad.reusedSaved)
                    ++result.outcomes[e][static_cast<std::size_t>(
                        ad.outcome)];
            }
        }
    }
    return result;
}

/** Run chips [begin, end) in blocks, folding each block into its own
 *  accumulator and merging it onto @p acc in chip order. */
template <typename BlockDone>
void
runBlocks(ExperimentContext &ctx, const CampaignConfig &campaign,
          std::uint64_t begin, std::uint64_t end, std::uint64_t blockChips,
          CampaignAccumulator &acc, LayerLedger &ledger,
          BlockDone &&blockDone)
{
    ColdApps cold;
    std::uint64_t cursor = begin;
    while (cursor < end) {
        const std::uint64_t blockEnd = std::min(cursor + blockChips, end);
        const auto blockSize = static_cast<std::size_t>(blockEnd - cursor);
        const auto results =
            globalPool().parallelMap(blockSize, [&](std::size_t i) {
                return tracedCampaignChip(
                    ctx, campaign, static_cast<std::size_t>(cursor) + i,
                    cold, ledger);
            });
        CampaignAccumulator block(cursor);
        {
            LayerScope scope(ledger, "shard.fold");
            for (std::size_t i = 0; i < blockSize; ++i)
                block.addChip(cursor + i, results[i]);
            for (std::uint64_t id = cursor; id < blockEnd; ++id)
                ctx.evictChip(static_cast<std::size_t>(id));
        }
        {
            LayerScope scope(ledger, "shard.merge");
            acc.merge(block);
        }
        cursor = blockEnd;
        blockDone(cursor);
    }
}

} // namespace

void
LayerLedger::sample(const char *layer, std::uint64_t ns)
{
    std::lock_guard<std::mutex> lock(mutex_);
    samples_[layer].push_back(ns);
}

void
LayerLedger::count(const char *name, std::uint64_t n)
{
    std::lock_guard<std::mutex> lock(mutex_);
    counters_[name] += n;
}

std::vector<std::uint64_t>
LayerLedger::samples(const std::string &layer) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = samples_.find(layer);
    return it == samples_.end() ? std::vector<std::uint64_t>{} : it->second;
}

std::uint64_t
LayerLedger::totalNs(const std::string &layer) const
{
    std::uint64_t total = 0;
    for (std::uint64_t ns : samples(layer))
        total += ns;
    return total;
}

std::uint64_t
LayerLedger::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
}

JsonValue
LayerLedger::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    JsonValue samples = JsonValue::object();
    for (const auto &[name, v] : samples_) {
        JsonValue arr = JsonValue::array();
        for (std::uint64_t ns : v)
            arr.push(JsonValue(ns));
        samples.set(name, std::move(arr));
    }
    JsonValue counters = JsonValue::object();
    for (const auto &[name, n] : counters_)
        counters.set(name, JsonValue(n));
    JsonValue out = JsonValue::object();
    out.set("samples", std::move(samples));
    out.set("counters", std::move(counters));
    return out;
}

void
LayerLedger::mergeJson(const JsonValue &json)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &[name, arr] : json.at("samples").asObject()) {
        auto &v = samples_[name];
        for (const JsonValue &ns : arr.asArray())
            v.push_back(ns.asUint());
    }
    for (const auto &[name, n] : json.at("counters").asObject())
        counters_[name] += n.asUint();
}

LayerScope::LayerScope(LayerLedger &ledger, const char *layer)
    : span_(layer), ledger_(ledger), layer_(layer), startNs_(traceNowNs())
{
}

LayerScope::~LayerScope()
{
    ledger_.sample(layer_, traceNowNs() - startNs_);
}

CampaignAccumulator
tracedMonolithic(const CampaignConfig &campaign, LayerLedger &ledger)
{
    std::unique_ptr<ExperimentContext> ctx;
    {
        LayerScope scope(ledger, "experiment.setup");
        ctx = std::make_unique<ExperimentContext>(campaign.experiment);
    }
    CampaignAccumulator acc(0);
    runBlocks(*ctx, campaign, 0,
              static_cast<std::uint64_t>(campaign.experiment.chips),
              kBlockChips, acc, ledger, [](std::uint64_t) {});
    return acc;
}

int
tracedShardWorker(const CampaignConfig &campaign, const ShardSpec &spec,
                  const std::string &outDir, LayerLedger &ledger)
{
    const ShardRange range = shardRangeFor(
        static_cast<std::uint64_t>(campaign.experiment.chips), spec);
    const std::string fp = campaign.fingerprint();
    std::error_code ec;
    std::filesystem::create_directories(outDir, ec);
    const std::string ckptPath = shardCheckpointPath(outDir, spec.index);

    std::unique_ptr<ExperimentContext> ctx;
    {
        LayerScope scope(ledger, "experiment.setup");
        ctx = std::make_unique<ExperimentContext>(campaign.experiment);
    }
    CampaignAccumulator acc(range.begin);
    bool written = true;
    runBlocks(*ctx, campaign, range.begin, range.end, kBlockChips, acc,
              ledger, [&](std::uint64_t cursor) {
                  LayerScope scope(ledger, "valid.checkpoint");
                  const ShardCheckpoint cp{fp,          spec.index,
                                           spec.count,  range.begin,
                                           range.end,   cursor,
                                           acc.toPayload()};
                  written = writeCheckpointFile(ckptPath, cp, true) &&
                            written;
              });
    LayerScope scope(ledger, "valid.checkpoint");
    const ShardCheckpoint done{fp,          spec.index, spec.count,
                               range.begin, range.end,  range.end,
                               acc.toPayload()};
    if (!written ||
        !writeCheckpointFile(shardResultPath(outDir, spec.index), done,
                             true))
        return kShardExitConfig;
    std::remove(ckptPath.c_str());
    return kShardExitOk;
}

} // namespace fig13bench
