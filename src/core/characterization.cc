#include "core/characterization.hh"

#include <iterator>

#include "arch/core.hh"
#include "exec/thread_pool.hh"
#include "trace/span_tracer.hh"
#include "util/logging.hh"

namespace eval {

namespace {

/** Queue capacity of each probe configuration: full, then 3/4. */
constexpr double kQueueFracs[] = {1.0, 0.75};
constexpr std::size_t kNumQueueConfigs = std::size(kQueueFracs);

/** Phases SyntheticTrace builds for @p profile: its script, or one
 *  default phase when it has none. */
std::size_t
numPhases(const AppProfile &profile)
{
    return profile.phases.empty() ? 1 : profile.phases.size();
}

/** Probes of one app: (phase, queue configuration) pairs, probe
 *  i = phase * kNumQueueConfigs + queue. */
std::size_t
numProbes(const AppProfile &profile)
{
    return numPhases(profile) * kNumQueueConfigs;
}

} // namespace

double
AppCharacterization::totalWeight() const
{
    double w = 0.0;
    for (const auto &p : phases)
        w += p.weight;
    return w;
}

CharacterizationCache::CharacterizationCache(const RecoveryModel &recovery,
                                             double refFreqHz,
                                             std::uint64_t seed,
                                             std::uint64_t simInsts)
    : recovery_(recovery), refFreqHz_(refFreqHz), seed_(seed),
      simInsts_(simInsts)
{
    EVAL_ASSERT(simInsts > 1000, "characterization needs a real sample");
}

CharacterizationCache::Entry &
CharacterizationCache::entry(const AppProfile &profile, bool *created)
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Entry> &slot = cache_[profile.name];
    *created = !slot;
    if (!slot)
        slot = std::make_unique<Entry>();
    return *slot;
}

void
CharacterizationCache::warm(const std::vector<const AppProfile *> &apps)
{
    // Apps nobody has asked for yet, once each, in first-seen order.
    std::vector<std::pair<const AppProfile *, Entry *>> cold;
    for (const AppProfile *app : apps) {
        bool created = false;
        Entry &e = entry(*app, &created);
        if (created)
            cold.emplace_back(app, &e);
    }
    if (cold.empty())
        return;

    // Every probe of every cold app is one task; each app's probes
    // sit contiguously, in app order.
    std::vector<std::pair<const AppProfile *, std::size_t>> probes;
    for (const auto &slot : cold)
        for (std::size_t i = 0; i < numProbes(*slot.first); ++i)
            probes.emplace_back(slot.first, i);
    ScopedSpan span("characterize.warm");
    span.arg("apps", cold.size());
    span.arg("probes", probes.size());
    const std::vector<CoreStats> stats = globalPool().parallelMap(
        probes, [this](const std::pair<const AppProfile *, std::size_t> &p) {
            return runProbe(*p.first, p.second);
        });

    const CoreStats *next = stats.data();
    for (const auto &slot : cold) {
        const AppProfile &app = *slot.first;
        Entry &e = *slot.second;
        // A get() that raced ahead of this warm installed the same
        // record already; call_once then keeps that one.
        std::call_once(e.once, [&] { e.chr = assemble(app, next); });
        next += numProbes(app);
    }
}

const AppCharacterization &
CharacterizationCache::get(const AppProfile &profile)
{
    bool created = false;
    Entry &e = entry(profile, &created);
    // Fallback for an app no warm() covered: characterize it here,
    // serially and outside the map lock, so distinct apps proceed in
    // parallel; call_once makes concurrent requests for the *same*
    // app wait for one characterization instead of duplicating it.
    std::call_once(e.once, [this, &e, &profile] {
        ScopedSpan span("characterize.app");
        span.arg("app", profile.name);
        std::vector<CoreStats> stats;
        for (std::size_t i = 0; i < numProbes(profile); ++i)
            stats.push_back(runProbe(profile, i));
        e.chr = assemble(profile, stats.data());
    });
    return e.chr;
}

CoreStats
CharacterizationCache::runProbe(const AppProfile &profile,
                                std::size_t probe) const
{
    const std::size_t phase = probe / kNumQueueConfigs;
    CoreConfig cfg;
    cfg.queueCapacityFraction = kQueueFracs[probe % kNumQueueConfigs];

    SyntheticTrace trace(profile, seed_ ^ (phase * 7919));
    trace.pinPhase(phase);
    Core core(cfg, seed_ ^ 0xC0DE ^ phase);
    const auto run = [&] {
        ScopedSpan runSpan("arch.core_run");
        return core.run(trace, simInsts_);
    };
    // Warm caches and predictors, then measure.
    run();
    return run();
}

AppCharacterization
CharacterizationCache::assemble(const AppProfile &profile,
                                const CoreStats *stats) const
{
    AppCharacterization app;
    app.name = profile.name;
    app.isFp = profile.isFp;
    for (std::size_t p = 0; p < numPhases(profile); ++p) {
        const CoreStats &full = stats[p * kNumQueueConfigs];
        const CoreStats &small = stats[p * kNumQueueConfigs + 1];
        PhaseData data;
        data.weight = profile.phases.empty() ? PhaseSpec{}.weight
                                             : profile.phases[p].weight;
        data.chr.isFp = profile.isFp;
        data.chr.perfFull = PerfInputs::fromStats(
            full, refFreqHz_, recovery_.penaltyCycles);
        data.chr.perfSmall = PerfInputs::fromStats(
            small, refFreqHz_, recovery_.penaltyCycles);
        // Activity comes from the full-queue configuration.
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            data.chr.act.alpha[i] = full.alpha(id);
            data.chr.act.rho[i] = full.rho(id);
        }
        app.phases.push_back(data);
    }
    return app;
}

} // namespace eval
