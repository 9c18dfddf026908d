/**
 * @file
 * Workload characterization: runs the cycle-level core model once per
 * (application, phase, queue configuration) and distills the results
 * into the PhaseCharacterization records the controller consumes —
 * exactly the 20us profiling step of the Figure 6 timeline, done once
 * and cached because it depends only on the application (not on the
 * chip's variation).
 *
 * Each (app, phase, queue) probe is an independent warm-up plus
 * measured Core::run pair with its own trace and core seeds.  warm()
 * is the fan-out: it runs every probe of a set of apps as one pool
 * task each, before a chip fan-out asks for them.  get()'s call_once
 * is only the fallback for an app nobody warmed; it runs the same
 * probes serially.  Both paths assemble the same bytes.
 */

#pragma once

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "arch/core.hh"
#include "core/eval_params.hh"
#include "core/optimizer.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace eval {

/** One behaviour phase of an application, with its run-time share. */
struct PhaseData
{
    double weight = 1.0;
    PhaseCharacterization chr;
};

/** All phases of one application. */
struct AppCharacterization
{
    std::string name;
    bool isFp = false;
    std::vector<PhaseData> phases;

    double totalWeight() const;
};

/** Cached characterization runner. */
class CharacterizationCache
{
  public:
    /**
     * @param recovery recovery-cost model (for Eq 5's rp)
     * @param refFreqHz frequency the simulator's latencies assume
     * @param seed      trace-generation seed
     * @param simInsts  instructions simulated per measurement
     */
    CharacterizationCache(const RecoveryModel &recovery, double refFreqHz,
                          std::uint64_t seed, std::uint64_t simInsts);

    /**
     * Characterize every app of @p apps that is not cached yet: one
     * globalPool() task per (app, phase, queue) probe, then each
     * app's record is assembled serially and installed.  Duplicates
     * and already-cached apps cost nothing.  Call it before the chip
     * fan-out that will get() these apps; inside a pool task the
     * probes run inline, serially.
     */
    void warm(const std::vector<const AppProfile *> &apps);

    /**
     * The cached application, characterized on the spot (serially)
     * if no warm() covered it.  Safe to call from parallel per-chip
     * tasks: each application is characterized exactly once (other
     * callers block on it), and the returned reference stays valid
     * for the cache's lifetime.
     */
    const AppCharacterization &get(const AppProfile &profile);

  private:
    /** Cache slot: call_once installs the record exactly once, from
     *  warm() or from get()'s fallback. */
    struct Entry
    {
        std::once_flag once;
        AppCharacterization chr;
    };

    /** The slot of @p profile; @p created says it is new. */
    Entry &entry(const AppProfile &profile, bool *created);

    /** Probe @p probe (phase * 2 + queue, full queue first) of
     *  @p profile: a warm-up then a measured Core::run. */
    CoreStats runProbe(const AppProfile &profile, std::size_t probe) const;

    /** The record of @p profile from its probes' stats, in probe
     *  order. */
    AppCharacterization assemble(const AppProfile &profile,
                                 const CoreStats *stats) const;

    RecoveryModel recovery_;
    double refFreqHz_;
    std::uint64_t seed_;
    std::uint64_t simInsts_;
    std::mutex mutex_;   ///< guards the map shape (not the entries)
    /// std::map, not unordered: the handful of apps makes lookup cost
    /// irrelevant, and any future iteration (e.g. dumping every
    /// characterization) must be name-ordered (det-unordered).
    std::map<std::string, std::unique_ptr<Entry>> cache_;
};

} // namespace eval

