#include "workloads.hh"

#include <stdexcept>

#include "workload/profile.hh"

namespace fig13bench {

namespace {

std::vector<std::string>
fullSuite()
{
    std::vector<std::string> names;
    for (const auto &p : eval::specSuite())
        names.push_back(p.name);
    return names;
}

const std::vector<Workload> &
workloads()
{
    // Campaigns take a few seconds each, so a run covers several of
    // them and reports a median.
    static const std::vector<Workload> all = {
        // Training-bound: a few apps, so characterization is small
        // and shared, and per-chip FC training dominates.  One thread,
        // so thread scheduling stays out of the figure.
        {"fig13_fuzzy", eval::AdaptScheme::FuzzyDyn,
         {"gzip", "swim", "applu"}, 4, 60000, 1, 0, 8},
        // Simulator-bound: every app is characterized cold and the
        // exhaustive optimizer adapts at run time, so no FC training
        // runs; the only workload on the thread pool.
        {"fig13_exh_suite", eval::AdaptScheme::ExhDyn, fullSuite(), 8,
         60000, 4, 0, 5},
        // Fleet-bound: forked workers each start cold, so shard
        // plumbing and repeated characterization show.
        {"fig13_sharded", eval::AdaptScheme::FuzzyDyn,
         {"gzip", "swim", "applu"}, 8, 60000, 1, 4, 10},
    };
    return all;
}

} // namespace

const Workload &
workloadByName(const std::string &name)
{
    for (const Workload &w : workloads())
        if (w.name == name)
            return w;
    throw std::invalid_argument("unknown workload '" + name + "'");
}

std::uint64_t
campaignSeed(std::uint64_t runSeed, std::uint64_t rep)
{
    // A stride of 7 spreads consecutive run seeds across the pool.
    return 1 + (runSeed % kCampaignPool * 7 + rep) % kCampaignPool;
}

eval::CampaignConfig
campaignFor(const Workload &w, std::uint64_t seed)
{
    eval::CampaignConfig c;
    c.scheme = w.scheme;
    c.experiment.seed = seed;
    c.experiment.chips = w.chips;
    c.experiment.simInsts = w.simInsts;
    c.experiment.apps = w.apps;
    return c;
}

} // namespace fig13bench
