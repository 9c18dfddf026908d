/**
 * @file
 * The Fig 13 campaign benchmark's workloads: each names an explicit
 * app list, chip count, scheme, instruction budget and execution
 * shape (threads, or forked shards), so no input is read from the
 * environment.  See README.md for why each workload exists.
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shard/campaign.hh"

namespace fig13bench {

struct Workload
{
    std::string name;
    eval::AdaptScheme scheme = eval::AdaptScheme::FuzzyDyn;
    std::vector<std::string> apps;
    int chips = 0;
    std::uint64_t simInsts = 0;
    /** Global thread-pool size of the process running the campaign
     *  (each forked shard worker also uses this many). */
    std::size_t threads = 1;
    /** 0 = one monolithic process (runMonolithic); N = N forked shard
     *  workers under runShardSupervisor. */
    std::uint32_t shards = 0;
    /** Campaigns every untraced run completes, even past --seconds:
     *  outcome metrics pooled over them depend on the seed alone, and
     *  they hold enough chips for a steady pooled share. */
    std::size_t minCampaigns = 1;
};

/** The workload called @p name; throws std::invalid_argument. */
const Workload &workloadByName(const std::string &name);

/**
 * Every campaign the benchmark runs has a seed in 1..kCampaignPool,
 * and reference.json holds each one's digest and outcome tallies.  A
 * run with seed n runs the campaigns campaignSeed(n, 0), (n, 1), ...,
 * so one run covers several different populations of chips.
 */
inline constexpr std::uint64_t kCampaignPool = 48;

std::uint64_t campaignSeed(std::uint64_t runSeed, std::uint64_t rep);

/** Campaign inputs of @p w for campaign seed @p seed. */
eval::CampaignConfig campaignFor(const Workload &w, std::uint64_t seed);

} // namespace fig13bench
