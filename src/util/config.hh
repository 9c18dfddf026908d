/**
 * @file
 * Environment-driven run configuration for benches and examples.
 *
 * The harness convention (documented in DESIGN.md) is:
 *   EVAL_CHIPS  number of chip samples per experiment (default 30)
 *   EVAL_SEED   master RNG seed (default 1)
 *   EVAL_FAST   when "1", shrink sweeps for smoke runs
 *   EVAL_APPS   comma-separated subset of the workload suite
 */

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace eval {

/** Read an integer env var, or return fallback when unset/invalid. */
std::int64_t envInt(const char *name, std::int64_t fallback);

/** Read a double env var, or return fallback when unset/invalid. */
double envDouble(const char *name, double fallback);

/** Read a string env var, or return fallback when unset. */
std::string envString(const char *name, const std::string &fallback);

/** Read a boolean ("1"/"true"/"yes") env var. */
bool envBool(const char *name, bool fallback);

/** Split a comma-separated string into trimmed non-empty tokens. */
std::vector<std::string> splitCsvList(const std::string &s);

/** Harness run configuration assembled from the environment. */
struct RunConfig
{
    int chips = 30;
    std::uint64_t seed = 1;
    bool fast = false;
    std::vector<std::string> apps;   ///< empty = full suite

    /** Build from the EVAL_* environment variables. */
    static RunConfig fromEnv();
};

} // namespace eval

