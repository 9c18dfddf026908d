/**
 * @file
 * Figure 13: outcome mix of the fuzzy controller system — for each
 * controller invocation the sensors either confirm the configuration
 * (NoChange), find head-room (LowFreq), or catch a violation (Error /
 * Temp / Power) that retuning corrects.
 *
 * Organization follows the paper: technique sets {No opt, FU opt,
 * Queue opt, FU+Queue opt} x voltage environments {A: TS, B: TS+ABB,
 * C: TS+ASV, D: TS+ABB+ASV}.
 */

#include "bench_common.hh"

using namespace eval;

int
main()
{
    BenchReporter reporter("fig13_outcomes");
    ExperimentContext ctx(benchConfig(10));
    const auto apps = ctx.selectedApps();

    using Tally = std::array<std::uint64_t, kNumRetuneOutcomes>;
    const auto invocations = [](const Tally &t) {
        std::uint64_t n = 0;
        for (std::uint64_t c : t)
            n += c;
        return n;
    };

    const std::vector<std::pair<std::string, std::pair<bool, bool>>>
        techniques = {{"No opt", {false, false}},
                      {"FU opt", {true, false}},
                      {"Queue opt", {false, true}},
                      {"FU+Queue opt", {true, true}}};
    const char *const envLabels[kNumVoltageEnvs] = {
        "A:TS", "B:TS+ABB", "C:TS+ASV", "D:TS+ABB+ASV"};

    TablePrinter table("Figure 13: fuzzy controller outcomes (%)");
    table.header({"techniques", "environment", "NoChange", "LowFreq",
                  "Error", "Temp", "Power", "invocations"});

    std::uint64_t totalInvocations = 0, totalNoChange = 0;
    // Per-voltage-environment tallies (across all technique sets) for
    // the footer metrics: the NoChange+LowFreq share per environment
    // is the shape the golden paper-anchor test pins.
    std::array<Tally, kNumVoltageEnvs> perEnv{};

    // Characterize every app before the chip fan-out starts, one pool
    // task per probe; the first cell's chips would otherwise all wait
    // on the cache's call_once.
    ctx.characterizations().warm(apps);

    for (const auto &[techName, tech] : techniques) {
        for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
            EnvCapabilities caps = fig13Caps(fig13VoltageEnvs()[e]);
            caps.fuReplication = tech.first;
            caps.queueResize = tech.second;

            // One task per chip (each drives its own chip's models);
            // per-chip tallies merge serially in chip order.
            const auto perChip = globalPool().parallelMap(
                static_cast<std::size_t>(ctx.config().chips),
                [&ctx, &caps](std::size_t chip) {
                    return chipOutcomes(ctx, chip, caps,
                                        AdaptScheme::FuzzyDyn);
                });
            reporter.addChips(ctx.config().chips);
            Tally cell{};
            for (const Tally &local : perChip)
                for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                    cell[o] += local[o];
            const std::uint64_t total = invocations(cell);

            std::vector<std::string> row{techName, envLabels[e]};
            for (std::uint64_t n : cell) {
                const double pct =
                    total ? 100.0 * static_cast<double>(n) /
                                static_cast<double>(total)
                          : 0.0;
                row.push_back(formatDouble(pct, 1));
            }
            row.push_back(std::to_string(total));
            table.row(row);
            totalInvocations += total;
            totalNoChange +=
                cell[static_cast<std::size_t>(RetuneOutcome::NoChange)];
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
                perEnv[e][o] += cell[o];
        }
    }
    table.print();
    std::printf("\npaper shape: NoChange dominates under TS; "
                "NoChange+LowFreq >= ~50%% in every bar; Temp is "
                "infrequent.\n");
    reporter.metric("invocations", static_cast<double>(totalInvocations));
    reporter.metric("no_change_share",
                    totalInvocations
                        ? static_cast<double>(totalNoChange) /
                              static_cast<double>(totalInvocations)
                        : 0.0);
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        const Tally &env = perEnv[e];
        // Tag "a_ts" -> "env_a", "d_ts_abb_asv" -> "env_d".
        const std::string key =
            std::string("env_") + fig13VoltageEnvs()[e].tag[0];
        const double total = static_cast<double>(invocations(env));
        const auto count = [&env](RetuneOutcome o) {
            return env[static_cast<std::size_t>(o)];
        };
        const double good = static_cast<double>(
            count(RetuneOutcome::NoChange) + count(RetuneOutcome::LowFreq));
        reporter.metric(key + "_good_share", total ? good / total : 0.0);
        reporter.metric(
            key + "_error_share",
            total ? static_cast<double>(count(RetuneOutcome::Error)) / total
                  : 0.0);
    }
    return 0;
}
