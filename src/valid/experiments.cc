#include "valid/experiments.hh"

#include <map>
#include <string>
#include <vector>

#include "core/environment.hh"
#include "exec/thread_pool.hh"
#include "util/logging.hh"
#include "valid/serializers.hh"
#include "variation/chip.hh"
#include "workload/profile.hh"

namespace eval {

namespace {

/** Controller invocations happen at this heat-sink temperature. */
constexpr double kThC = 65.0;

std::string
subsystemTag(std::size_t i)
{
    return "s" + std::to_string(i);
}

ProcessParams
tweakedParams(ProcessParams p, const ExperimentTweaks &tweaks)
{
    p.delayVariationGain *= tweaks.delayVariationGainScale;
    return p;
}

double
snapshotDigest(const JsonValue &snapshot)
{
    return digest53(encodeBinary(snapshot));
}

// -- chip_population ----------------------------------------------------

GoldenFile
runChipPopulation(const ExperimentTweaks &tweaks)
{
    constexpr std::uint64_t kSeed = 20080642;
    constexpr std::size_t kChips = 8;

    GoldenFile golden("chip_population");
    ProcessParams params = tweakedParams(ProcessParams{}, tweaks);
    ChipFactory factory(params, kSeed);
    const std::vector<Chip> chips = factory.manufacture(kChips);

    golden.addExact("num_chips", static_cast<double>(chips.size()));
    for (const Chip &chip : chips) {
        golden.addExact("chip" + std::to_string(chip.id()) + "_digest",
                        snapshotDigest(toSnapshot(chip)));
    }
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        golden.addExact("chip0_vt_sys_" + subsystemTag(i),
                        chips[0].subsystemVtSys(0, id));
        golden.addExact("chip0_leff_sys_" + subsystemTag(i),
                        chips[0].subsystemLeffSys(0, id));
    }
    return golden;
}

// -- optimizer_decisions ------------------------------------------------

ExperimentConfig
microConfig(std::uint64_t seed, int chips,
            std::vector<std::string> apps,
            const ExperimentTweaks &tweaks)
{
    ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.chips = chips;
    cfg.simInsts = 60000;
    cfg.apps = std::move(apps);
    cfg.process = tweakedParams(cfg.process, tweaks);
    return cfg;
}

GoldenFile
runOptimizerDecisions(const ExperimentTweaks &tweaks)
{
    GoldenFile golden("optimizer_decisions");
    ExperimentContext ctx(microConfig(7, 2, {"gzip", "swim"}, tweaks));
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::ALL);
    ExhaustiveOptimizer exh(caps, ctx.config().constraints);
    CoreOptimizer optimizer(exh, caps, ctx.config().constraints,
                            ctx.config().recovery);

    const auto apps = ctx.selectedApps();
    for (std::size_t chip = 0;
         chip < static_cast<std::size_t>(ctx.config().chips); ++chip) {
        for (std::size_t a = 0; a < apps.size(); ++a) {
            const AppProfile &app = *apps[a];
            const std::size_t coreIdx = (chip + a) % 4;
            CoreSystemModel &core = ctx.coreModel(chip, coreIdx);
            core.setAppType(app.isFp);
            const AppCharacterization &chr =
                ctx.characterizations().get(app);
            for (std::size_t p = 0; p < chr.phases.size(); ++p) {
                const AdaptationResult ad =
                    optimizer.choose(core, chr.phases[p].chr, kThC);
                const std::string tag = "c" + std::to_string(chip) +
                                        "_" + app.name + "_p" +
                                        std::to_string(p);
                golden.addExact(tag + "_freq", ad.op.freq);
                golden.addExact(tag + "_perf", ad.predictedPerf);
                golden.addExact(tag + "_pe", ad.predictedPe);
                golden.addExact(tag + "_feasible",
                                ad.feasible ? 1.0 : 0.0);
                golden.addExact(tag + "_op_digest",
                                snapshotDigest(toSnapshot(ad)));
            }
        }
    }
    return golden;
}

// -- sweep_micro / paper_headline ---------------------------------------

/** Mean run metrics of one (environment, scheme) over chips x apps. */
struct SweepCell
{
    double freqRel = 0.0;
    double perfRel = 0.0;
    double powerW = 0.0;
    std::map<RetuneOutcome, std::uint64_t> outcomes;
    std::uint64_t runs = 0;
};

/** Every chip's runChipSweep, fanned out one task per chip. */
std::vector<ChipSweepRuns>
sweepChips(ExperimentContext &ctx,
           const std::vector<const AppProfile *> &apps,
           const std::vector<EnvironmentKind> &envs,
           const std::vector<AdaptScheme> &schemes)
{
    ctx.characterizations().warm(apps);
    for (const AppProfile *app : apps)
        ctx.novarPerf(*app);
    const auto chips = static_cast<std::size_t>(ctx.config().chips);
    return globalPool().parallelMap(chips, [&](std::size_t chip) {
        return runChipSweep(ctx, chip, apps, envs, schemes);
    });
}

/**
 * Fold one column of the sweep: app a's run on a chip is
 * (runs.*column)[a * stride + offset].  Apps sum per chip, chips sum
 * in chip order, then the totals are divided by the run count, so the
 * doubles do not depend on the thread count.
 */
SweepCell
foldCell(const std::vector<ChipSweepRuns> &perChip,
         std::vector<AppRunResult> ChipSweepRuns::*column,
         std::size_t stride = 1, std::size_t offset = 0)
{
    SweepCell total;
    for (const ChipSweepRuns &runs : perChip) {
        const std::vector<AppRunResult> &col = runs.*column;
        SweepCell chip;
        for (std::size_t i = offset; i < col.size(); i += stride) {
            const AppRunResult &r = col[i];
            chip.freqRel += r.freqRel;
            chip.perfRel += r.perfRel;
            chip.powerW += r.powerW;
            for (RetuneOutcome o : r.outcomes)
                ++total.outcomes[o];
            ++total.runs;
        }
        total.freqRel += chip.freqRel;
        total.perfRel += chip.perfRel;
        total.powerW += chip.powerW;
    }
    if (total.runs > 0) {
        const double n = static_cast<double>(total.runs);
        total.freqRel /= n;
        total.perfRel /= n;
        total.powerW /= n;
    }
    return total;
}

void
addCellMetrics(GoldenFile &golden, const std::string &tag,
               const SweepCell &cell, double relEps)
{
    const auto add = [&](const std::string &name, double value) {
        if (relEps > 0.0)
            golden.addRelative(name, relEps, value);
        else
            golden.addExact(name, value);
    };
    add(tag + "_freq_rel", cell.freqRel);
    add(tag + "_perf_rel", cell.perfRel);
    add(tag + "_power_w", cell.powerW);
}

void
addOutcomeMetrics(GoldenFile &golden, const std::string &tag,
                  const std::map<RetuneOutcome, std::uint64_t> &outcomes)
{
    const std::pair<RetuneOutcome, const char *> kinds[] = {
        {RetuneOutcome::NoChange, "no_change"},
        {RetuneOutcome::LowFreq, "low_freq"},
        {RetuneOutcome::Error, "error"},
        {RetuneOutcome::Temp, "temp"},
        {RetuneOutcome::Power, "power"},
    };
    for (const auto &[o, name] : kinds) {
        const auto it = outcomes.find(o);
        golden.addExact(
            tag + "_out_" + name,
            static_cast<double>(it == outcomes.end() ? 0 : it->second));
    }
}

GoldenFile
runSweepMicro(const ExperimentTweaks &tweaks)
{
    GoldenFile golden("sweep_micro");
    ExperimentContext ctx(microConfig(1, 3, {"gzip", "swim"}, tweaks));
    const auto apps = ctx.selectedApps();

    const std::vector<EnvironmentKind> envs = {
        EnvironmentKind::TS, EnvironmentKind::TS_ASV_Q_FU};
    const char *const envTags[] = {"ts", "pref"};
    const std::vector<AdaptScheme> schemes = {
        AdaptScheme::Static, AdaptScheme::FuzzyDyn, AdaptScheme::ExhDyn};
    const char *const schemeTags[] = {"static", "fuzzy", "exh"};
    const auto perChip = sweepChips(ctx, apps, envs, schemes);

    addCellMetrics(golden, "baseline",
                   foldCell(perChip, &ChipSweepRuns::base), 0.0);
    addCellMetrics(golden, "novar",
                   foldCell(perChip, &ChipSweepRuns::novar), 0.0);
    const std::size_t numManaged = envs.size() * schemes.size();
    for (std::size_t e = 0; e < envs.size(); ++e) {
        for (std::size_t k = 0; k < schemes.size(); ++k) {
            const SweepCell cell =
                foldCell(perChip, &ChipSweepRuns::managed, numManaged,
                         e * schemes.size() + k);
            const std::string tag =
                std::string(envTags[e]) + "_" + schemeTags[k];
            addCellMetrics(golden, tag, cell, 0.0);
            if (schemes[k] != AdaptScheme::Static)
                addOutcomeMetrics(golden, tag, cell.outcomes);
        }
    }
    return golden;
}

GoldenFile
runPaperHeadline(const ExperimentTweaks &tweaks)
{
    // Relative tolerance for the physics outputs: libm differences
    // across platforms may perturb the last few bits, but anything
    // above 1e-9 is a model change, not noise.
    constexpr double kRelEps = 1e-9;

    GoldenFile golden("paper_headline");
    ExperimentContext ctx(
        microConfig(1, 4, {"gzip", "mcf", "swim", "applu"}, tweaks));
    const auto apps = ctx.selectedApps();
    const auto perChip = sweepChips(ctx, apps,
                                    {EnvironmentKind::TS_ASV_Q_FU},
                                    {AdaptScheme::FuzzyDyn});

    const SweepCell baseline = foldCell(perChip, &ChipSweepRuns::base);
    const SweepCell preferred = foldCell(perChip, &ChipSweepRuns::managed);
    addCellMetrics(golden, "baseline", baseline, kRelEps);
    addCellMetrics(golden, "novar",
                   foldCell(perChip, &ChipSweepRuns::novar), kRelEps);
    addCellMetrics(golden, "preferred", preferred, kRelEps);
    golden.addRelative("freq_gain", kRelEps,
                       preferred.freqRel - baseline.freqRel);
    return golden;
}

// -- fig13_micro --------------------------------------------------------

GoldenFile
runFig13Micro(const ExperimentTweaks &tweaks)
{
    GoldenFile golden("fig13_micro");
    ExperimentContext ctx(
        microConfig(1, 3, {"gzip", "swim", "applu"}, tweaks));
    const auto chips = static_cast<std::size_t>(ctx.config().chips);
    ctx.characterizations().warm(ctx.selectedApps());
    for (const VoltageEnv &env : fig13VoltageEnvs()) {
        const EnvCapabilities caps = fig13Caps(env);
        const auto perChip =
            globalPool().parallelMap(chips, [&](std::size_t chip) {
                return chipOutcomes(ctx, chip, caps, AdaptScheme::FuzzyDyn);
            });
        std::map<RetuneOutcome, std::uint64_t> outcomes;
        std::uint64_t invocations = 0;
        for (const auto &chip : perChip) {
            for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o) {
                outcomes[static_cast<RetuneOutcome>(o)] += chip[o];
                invocations += chip[o];
            }
        }
        golden.addExact(std::string(env.tag) + "_invocations",
                        static_cast<double>(invocations));
        addOutcomeMetrics(golden, env.tag, outcomes);
    }
    return golden;
}

} // namespace

std::vector<std::string>
validationExperiments()
{
    return {"chip_population", "optimizer_decisions", "sweep_micro",
            "fig13_micro", "paper_headline"};
}

GoldenFile
runValidationExperiment(const std::string &name,
                        const ExperimentTweaks &tweaks)
{
    if (name == "chip_population")
        return runChipPopulation(tweaks);
    if (name == "optimizer_decisions")
        return runOptimizerDecisions(tweaks);
    if (name == "sweep_micro")
        return runSweepMicro(tweaks);
    if (name == "fig13_micro")
        return runFig13Micro(tweaks);
    if (name == "paper_headline")
        return runPaperHeadline(tweaks);
    EVAL_FATAL("unknown validation experiment: ", name);
}

} // namespace eval
