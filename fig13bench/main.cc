/**
 * @file
 * fig13_campaign_bench: one run of one Fig 13 campaign workload.
 *
 *   fig13_campaign_bench --workload W --seed N --seconds S --trace 0|1
 *                        --out DIR
 *
 * Runs fixed-size campaigns of the workload (campaign seeds
 * campaignSeed(N, 0), (N, 1), ...) until S seconds have passed, and
 * prints one JSON object as the last line of stdout: every campaign's
 * seed, wall time, digest and outcome tallies, plus the metrics of
 * the run (see README.md).  With --trace 0 the campaigns run untraced
 * and the run also measures set-up time, peak RSS and fuzzy-controller
 * error; with --trace 1 each campaign runs untraced and then traced,
 * and the run reports the per-layer ledger.  fig13bench/run.py checks
 * every digest against reference.json.
 *
 *   fig13_campaign_bench reference --workload W
 *
 * prints one reference line per campaign seed 1..kCampaignPool, each
 * computed by runMonolithic on all hardware threads.
 *
 *   fig13_campaign_bench worker --workload W --seed CAMPAIGN_SEED
 *                        --trace 0|1 --out DIR --shard=i/N
 *
 * is the shard worker protocol: the supervisor re-executes this
 * binary once per shard.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/environment.hh"
#include "core/fuzzy_adaptation.hh"
#include "core/optimizer.hh"
#include "exec/subprocess.hh"
#include "exec/thread_pool.hh"
#include "shard/supervisor.hh"
#include "shard/trace_merge.hh"
#include "shard/worker.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "traced.hh"
#include "util/math_utils.hh"
#include "util/random.hh"
#include "valid/snapshot.hh"
#include "workloads.hh"

using namespace eval;
using namespace fig13bench;
namespace fs = std::filesystem;

namespace {

/** Environment knobs the library reads behind the config's back;
 *  any of them would change what a run measures. */
constexpr const char *kRefusedEnv[] = {
    "EVAL_PE_TABLE",    "EVAL_PE_CACHE", "EVAL_THERMAL_CACHE",
    "EVAL_FC_EXAMPLES", "EVAL_APPS",     "EVAL_FAST",
    "EVAL_CHIPS",       "EVAL_SIM_INSTS", "EVAL_THREADS",
};

/** ExperimentContext constructions per set-up measurement. */
constexpr int kSetupSamples = 31;

/** FC error check: chips (core chip % 4) and held-out queries per
 *  subsystem.  The training inputs come from the chip's training
 *  seed; these come from an unrelated stream. */
constexpr std::size_t kFcChips = 16;
constexpr std::size_t kFcQueries = 64;
constexpr std::uint64_t kHeldOutSeed = 0x4E1D0057ULL;

enum class Mode { Run, Worker, Reference };

struct Args
{
    Mode mode = Mode::Run;
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string out;
    std::string shard;       ///< worker: "i/N"
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "fig13_campaign_bench: " << why << "\n"
              << "usage: fig13_campaign_bench --workload W --seed N "
                 "--seconds S --trace 0|1 --out DIR\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    int i = 1;
    if (argc > 1 && std::string(argv[1]) == "worker") {
        a.mode = Mode::Worker;
        i = 2;
    } else if (argc > 1 && std::string(argv[1]) == "reference") {
        a.mode = Mode::Reference;
        i = 2;
    }
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const auto eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key = key.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage("missing value for " + key);
        }
        try {
            if (key == "--workload") {
                a.workload = value;
            } else if (key == "--seed") {
                a.seed = std::stoull(value);
                haveSeed = true;
            } else if (key == "--seconds") {
                a.seconds = std::stod(value);
                haveSeconds = true;
            } else if (key == "--trace") {
                if (value != "0" && value != "1")
                    usage("--trace takes 0 or 1");
                a.trace = value == "1";
                haveTrace = true;
            } else if (key == "--out") {
                a.out = value;
            } else if (key == "--shard") {
                a.shard = value;
            } else {
                usage("unknown argument " + key);
            }
        } catch (const std::logic_error &) {
            usage("bad value for " + key + ": " + value);
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.mode == Mode::Reference)
        return a;
    if (!haveSeed || a.out.empty() || !haveTrace)
        usage("--seed, --trace and --out are required");
    if (a.mode == Mode::Run && (!haveSeconds || !(a.seconds > 0.0)))
        usage("--seconds must be positive");
    if (a.mode == Mode::Worker && a.shard.empty())
        usage("worker needs --shard=i/N");
    return a;
}

/** Refuse inputs and builds that would make the figures meaningless. */
void
checkHygiene()
{
    for (const char *name : kRefusedEnv) {
        if (std::getenv(name)) {
            std::cerr << "fig13_campaign_bench: refusing to run with " << name
                      << " set; unset it (the benchmark passes every "
                         "input explicitly)\n";
            std::exit(2);
        }
    }
    const std::string flags = buildFlags();
    std::string why;
#ifndef __OPTIMIZE__
    why = "an unoptimized build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why = "a sanitizer build";
#endif
    if (std::string(buildSanitizer()) != "none")
        why = std::string("a sanitizer build (") + buildSanitizer() + ")";
    if (flags.find("-O0") != std::string::npos)
        why = "an -O0 build";
    if (flags.find("--coverage") != std::string::npos ||
        flags.find("-fprofile-arcs") != std::string::npos)
        why = "a coverage build";
    if (!why.empty()) {
        std::cerr << "fig13_campaign_bench: refusing to time " << why
                  << " (flags: " << flags << ")\n";
        std::exit(2);
    }
}

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

long
selfPeakRssKb()
{
    struct rusage ru;
    return getrusage(RUSAGE_SELF, &ru) == 0 ? ru.ru_maxrss : 0;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) {
                const auto start = line.find_first_not_of(' ', colon + 1);
                return start == std::string::npos ? "" : line.substr(start);
            }
        }
    }
    return "unknown";
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
}

double
percentile(std::vector<std::uint64_t> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const auto hi = std::min(lo + 1, v.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return static_cast<double>(v[lo]) * (1.0 - frac) +
           static_cast<double>(v[hi]) * frac;
}

/** One finished campaign. */
struct Rep
{
    std::uint64_t campaignSeed = 0;
    bool traced = false;
    double wallS = 0.0;
    std::uint64_t chips = 0;
    std::uint64_t digest = 0;
    JsonValue outcomes;
    /** Bytes of the campaign's binary result: the shard result files
     *  for a sharded campaign, the encoded snapshot otherwise. */
    std::uint64_t resultBytes = 0;
};

JsonValue
outcomesJson(const CampaignAccumulator &acc)
{
    JsonValue envs = JsonValue::array();
    for (std::size_t e = 0; e < kNumVoltageEnvs; ++e) {
        JsonValue row = JsonValue::array();
        for (std::size_t o = 0; o < kNumRetuneOutcomes; ++o)
            row.push(JsonValue(
                acc.outcomeCount(e, static_cast<RetuneOutcome>(o))));
        envs.push(std::move(row));
    }
    return envs;
}

Rep
repFrom(const CampaignAccumulator &acc, std::uint64_t campaignSeed,
        bool traced, double wallS)
{
    Rep r;
    r.campaignSeed = campaignSeed;
    r.traced = traced;
    r.wallS = wallS;
    r.chips = acc.chipCount();
    r.digest = static_cast<std::uint64_t>(acc.digest());
    r.outcomes = outcomesJson(acc);
    r.resultBytes = encodeBinary(acc.toSnapshot()).size();
    return r;
}

JsonValue
repJson(const Rep &r)
{
    JsonValue j = JsonValue::object();
    j.set("campaign_seed", JsonValue(r.campaignSeed));
    j.set("traced", JsonValue(r.traced));
    j.set("wall_s", JsonValue(r.wallS));
    j.set("chips", JsonValue(r.chips));
    j.set("digest", JsonValue(std::to_string(r.digest)));
    j.set("outcomes", r.outcomes);
    return j;
}

/** Per-worker report a shard worker leaves in the run directory. */
std::string
workerReportPath(const std::string &outDir, std::uint32_t shard)
{
    return (fs::path(outDir) / ("bench-shard-" + std::to_string(shard) +
                                ".json"))
        .string();
}

/** What the sharded campaign's workers reported. */
struct Fleet
{
    long rssKb = 0; ///< sum of the workers' peaks
    std::vector<double> wallS;
};

/**
 * One sharded campaign: runShardSupervisor forks one worker per shard
 * (this binary, in worker mode), then the merged snapshot the
 * supervisor wrote is read back.  A traced campaign's workers add
 * their ledgers to @p ledger and their span profiles to @p profile.
 */
Rep
runSharded(const Workload &w, std::uint64_t campaignSeed,
           const std::string &dir, bool traced, Fleet &fleet,
           LayerLedger &ledger, SpanProfile &profile)
{
    const CampaignConfig campaign = campaignFor(w, campaignSeed);
    fs::remove_all(dir);
    fs::create_directories(dir);
    ShardSupervisorOptions opts;
    opts.campaign = campaign;
    opts.shards = w.shards;
    opts.outDir = dir;
    opts.workerArgv = {Subprocess::selfExePath(),
                       "worker",
                       "--workload=" + w.name,
                       "--seed=" + std::to_string(campaignSeed),
                       "--trace=" + std::string(traced ? "1" : "0"),
                       "--out=" + dir};
    const auto t0 = std::chrono::steady_clock::now();
    const int rc = runShardSupervisor(opts);
    const double wallS = secondsSince(t0);
    if (rc != kShardExitOk)
        throw std::runtime_error("shard supervisor exited with code " +
                                 std::to_string(rc));

    Rep rep = repFrom(CampaignAccumulator::fromSnapshot(
                          readSnapshotFile(mergedSnapshotPath(dir))),
                      campaignSeed, traced, wallS);
    rep.resultBytes = 0;
    long rssKb = 0;
    for (std::uint32_t i = 0; i < w.shards; ++i) {
        rep.resultBytes += fs::file_size(shardResultPath(dir, i));
        const JsonValue report =
            JsonValue::parse(readFile(workerReportPath(dir, i)));
        rssKb += static_cast<long>(report.at("rss_kb").asInt());
        if (!traced)
            continue;
        fleet.wallS.push_back(report.at("wall_s").asDouble());
        ledger.mergeJson(report.at("ledger"));
        mergeProfileInto(profile, parseProfileJson(readFile(
                                      shardProfilePath(dir, i))));
    }
    fleet.rssKb = std::max(fleet.rssKb, rssKb);
    if (traced) {
        // The supervisor's own merge has no span; repeat it after the
        // campaign to time the merge layer.
        LayerScope scope(ledger, "shard.merge");
        mergeShardResults(campaign, w.shards, dir);
    }
    return rep;
}

int
workerMain(const Args &args)
{
    const auto t0 = std::chrono::steady_clock::now();
    const Workload &w = workloadByName(args.workload);
    const CampaignConfig campaign = campaignFor(w, args.seed);
    ShardSpec spec;
    if (!parseShardSpec(args.shard, spec))
        usage("bad --shard " + args.shard);
    setGlobalThreads(w.threads);

    LayerLedger ledger;
    int rc;
    if (args.trace) {
        SpanTracer &tracer = SpanTracer::global();
        tracer.setEnabled(true);
        rc = tracedShardWorker(campaign, spec, args.out, ledger);
        tracer.setEnabled(false);
        fs::create_directories(shardTraceDir(args.out));
        tracer.writeProfileJson(shardProfilePath(args.out, spec.index));
    } else {
        ShardWorkerOptions opts;
        opts.campaign = campaign;
        opts.spec = spec;
        opts.outDir = args.out;
        rc = runShardWorker(opts);
    }
    JsonValue report = JsonValue::object();
    report.set("wall_s", JsonValue(secondsSince(t0)));
    report.set("rss_kb", JsonValue(static_cast<std::int64_t>(
                             selfPeakRssKb())));
    if (args.trace)
        report.set("ledger", ledger.toJson());
    writeFile(workerReportPath(args.out, spec.index), report.dump() + "\n");
    return rc;
}

int
referenceMain(const Args &args)
{
    const Workload &w = workloadByName(args.workload);
    // Results are identical at any thread count; use them all.
    setGlobalThreads(0);
    for (std::uint64_t s = 1; s <= kCampaignPool; ++s) {
        const CampaignAccumulator acc = runMonolithic(campaignFor(w, s));
        JsonValue line = repJson(repFrom(acc, s, false, 0.0));
        line.set("workload", JsonValue(w.name));
        std::cout << line.dump() << std::endl;
    }
    return 0;
}

/** Wall seconds of kSetupSamples ExperimentContext constructions. */
JsonValue
measureSetup(const CampaignConfig &campaign)
{
    JsonValue samples = JsonValue::array();
    for (int i = 0; i < kSetupSamples; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        {
            ExperimentContext ctx(campaign.experiment);
        }
        samples.push(JsonValue(secondsSince(t0)));
    }
    return samples;
}

/**
 * Mean absolute error of the trained fuzzy controllers against the
 * exhaustive optimizer on held-out inputs (same input distribution as
 * CoreFuzzySystem::train, different draws), in the FU+Queue+ABB+ASV
 * environment where both the Freq and the Power controllers exist.
 */
JsonValue
measureFcError(const CampaignConfig &campaign)
{
    ExperimentConfig cfg = campaign.experiment;
    cfg.chips = static_cast<int>(kFcChips);
    ExperimentContext ctx(cfg);
    const EnvCapabilities caps = fig13Caps(fig13VoltageEnvs().back());
    const KnobSpace knobs = caps.knobSpace();
    double fmaxErrHz = 0.0, vddErrV = 0.0;
    std::uint64_t fmaxN = 0, vddN = 0;
    for (std::size_t chip = 0; chip < kFcChips; ++chip) {
        const std::size_t core = chip % 4;
        const CoreFuzzySystem &fc = ctx.coreFuzzy(chip, core, caps);
        const CoreSystemModel &model = ctx.coreModel(chip, core);
        ExhaustiveOptimizer exh(caps, cfg.constraints);
        Rng rng(kHeldOutSeed ^ (cfg.seed * 0x9E3779B97F4A7C15ULL) ^ chip);
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            const SubsystemModel &sub = model.subsystem(id);
            for (std::size_t k = 0; k < kFcQueries; ++k) {
                const double thC = rng.uniform(45.0, 70.0);
                const double alphaF =
                    sub.power().alphaRef * rng.uniform(0.1, 2.0);
                const bool alt = sub.hasAlternate() && rng.bernoulli(0.5);
                const double fmax =
                    clamp(exh.maxFrequency(model, id, alt, alphaF, thC),
                          knobs.freq.lo(), knobs.freq.hi());
                fmaxErrHz +=
                    std::abs(fc.predictFmax(id, thC, alphaF, alt) - fmax);
                ++fmaxN;
                const double u = rng.uniform();
                const double fcore = knobs.freq.quantizeDown(
                    fmax - (fmax - knobs.freq.lo()) * u * u);
                const auto best =
                    exh.minimizePower(model, id, alt, fcore, alphaF, thC);
                if (best) {
                    const SubsystemKnobs got =
                        fc.predictKnobs(id, thC, alphaF, alt, fcore);
                    vddErrV += std::abs(got.vdd - best->vdd);
                    ++vddN;
                }
            }
        }
    }
    JsonValue out = JsonValue::object();
    out.set("fmax_err_mhz",
            JsonValue(fmaxN ? fmaxErrHz / 1e6 / static_cast<double>(fmaxN)
                            : 0.0));
    out.set("vdd_err_mv",
            JsonValue(vddN ? vddErrV * 1e3 / static_cast<double>(vddN)
                           : 0.0));
    out.set("queries", JsonValue(fmaxN));
    return out;
}

/** Inclusive ns of profile buckets named one of @p names whose path
 *  runs through span @p under; adds their counts to @p count. */
std::uint64_t
profileUnder(const SpanProfile &profile, const std::string &under,
             std::initializer_list<const char *> names, std::uint64_t &count)
{
    std::uint64_t ns = 0;
    for (const auto &[path, b] : profile) {
        if (path.find(under + ";") == std::string::npos)
            continue;
        for (const char *n : names) {
            if (b.name == n) {
                ns += b.inclNs;
                count += b.count;
            }
        }
    }
    return ns;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Per-layer metrics of the traced campaigns (per campaign). */
JsonValue
layerMetrics(const LayerLedger &ledger, const SpanProfile &profile,
             const std::vector<Rep> &reps, std::size_t workers,
             const std::vector<double> &workerWallS)
{
    // Traced campaign i sits right after its untraced twin.
    double tracedWallS = 0.0;
    std::vector<double> overheads;
    std::uint64_t resultBytes = 0;
    for (std::size_t i = 1; i < reps.size(); i += 2) {
        tracedWallS += reps[i].wallS;
        overheads.push_back(reps[i].wallS / reps[i - 1].wallS - 1.0);
        resultBytes += reps[i].resultBytes;
    }
    const double tracedReps = static_cast<double>(overheads.size());
    auto sec = [&](const char *layer) {
        return static_cast<double>(ledger.totalNs(layer)) * 1e-9 / tracedReps;
    };
    auto perRep = [&](std::uint64_t n) {
        return static_cast<double>(n) / tracedReps;
    };
    JsonValue m = JsonValue::object();
    m.set("variation.manufacture_s", JsonValue(sec("variation.manufacture")));
    m.set("variation.chips",
          JsonValue(perRep(ledger.samples("variation.manufacture").size())));
    m.set("timing.model_build_s", JsonValue(sec("timing.model_build")));
    m.set("timing.models", JsonValue(perRep(ledger.counter("timing.models"))));
    const double charS = sec("arch.characterize");
    m.set("arch.characterize_s", JsonValue(charS));
    m.set("arch.characterize_wait_s", JsonValue(sec("arch.characterize_wait")));
    m.set("arch.apps",
          JsonValue(perRep(ledger.samples("arch.characterize").size())));
    m.set("arch.sim_minsts_per_s",
          JsonValue(charS > 0.0 ? perRep(ledger.counter("arch.sim_insts")) /
                                      charS / 1e6
                                : 0.0));

    const double trainS = sec("fuzzy.train");
    std::uint64_t labelQueries = 0;
    const double labelS =
        static_cast<double>(profileUnder(
            profile, "fuzzy.train",
            {"optimizer.max_frequency", "optimizer.minimize_power"},
            labelQueries)) *
        1e-9 / tracedReps;
    m.set("fuzzy.train_s", JsonValue(trainS));
    m.set("fuzzy.trainings",
          JsonValue(perRep(ledger.counter("fuzzy.trainings"))));
    m.set("fuzzy.train_ms_p50",
          JsonValue(percentile(ledger.samples("fuzzy.train"), 0.5) * 1e-6));
    m.set("fuzzy.label_s", JsonValue(labelS));
    m.set("fuzzy.fit_s", JsonValue(std::max(0.0, trainS - labelS)));
    m.set("optimizer.label_queries", JsonValue(perRep(labelQueries)));

    const auto adapt = ledger.samples("controller.adapt");
    std::uint64_t runtimeQueries = 0;
    profileUnder(profile, "controller.adapt",
                 {"optimizer.max_frequency", "optimizer.minimize_power",
                  "fuzzy.predict_fmax", "fuzzy.predict_knobs"},
                 runtimeQueries);
    m.set("controller.adapt_s", JsonValue(sec("controller.adapt")));
    m.set("controller.invocations", JsonValue(perRep(adapt.size())));
    m.set("controller.adapt_us_p50", JsonValue(percentile(adapt, 0.5) * 1e-3));
    m.set("controller.adapt_us_p99", JsonValue(percentile(adapt, 0.99) * 1e-3));
    m.set("optimizer.runtime_queries", JsonValue(perRep(runtimeQueries)));

    m.set("shard.fold_s", JsonValue(sec("shard.fold")));
    m.set("shard.merge_s", JsonValue(sec("shard.merge")));
    double imbalance = 1.0;
    if (!workerWallS.empty()) {
        double sum = 0.0, peak = 0.0;
        for (double s : workerWallS) {
            sum += s;
            peak = std::max(peak, s);
        }
        imbalance = peak / (sum / static_cast<double>(workerWallS.size()));
    }
    m.set("shard.imbalance", JsonValue(imbalance));
    m.set("valid.result_bytes", JsonValue(perRep(resultBytes)));

    // Chip-task thread-seconds, less time blocked on another thread's
    // characterization, over the thread-seconds the campaign had.
    const double capacity =
        static_cast<double>(workers) * tracedWallS / tracedReps;
    const double busy =
        sec(kChipTaskSpan) - sec("arch.characterize_wait");
    m.set("exec.busy_share", JsonValue(capacity > 0 ? busy / capacity : 0.0));
    double attributed = 0.0;
    for (const char *layer : kLayerSpans)
        attributed += sec(layer);
    m.set("trace.coverage_share",
          JsonValue(capacity > 0 ? attributed / capacity : 0.0));
    m.set("trace.overhead_share", JsonValue(median(overheads)));
    return m;
}

JsonValue
provenance(const Args &args, const Workload &w)
{
    JsonValue p = JsonValue::object();
    p.set("online_cpus",
          JsonValue(static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN))));
    p.set("cpu_model", JsonValue(cpuModel()));
    p.set("git_sha", JsonValue(buildGitSha()));
    p.set("build_type", JsonValue(buildType()));
    p.set("build_flags", JsonValue(buildFlags()));
    p.set("compiler", JsonValue(buildCompiler()));
    p.set("sanitizer", JsonValue(buildSanitizer()));
    p.set("seed", JsonValue(args.seed));
    p.set("threads", JsonValue(static_cast<std::uint64_t>(w.threads)));
    p.set("shards", JsonValue(static_cast<std::uint64_t>(w.shards)));
    return p;
}

int
runMain(const Args &args)
{
    const Workload &w = workloadByName(args.workload);
    setGlobalThreads(w.threads);
    fs::create_directories(args.out);
    const CampaignConfig first = campaignFor(w, campaignSeed(args.seed, 0));

    JsonValue result = JsonValue::object();
    result.set("workload", JsonValue(w.name));
    result.set("provenance", provenance(args, w));

    // Set-up first, so its contexts are gone before the campaigns.
    if (!args.trace)
        result.set("setup_s", measureSetup(first));

    std::vector<Rep> reps;
    Fleet fleet;
    LayerLedger ledger;
    SpanProfile profile;
    SpanTracer &tracer = SpanTracer::global();
    tracer.clear();
    const auto t0 = std::chrono::steady_clock::now();
    // --trace 1 runs each campaign untraced and then traced, so the
    // overhead compares the same work under neighbouring host load.
    const std::size_t perCampaign = args.trace ? 2 : 1;
    const std::size_t minReps = args.trace ? 2 : w.minCampaigns;
    while (reps.size() < minReps || reps.size() % perCampaign != 0 ||
           secondsSince(t0) < args.seconds) {
        const bool traced = reps.size() % perCampaign == 1;
        const std::uint64_t seed =
            campaignSeed(args.seed, reps.size() / perCampaign);
        if (w.shards) {
            const std::string dir =
                (fs::path(args.out) / "shards").string();
            reps.push_back(
                runSharded(w, seed, dir, traced, fleet, ledger, profile));
            continue;
        }
        const CampaignConfig campaign = campaignFor(w, seed);
        tracer.setEnabled(traced);
        const auto c0 = std::chrono::steady_clock::now();
        const CampaignAccumulator acc = traced
                                            ? tracedMonolithic(campaign, ledger)
                                            : runMonolithic(campaign);
        const double wallS = secondsSince(c0);
        tracer.setEnabled(false);
        reps.push_back(repFrom(acc, seed, traced, wallS));
    }
    const long peakKb = selfPeakRssKb() + fleet.rssKb;

    JsonValue repsJson = JsonValue::array();
    for (const Rep &r : reps)
        repsJson.push(repJson(r));
    result.set("reps", std::move(repsJson));
    result.set("min_campaigns", JsonValue(std::uint64_t{minReps}));

    if (args.trace) {
        if (!w.shards) {
            tracer.writeJson((fs::path(args.out) / "trace.json").string());
            profile = parseProfileJson(tracer.profileJson());
        }
        writeFile((fs::path(args.out) / "profile.json").string(),
                  profileToJson(profile));
        result.set("layers", layerMetrics(ledger, profile, reps,
                                          w.shards ? w.shards : w.threads,
                                          fleet.wallS));
    } else {
        result.set("peak_rss_kb", JsonValue(static_cast<std::int64_t>(peakKb)));
        result.set("fc", measureFcError(first));
    }
    std::cout << result.dump() << std::endl;
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    checkHygiene();
    try {
        switch (args.mode) {
          case Mode::Worker:    return workerMain(args);
          case Mode::Reference: return referenceMain(args);
          case Mode::Run:       break;
        }
        return runMain(args);
    } catch (const std::exception &e) {
        std::cerr << "fig13_campaign_bench: " << e.what() << "\n";
        return 1;
    }
}
