/**
 * @file
 * eval_cli — command-line driver over the whole library.
 *
 *   eval_cli chips  [--chips N] [--seed S]
 *       rate each die (Baseline / retimed / limiting subsystem)
 *   eval_cli run    --app swim [--chip 0] [--core 0]
 *                   [--env TS+ASV+Q+FU] [--scheme fuzzy|exh|static]
 *       one adaptation run with per-subsystem detail
 *   eval_cli sweep  [--chips N] [--envs TS,TS+ASV,...]
 *       a mini Figure 10/11/12 table
 *   eval_cli record --app gcc --ops 100000 --out trace.trc
 *   eval_cli replay --trace trace.trc [--insts 50000]
 *   eval_cli fig13  [--chips N] [--seed S] [--apps gzip,swim,applu]
 *                   [--sim-insts K] [--scheme fuzzy|exh] [--out DIR]
 *                   [--shards N] [--in-process] [--resume]
 *                   [--checkpoint-every K]
 *       the sharded Figure 13 population campaign.  With --shards N
 *       the process becomes a supervisor that re-execs itself once
 *       per shard (--shard=i/N workers, concurrent, each with its own
 *       checkpoint in DIR); --resume skips completed shards and
 *       replays interrupted ones from their checkpoints.  Without
 *       --shards it runs the monolithic reference path.  Either way
 *       DIR ends up with byte-identical merged.snap +
 *       merged.stats.json (tests/shard/shard_differential_test).
 *
 * Telemetry flags (any command; obs/telemetry.hh, DESIGN.md
 * "Observability").  Each defaults from its EVAL_* variable, the same
 * ones the benches honour:
 *   --stats-out=FILE   dump the stat registry as JSON (EVAL_STATS_OUT)
 *   --trace-out=FILE   record every adaptation decision, export JSONL
 *                      (EVAL_TRACE_OUT)
 *   --trace-spans=FILE record a span timeline, export Chrome/Perfetto
 *                      trace_event JSON (open in ui.perfetto.dev;
 *                      EVAL_TRACE_SPANS).  For a sharded fig13 run
 *                      FILE becomes the MERGED fleet timeline (one
 *                      pid per shard)
 *   --profile-out=FILE export the span profile (exact per-span
 *                      count/inclusive/self times, profile.json
 *                      schema; analyze with eval_prof;
 *                      EVAL_PROFILE_OUT), else derived from the span
 *                      path (FILE.profile.json).  For a sharded fig13
 *                      run this is the merged fleet profile
 *   --manifest=FILE    write a run-provenance manifest (git SHA, build
 *                      flags, seed, stage wall times, peak RSS, every
 *                      output above); EVAL_MANIFEST, default
 *                      manifest.json, "" disables
 * With any of these outputs set (flag or variable) the command
 * defaults to `run`.  All telemetry files are registered with
 * ExitFlush, so they are written even when the run dies via
 * fatal()/uncaught exception.
 *
 * Execution:
 *   --threads=N        size of the worker pool for the parallel loops
 *                      (default: EVAL_THREADS, else all hardware
 *                      threads; results are identical for any N)
 */

#include <cstdio>

#include "core/eval.hh"
#include "exec/thread_pool.hh"
#include "exec/subprocess.hh"
#include "obs/telemetry.hh"
#include "util/logging.hh"
#include "core/retiming.hh"
#include "shard/supervisor.hh"
#include "shard/trace_merge.hh"
#include "shard/worker.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "util/arg_parser.hh"
#include "workload/trace_file.hh"

using namespace eval;

namespace {

EnvironmentKind
parseEnv(const std::string &name)
{
    for (auto kind : {EnvironmentKind::Baseline, EnvironmentKind::TS,
                      EnvironmentKind::TS_ASV, EnvironmentKind::TS_ASV_ABB,
                      EnvironmentKind::TS_ASV_Q,
                      EnvironmentKind::TS_ASV_Q_FU, EnvironmentKind::ALL,
                      EnvironmentKind::NoVar}) {
        if (name == environmentName(kind))
            return kind;
    }
    EVAL_FATAL("unknown environment '", name,
               "' (try TS, TS+ASV, TS+ASV+Q+FU, ALL, Baseline, NoVar)");
}

AdaptScheme
parseScheme(const std::string &name)
{
    if (name == "static")
        return AdaptScheme::Static;
    if (name == "fuzzy")
        return AdaptScheme::FuzzyDyn;
    if (name == "exh")
        return AdaptScheme::ExhDyn;
    EVAL_FATAL("unknown scheme '", name, "' (static|fuzzy|exh)");
}

ExperimentConfig
configFrom(const ArgParser &args, int defaultChips)
{
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = static_cast<int>(args.getInt("chips", defaultChips));
    cfg.seed = static_cast<std::uint64_t>(args.getInt("seed", 1));
    RunManifest::global().setSeed(cfg.seed);
    RunManifest::global().setConfig(cfg.fingerprint());
    return cfg;
}

int
cmdChips(const ArgParser &args)
{
    ExperimentConfig cfg = configFrom(args, 8);
    ExperimentContext ctx(cfg);

    TablePrinter table("die ratings");
    table.header({"chip", "baseline (GHz)", "retimed (GHz)",
                  "limiting subsystem"});
    for (int c = 0; c < cfg.chips; ++c) {
        CoreSystemModel &core = ctx.coreModel(c, 0);
        const OperatingConditions corner{
            cfg.process.vddNominal * (1.0 - cfg.process.vddDroopGuardband),
            0.0, cfg.process.tempNominalC};
        std::string limiter;
        double fmin = 1e30;
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            double f = core.subsystem(id).errorModel(false).fvar(corner);
            if (id == SubsystemId::Dcache || id == SubsystemId::Icache)
                f *= kRazorL1Margin;
            if (f < fmin) {
                fmin = f;
                limiter = core.subsystem(id).info().name;
            }
        }
        table.row({std::to_string(c),
                   formatDouble(core.baselineFrequency() / 1e9, 2),
                   formatDouble(retimedFrequency(core) / 1e9, 2),
                   limiter});
    }
    table.print();
    return 0;
}

int
cmdRun(const ArgParser &args)
{
    ExperimentConfig cfg = configFrom(args, 4);
    ExperimentContext ctx(cfg);

    const AppProfile &app =
        appByName(args.getString("app", "swim"));
    const auto chip = static_cast<std::size_t>(args.getInt("chip", 0));
    const auto core = static_cast<std::size_t>(args.getInt("core", 0));
    const EnvironmentKind env =
        parseEnv(args.getString("env", "TS+ASV+Q+FU"));
    const AdaptScheme scheme =
        parseScheme(args.getString("scheme", "fuzzy"));

    const AppRunResult r = ctx.runApp(chip, core, app, env, scheme);
    std::printf("%s on chip %zu core %zu under %s / %s:\n",
                app.name.c_str(), chip, core, environmentName(env),
                adaptSchemeName(scheme));
    std::printf("  frequency   %.2f GHz (%.2fx NoVar)\n",
                r.freqRel * cfg.process.freqNominal / 1e9, r.freqRel);
    std::printf("  performance %.2fx NoVar\n", r.perfRel);
    std::printf("  power       %.1f W (cap %.0f W)\n", r.powerW,
                cfg.constraints.pMaxW);
    std::printf("  error rate  %.2e err/inst (cap %.0e)\n", r.pePerInstr,
                cfg.constraints.peMax);
    for (RetuneOutcome o : r.outcomes)
        std::printf("  controller outcome: %s\n", retuneOutcomeName(o));
    return 0;
}

int
cmdSweep(const ArgParser &args)
{
    ExperimentConfig cfg = configFrom(args, 4);
    ExperimentContext ctx(cfg);
    const auto envNames = splitCsvList(
        args.getString("envs", "TS,TS+ASV,TS+ASV+Q+FU"));

    TablePrinter table("sweep (Fuzzy-Dyn, suite mean)");
    table.header({"environment", "fR", "PerfR", "power (W)"});
    const auto apps = ctx.selectedApps();
    for (const std::string &name : envNames) {
        const EnvironmentKind env = parseEnv(name);
        RunningStats fr, pr, pw;
        for (int chip = 0; chip < cfg.chips; ++chip) {
            for (std::size_t a = 0; a < apps.size(); a += 4) {
                const AppRunResult r = ctx.runApp(
                    chip, (chip + a) % 4, *apps[a], env,
                    AdaptScheme::FuzzyDyn);
                fr.add(r.freqRel);
                pr.add(r.perfRel);
                pw.add(r.powerW);
            }
        }
        table.row({name, formatDouble(fr.mean(), 3),
                   formatDouble(pr.mean(), 3),
                   formatDouble(pw.mean(), 1)});
    }
    table.print();
    return 0;
}

int
cmdRecord(const ArgParser &args)
{
    const AppProfile &app = appByName(args.getString("app", "gcc"));
    const auto ops = static_cast<std::uint64_t>(
        args.getInt("ops", 100000));
    const std::string out = args.getString("out", "trace.trc");
    SyntheticTrace trace(app,
                         static_cast<std::uint64_t>(args.getInt("seed",
                                                                1)));
    const std::uint64_t written = recordTrace(trace, ops, out);
    std::printf("recorded %llu ops of %s into %s\n",
                static_cast<unsigned long long>(written),
                app.name.c_str(), out.c_str());
    return 0;
}

int
cmdReplay(const ArgParser &args)
{
    const std::string path = args.getString("trace", "trace.trc");
    FileTrace trace(path, /*loop=*/true);
    CoreConfig cfg;
    Core core(cfg, static_cast<std::uint64_t>(args.getInt("seed", 1)));
    const auto insts = static_cast<std::uint64_t>(
        args.getInt("insts", 50000));
    const CoreStats s = core.run(trace, insts);
    std::printf("replayed %s: IPC %.2f, CPIcomp %.2f, "
                "L2 misses %.2f/1k inst, branch mpki %.1f\n",
                path.c_str(), s.ipc(), s.cpiComp(),
                1000.0 * s.missesPerInstruction(),
                1000.0 * static_cast<double>(s.branchMispredicts) /
                    static_cast<double>(s.instructions));
    return 0;
}

/** Campaign knobs shared by the fig13 worker/supervisor/monolithic
 *  paths.  Apps are pinned explicitly (not via EVAL_APPS) so every
 *  worker process of a sharded run resolves the same suite. */
CampaignConfig
fig13CampaignFrom(const ArgParser &args)
{
    CampaignConfig campaign;
    campaign.experiment = configFrom(args, 8);
    campaign.experiment.simInsts = static_cast<std::uint64_t>(
        args.getInt("sim-insts",
                    static_cast<std::int64_t>(
                        campaign.experiment.simInsts)));
    campaign.experiment.apps =
        splitCsvList(args.getString("apps", "gzip,swim,applu"));
    campaign.scheme = parseScheme(args.getString("scheme", "fuzzy"));
    if (campaign.scheme == AdaptScheme::Static)
        EVAL_FATAL("fig13 is a dynamic-controller campaign "
                   "(--scheme fuzzy|exh)");
    return campaign;
}

/** fig13's output directory (flag --out). */
std::string
fig13OutDir(const ArgParser &args)
{
    return args.getString("out", "fig13-out");
}

/**
 * fig13 settles who writes what before telemetry starts.  A --shards
 * supervisor (not a --shard=i/N worker) hands the span trace and
 * profile to the fleet merge (which records the merged paths in the
 * manifest); its own near-empty tracer must not clobber them.
 * Returns the outputs handed over.
 */
TelemetryOutputs
settleFig13Telemetry(const ArgParser &args, TelemetryOutputs &telemetry)
{
    TelemetryOutputs fleet;
    if (args.getString("shard", "").empty() &&
        args.getInt("shards", 0) > 0) {
        std::swap(fleet.spans, telemetry.spans);
        std::swap(fleet.profile, telemetry.profile);
    }
    return fleet;
}

int
cmdFig13(const ArgParser &args, const TelemetryOutputs &fleet)
{
    const CampaignConfig campaign = fig13CampaignFrom(args);
    const std::string outDir = fig13OutDir(args);
    const auto checkpointEvery = static_cast<std::uint64_t>(
        args.getInt("checkpoint-every", 16));
    const bool resume = args.getBool("resume", false);
    const std::string shardArg = args.getString("shard", "");

    if (!shardArg.empty()) {
        // Worker mode: one shard of a supervised run.
        ShardWorkerOptions w;
        if (!parseShardSpec(shardArg, w.spec))
            EVAL_FATAL("bad --shard '", shardArg, "' (want i/N)");
        w.campaign = campaign;
        w.outDir = outDir;
        w.checkpointEvery = checkpointEvery;
        w.resume = resume;

        // Crash-injection hook for check.sh --shard-smoke: SIGKILL
        // the selected shard after K chips, before its checkpoint.
        const auto abortAfter = static_cast<std::uint64_t>(
            envInt("EVAL_SHARD_ABORT_AFTER", 0));
        const auto abortShard = static_cast<std::uint64_t>(
            envInt("EVAL_SHARD_ABORT_SHARD", 0));
        if (abortAfter > 0 && abortShard == w.spec.index)
            w.killAfterChips = abortAfter;
        return runShardWorker(w);
    }

    const auto shards =
        static_cast<std::uint32_t>(args.getInt("shards", 0));
    if (shards > 0) {
        ShardSupervisorOptions s;
        s.campaign = campaign;
        s.shards = shards;
        s.outDir = outDir;
        s.checkpointEvery = checkpointEvery;
        s.resume = resume;

        // Fleet telemetry: the span outputs name the MERGED files of
        // a sharded run; the per-shard files live under DIR/trace/.
        if (!fleet.spans.empty() || !fleet.profile.empty()) {
            s.traceSpans = true;
            s.mergedTraceOut = fleet.spans;
            s.fleetProfileOut = fleet.profile;
        }

        if (!args.getBool("in-process", false)) {
            // Re-exec this binary once per shard; the supervisor
            // appends --shard=i/N.  --manifest= keeps workers from
            // fighting over the default manifest path.
            s.workerArgv = {Subprocess::selfExePath(),
                            "fig13",
                            "--chips=" + std::to_string(
                                campaign.experiment.chips),
                            "--seed=" + std::to_string(
                                campaign.experiment.seed),
                            "--sim-insts=" + std::to_string(
                                campaign.experiment.simInsts),
                            "--apps=" + args.getString(
                                "apps", "gzip,swim,applu"),
                            "--scheme=" + args.getString(
                                "scheme", "fuzzy"),
                            "--out=" + outDir,
                            "--checkpoint-every=" + std::to_string(
                                checkpointEvery),
                            "--manifest="};
            if (resume)
                s.workerArgv.push_back("--resume");
        }
        const int rc = runShardSupervisor(s);
        if (rc != 0) {
            warn("fig13 sharded run failed (exit ", rc,
                 "); re-run with --resume to continue from the "
                 "checkpoints");
            return rc;
        }
        std::printf("fig13: %d chips across %u shards -> %s, %s\n",
                    campaign.experiment.chips, shards,
                    mergedSnapshotPath(outDir).c_str(),
                    mergedStatsPath(outDir).c_str());
        return 0;
    }

    // Monolithic reference path: same outputs, no sharding machinery.
    const CampaignAccumulator acc = runMonolithic(campaign);
    if (!writeMergedOutputs(acc, outDir))
        return 1;
    std::printf("fig13: %d chips monolithic -> %s, %s "
                "(digest %.0f)\n",
                campaign.experiment.chips,
                mergedSnapshotPath(outDir).c_str(),
                mergedStatsPath(outDir).c_str(), acc.digest());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: eval_cli <chips|run|sweep|record|replay"
                 "|fig13> "
                 "[--stats-out=FILE] [--trace-out=FILE] "
                 "[--threads=N] [options]\n"
                 "(see the file header for options)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);

    // --threads=N overrides EVAL_THREADS / hardware concurrency (0 =
    // auto); results do not depend on the thread count.
    const std::int64_t threadsArg = args.getInt("threads", 0);
    setGlobalThreads(
        threadsArg > 0 ? static_cast<std::size_t>(threadsArg) : 0);

    // Telemetry flags layered over the EVAL_* variables.
    TelemetryOutputs telemetry = telemetryFromEnv("manifest.json");
    telemetry.stats = args.getString("stats-out", telemetry.stats);
    telemetry.decisions =
        args.getString("trace-out", telemetry.decisions);
    if (args.has("trace-spans"))
        setSpansOutput(telemetry, args.getString("trace-spans", ""));
    telemetry.profile = args.getString("profile-out", telemetry.profile);
    telemetry.manifest = args.getString("manifest", telemetry.manifest);

    // With telemetry outputs but no command, default to `run`.
    const bool observing =
        !telemetry.stats.empty() || !telemetry.decisions.empty() ||
        !telemetry.spans.empty() || !telemetry.profile.empty();
    if (args.positional().empty() && !observing)
        return usage();
    const std::string cmd =
        args.positional().empty() ? "run" : args.positional().front();

    TelemetryOutputs fleet;
    if (cmd == "fig13")
        fleet = settleFig13Telemetry(args, telemetry);
    startTelemetry("eval_cli", telemetry, globalThreads());

    int rc;
    const std::string spanName = "cli." + cmd;
    const std::uint64_t cmdStart = traceNowNs();
    {
        ScopedSpan span(spanName.c_str());
        if (cmd == "chips")
            rc = cmdChips(args);
        else if (cmd == "run")
            rc = cmdRun(args);
        else if (cmd == "sweep")
            rc = cmdSweep(args);
        else if (cmd == "record")
            rc = cmdRecord(args);
        else if (cmd == "replay")
            rc = cmdReplay(args);
        else if (cmd == "fig13")
            rc = cmdFig13(args, fleet);
        else
            return usage();
    }
    finishTelemetry(cmd, static_cast<double>(traceNowNs() - cmdStart) /
                             1e9);

    for (const std::string &key : args.unusedKeys())
        warn("unused option --", key);
    return rc;
}
