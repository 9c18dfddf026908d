/**
 * @file
 * The microbench harness.  Per-kernel latencies for the simulation
 * inner loop (the PE(f) evaluation, the alpha-power delay scale, the
 * max-frequency-for-budget query, the thermal fixed-point solve, the
 * whole-core evaluation, the path-population build), for the
 * controller (one fuzzy inference, and a full controller invocation
 * by the fuzzy controllers and by exhaustive search: the paper's
 * ~6 us claim, Sec 4.3.3), for the front end (trace generation, core
 * simulation, a cold characterization probe, chip manufacture), and
 * for the instrumentation
 * primitives (a contended Counter::inc, a disabled/enabled ScopedSpan).
 *
 * Every metric lands in the BENCH_JSON footer so benchtrack can track
 * the per-kernel trajectory alongside the end-to-end figure benches.
 * The grids are fixed (no EVAL_FAST scaling) so runs are comparable
 * across machines and history entries.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hh"

using namespace eval;

namespace {

using Clock = std::chrono::steady_clock;

/** Run @p body @p iters times and return the mean latency in ns. */
template <typename Fn>
double
nsPerCall(std::size_t iters, Fn &&body)
{
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iters; ++i)
        body(i);
    const auto t1 = Clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    return ns / static_cast<double>(iters);
}

/** nsPerCall with @p threads threads running @p body concurrently:
 *  wall ns per call as each thread sees it (the contended cost). */
template <typename Fn>
double
nsPerCallThreaded(std::size_t threads, std::size_t iters, Fn &&body)
{
    const auto t0 = Clock::now();
    {
        std::vector<std::jthread> workers; // joined on scope exit
        for (std::size_t t = 0; t < threads; ++t) {
            workers.emplace_back([&] {
                for (std::size_t i = 0; i < iters; ++i)
                    body(i);
            });
        }
    }
    const auto t1 = Clock::now();
    const double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    return ns / static_cast<double>(iters);
}

/** Defeats dead-code elimination across timed sections. */
volatile double g_sink = 0.0;

} // namespace

int
main()
{
    BenchReporter reporter("inner_loop");
    ExperimentConfig cfg = ExperimentConfig::fromEnv();
    cfg.chips = 1;
    const ProcessParams proc = cfg.process;
    ChipFactory factory(proc, cfg.seed);
    const Chip chip = factory.manufacture();

    Rng rng = chip.forkRng(0x1007);
    StageErrorModel logic(
        proc, buildPathPopulation(chip, 0, SubsystemId::Decode,
                                  PathPopulationParams{}, rng));
    StageErrorModel memory(
        proc, buildPathPopulation(chip, 0, SubsystemId::Dcache,
                                  PathPopulationParams{}, rng));

    // Operating-condition grid shaped like an optimizer sweep: every
    // knob-grid Vdd, a band of temperatures, and a band of periods
    // around nominal: 64 x 9 x 5 = 2880 distinct points.
    const double tNom = 1.0 / proc.freqNominal;
    std::vector<double> periods, vdds, temps;
    for (int i = 0; i < 64; ++i)
        periods.push_back(tNom * (0.70 + 0.01 * i));
    for (int i = 0; i < 9; ++i)
        vdds.push_back(0.80 + 0.05 * i);
    for (int i = 0; i < 5; ++i)
        temps.push_back(45.0 + 15.0 * i);
    std::vector<OperatingConditions> ops;
    ops.reserve(vdds.size() * temps.size());
    for (double v : vdds)
        for (double t : temps)
            ops.push_back({v, 0.0, t});

    double sink = 0.0;

    // --- PE(f) evaluation.  Alternate logic/memory stages like real
    // sweeps do.
    {
        const std::size_t n = periods.size() * ops.size();
        const double ns = nsPerCall(2 * n, [&](std::size_t i) {
            const StageErrorModel &m = (i & 1) ? memory : logic;
            const double p = periods[i % periods.size()];
            sink += m.errorRatePerAccess(p, ops[(i / 2) % ops.size()]);
        });
        reporter.metric("pe_eval_exact_ns", ns);
        std::printf("pe_eval_exact        %10.1f ns/eval\n", ns);
    }

    // --- Alpha-power delay scale (the per-condition scale factor
    // behind every PE query and fvar).
    {
        const double ns = nsPerCall(200000, [&](std::size_t i) {
            sink += logic.delayScale(ops[i % ops.size()]);
        });
        reporter.metric("delay_scale_ns", ns);
        std::printf("delay_scale          %10.1f ns/eval\n", ns);
    }

    // --- Max frequency for an error budget (the Freq algorithm's
    // inner query; hits the breakpoint walk).
    {
        const double budgets[] = {0.0, 1e-6, 1e-4, 1e-2};
        const double ns = nsPerCall(100000, [&](std::size_t i) {
            const StageErrorModel &m = (i & 1) ? memory : logic;
            sink += m.maxFrequencyForErrorRate(budgets[i % 4],
                                               ops[i % ops.size()]);
        });
        reporter.metric("max_freq_query_ns", ns);
        std::printf("max_freq_query       %10.1f ns/eval\n", ns);
    }

    // --- Thermal fixed-point solve (one subsystem: the full Eq 6-9
    // iteration).
    const auto power = calibratePower(proc, cfg.powerCal);
    const auto thermal = std::make_shared<const ThermalModel>(proc);
    {
        const auto &pp = power[static_cast<std::size_t>(SubsystemId::IntALU)];
        const double ns = nsPerCall(100000, [&](std::size_t i) {
            const double vdd = vdds[i % vdds.size()];
            const double freq = (3.0 + 0.001 * (i % 1000)) * 1e9;
            const SubsystemThermalState st = thermal->solveSubsystem(
                pp, SubsystemId::IntALU, proc.vtMean, vdd, 0.0, freq,
                0.8, 45.0 + (i % 7));
            sink += st.tempC + st.power();
        });
        reporter.metric("thermal_solve_ns", ns);
        std::printf("thermal_solve        %10.1f ns/solve\n", ns);
    }

    // --- Batched thermal solve: all 15 subsystems of a core in one
    // lockstep call, reported per lane.
    {
        std::array<SubsystemThermalRequest, kNumSubsystems> reqs;
        std::array<SubsystemThermalState, kNumSubsystems> out;
        for (std::size_t s = 0; s < kNumSubsystems; ++s) {
            reqs[s].power = power[s];
            reqs[s].id = static_cast<SubsystemId>(s);
            reqs[s].vt0 = proc.vtMean;
            reqs[s].vdd = 1.0;
            reqs[s].vbb = 0.0;
            reqs[s].freqHz = 3.5e9;
            reqs[s].alphaF = 0.8;
        }
        const double ns = nsPerCall(20000, [&](std::size_t i) {
            reqs[i % kNumSubsystems].vdd = vdds[i % vdds.size()];
            thermal->solveMany(reqs.data(), out.data(), kNumSubsystems,
                               45.0 + (i % 7));
            sink += out[i % kNumSubsystems].tempC;
        });
        reporter.metric("thermal_batch_lane_ns",
                        ns / static_cast<double>(kNumSubsystems));
        std::printf("thermal_batch_lane   %10.1f ns/lane\n",
                    ns / static_cast<double>(kNumSubsystems));
    }

    // --- Whole-core evaluation (15 subsystems: thermal + PE + power),
    // the optimizer's candidate-cost unit.
    {
        CoreSystemModel core(chip, 0, power, cfg.powerCal, thermal);
        const OperatingPoint op = nominalOperatingPoint(proc);
        ActivityVector act;
        for (std::size_t s = 0; s < kNumSubsystems; ++s) {
            act.alpha[s] = 0.5;
            act.rho[s] = 0.4;
        }
        const double us = 1e-3 * nsPerCall(2000, [&](std::size_t i) {
            const CoreEvaluation ev =
                core.evaluate(op, act, 42.0 + 0.01 * (i % 256));
            sink += ev.totalPowerW + ev.pePerInstruction;
        });
        reporter.metric("core_evaluate_us", us);
        std::printf("core_evaluate        %10.2f us/eval\n", us);
    }

    // --- Path-population build (manufacturing-time cost; dominated by
    // the per-path alpha-power corner delay).
    {
        const double us = 1e-3 * nsPerCall(200, [&](std::size_t i) {
            Rng r = chip.forkRng(0x2000 + i);
            const PathPopulation pop = buildPathPopulation(
                chip, 0, SubsystemId::Icache, PathPopulationParams{}, r);
            sink += pop.paths.back().delayRef;
        });
        reporter.metric("path_build_us", us);
        std::printf("path_build           %10.2f us/build\n", us);
    }

    // --- Controller invocation cost (Sec 4.3.3).  A one-chip context
    // trains the fuzzy controllers and characterizes swim outside the
    // timed sections.
    cfg.simInsts = 60000;
    ExperimentContext ctx(cfg);
    const PhaseCharacterization &swim =
        ctx.characterizations().get(appByName("swim")).phases[0].chr;
    CoreSystemModel &ctxCore = ctx.coreModel(0, 0);
    ctxCore.setAppType(true);
    {
        const CoreFuzzySystem &fc = ctx.coreFuzzy(
            0, 0, environmentCaps(EnvironmentKind::TS_ASV));
        const double ns = nsPerCall(100000, [&](std::size_t i) {
            sink += fc.predictFmax(SubsystemId::Icache,
                                   60.0 + 0.01 * (i % 512), 0.3, false);
        });
        reporter.metric("fuzzy_inference_ns", ns);
        std::printf("fuzzy_inference      %10.1f ns/eval\n", ns);
    }
    const EnvCapabilities fullCaps =
        environmentCaps(EnvironmentKind::TS_ASV_Q_FU);
    {
        // One full controller pass over all subsystems (Freq + Power
        // algorithms via the FCs): the "6 us on a 4 GHz processor"
        // claim.
        FuzzyOptimizer fuzzy(ctx.coreFuzzy(0, 0, fullCaps));
        CoreOptimizer opt(fuzzy, fullCaps, cfg.constraints, cfg.recovery);
        const double us = 1e-3 * nsPerCall(2000, [&](std::size_t) {
            sink += opt.choose(ctxCore, swim, 65.0).op.freq;
        });
        reporter.metric("fuzzy_invocation_us", us);
        std::printf("fuzzy_invocation     %10.2f us/call\n", us);
    }
    {
        // What the controller replaces: the same decision by
        // exhaustive search (Sec 4.3.1).
        ExhaustiveOptimizer exh(fullCaps, cfg.constraints);
        CoreOptimizer opt(exh, fullCaps, cfg.constraints, cfg.recovery);
        const double us = 1e-3 * nsPerCall(20, [&](std::size_t) {
            sink += opt.choose(ctxCore, swim, 65.0).op.freq;
        });
        reporter.metric("exhaustive_invocation_us", us);
        std::printf("exhaustive_invocation%10.2f us/call\n", us);
    }

    // --- Front end: synthetic trace generation, core simulation
    // (10k-instruction runs on a warm core, and a cold probe) and chip
    // manufacture.
    {
        SyntheticTrace trace(appByName("gcc"), 1);
        MicroOp op;
        const double ns = nsPerCall(500000, [&](std::size_t) {
            trace.next(op);
            sink += static_cast<double>(op.pc);
        });
        reporter.metric("trace_gen_ns", ns);
        std::printf("trace_gen            %10.1f ns/op\n", ns);
    }
    {
        Core core(CoreConfig{}, 1);
        SyntheticTrace trace(appByName("gzip"), 1);
        core.run(trace, 50000);
        const double ns = 1e-4 * nsPerCall(50, [&](std::size_t) {
            sink += static_cast<double>(core.run(trace, 10000).cycles);
        });
        reporter.metric("core_sim_ns_per_inst", ns);
        std::printf("core_sim             %10.1f ns/inst\n", ns);
    }
    {
        // A cold, characterization-shaped probe: a fresh core on mcf's
        // first phase (the longest probe), a 60k-instruction warm-up
        // and a 60k measured run, as CharacterizationCache runs it.
        const AppProfile &mcf = appByName("mcf");
        const double ms = 1e-6 * nsPerCall(5, [&](std::size_t i) {
            SyntheticTrace trace(mcf, 1 + i);
            trace.pinPhase(0);
            Core core(CoreConfig{}, 1 + i);
            core.run(trace, 60000);
            sink += static_cast<double>(core.run(trace, 60000).cycles);
        });
        reporter.metric("characterize_probe_ms", ms);
        std::printf("characterize_probe   %10.2f ms/probe\n", ms);
    }
    {
        ChipFactory mfg(proc, 9);
        const double ms = 1e-6 * nsPerCall(10, [&](std::size_t) {
            sink += static_cast<double>(mfg.manufacture().id());
        });
        reporter.metric("chip_manufacture_ms", ms);
        std::printf("chip_manufacture     %10.2f ms/chip\n", ms);
    }

    // --- Instrumentation primitives.  Parallel per-chip tasks bump
    // shared counters, so the relaxed fetch_add must stay cheap with
    // four threads on one cache line.
    {
        Counter &counter =
            StatRegistry::global().counter("microbench.contended");
        const auto inc = [&](std::size_t) { counter.inc(); };
        const double ns1 = nsPerCallThreaded(1, 1000000, inc);
        const double ns4 = nsPerCallThreaded(4, 1000000, inc);
        reporter.metric("counter_inc_ns", ns1);
        reporter.metric("counter_inc_4t_ns", ns4);
        std::printf("counter_inc          %10.1f ns/inc (4 threads: "
                    "%.1f)\n", ns1, ns4);
    }
    {
        // Disabled: one relaxed load, no clock read or allocation (the
        // cost every instrumented site pays without --trace-spans).
        // Enabled: two clock reads and an append to the thread's own
        // ring; args add string formatting.  The tracer's prior state
        // is restored, and its buffers are cleared only when it was
        // off, so a traced bench run keeps its own spans.
        SpanTracer &tracer = SpanTracer::global();
        const bool wasTracing = tracer.enabled();
        tracer.setEnabled(false);
        const double off = nsPerCall(1000000, [&](std::size_t) {
            ScopedSpan span("microbench.disabled");
        });
        tracer.setEnabled(true);
        const double on = nsPerCall(100000, [&](std::size_t) {
            ScopedSpan span("microbench.enabled");
        });
        const double withArgs = nsPerCall(100000, [&](std::size_t i) {
            ScopedSpan span("microbench.enabled_args");
            span.arg("index", i);
            span.arg("ratio", 0.5);
        });
        tracer.setEnabled(wasTracing);
        if (!wasTracing)
            tracer.clear();
        reporter.metric("span_disabled_ns", off);
        reporter.metric("span_enabled_ns", on);
        reporter.metric("span_enabled_args_ns", withArgs);
        std::printf("span_disabled        %10.1f ns/span\n", off);
        std::printf("span_enabled         %10.1f ns/span\n", on);
        std::printf("span_enabled_args    %10.1f ns/span\n", withArgs);
    }

    g_sink = sink;
    return 0;
}
