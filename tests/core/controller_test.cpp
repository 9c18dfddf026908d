/** Tests for retuning cycles, the dynamic controller, and Static. */

#include <gtest/gtest.h>

#include "core/environment.hh"
#include "stats/stats.hh"

namespace eval {
namespace {

struct Fixture
{
    ExperimentConfig cfg;
    std::unique_ptr<ExperimentContext> ctx;
    EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);

    Fixture()
    {
        cfg.chips = 2;
        ctx = std::make_unique<ExperimentContext>(cfg);
    }

    CoreSystemModel &core() { return ctx->coreModel(0, 0); }

    PhaseCharacterization
    phase(const std::string &app, std::size_t idx = 0)
    {
        return ctx->characterizations().get(appByName(app))
            .phases[idx].chr;
    }
};

TEST(Retuning, TooAggressiveConfigIsThrottled)
{
    Fixture f;
    RetuningController ret(f.cfg.constraints, f.caps.knobSpace(), true);
    const PhaseCharacterization ph = f.phase("gzip");

    OperatingPoint op = nominalOperatingPoint(f.cfg.process);
    op.freq = 5.6e9;   // far beyond feasible at nominal voltage
    const RetuneResult res = ret.retune(f.core(), op, ph.act, 65.0);
    EXPECT_EQ(res.outcome, RetuneOutcome::Error);
    EXPECT_LT(res.op.freq, 5.6e9);
    EXPECT_GT(res.steps, 0u);
    EXPECT_TRUE(res.eval.meets(f.cfg.constraints));
}

TEST(Retuning, ConservativeConfigIsRampedUp)
{
    Fixture f;
    RetuningController ret(f.cfg.constraints, f.caps.knobSpace(), true);
    const PhaseCharacterization ph = f.phase("gzip");

    OperatingPoint op = nominalOperatingPoint(f.cfg.process);
    op.freq = 2.4e9;   // far below what the chip can do
    const RetuneResult res = ret.retune(f.core(), op, ph.act, 65.0);
    EXPECT_EQ(res.outcome, RetuneOutcome::LowFreq);
    EXPECT_GT(res.op.freq, 2.4e9);
    EXPECT_TRUE(res.eval.meets(f.cfg.constraints));
}

TEST(Retuning, FinalConfigurationAlwaysMeetsConstraints)
{
    Fixture f;
    RetuningController ret(f.cfg.constraints, f.caps.knobSpace(), true);
    const PhaseCharacterization ph = f.phase("mcf");
    for (double freq : {2.4e9, 3.2e9, 4.0e9, 4.8e9, 5.6e9}) {
        OperatingPoint op = nominalOperatingPoint(f.cfg.process);
        op.freq = freq;
        const RetuneResult res = ret.retune(f.core(), op, ph.act, 65.0);
        EXPECT_TRUE(res.eval.meets(f.cfg.constraints)) << freq;
        const double sensed =
            ret.sensedPower(f.core(), res.eval, res.op.freq);
        EXPECT_LE(sensed, f.cfg.constraints.pMaxW + 1e-9) << freq;
    }
}

TEST(Retuning, ConvergesToSameFrequencyFromBothSides)
{
    // The retuned frequency is the top of the feasible band, so it
    // should not depend on whether we started too high or too low.
    Fixture f;
    RetuningController ret(f.cfg.constraints, f.caps.knobSpace(), true);
    const PhaseCharacterization ph = f.phase("gzip");

    OperatingPoint lo = nominalOperatingPoint(f.cfg.process);
    lo.freq = 2.4e9;
    OperatingPoint hi = lo;
    hi.freq = 5.6e9;
    const RetuneResult fromLo = ret.retune(f.core(), lo, ph.act, 65.0);
    const RetuneResult fromHi = ret.retune(f.core(), hi, ph.act, 65.0);
    EXPECT_NEAR(fromLo.op.freq, fromHi.op.freq, 0.101e9);
}

TEST(DynamicController, SavedConfigurationReused)
{
    Fixture f;
    ExhaustiveOptimizer exh(f.caps, f.cfg.constraints);
    DynamicController ctl(exh, f.caps, f.cfg.constraints, f.cfg.recovery);
    const PhaseCharacterization ph = f.phase("gzip");
    f.core().setAppType(false);

    const PhaseAdaptation first = ctl.adaptPhase(f.core(), 0, ph, 65.0);
    EXPECT_FALSE(first.reusedSaved);
    const PhaseAdaptation second = ctl.adaptPhase(f.core(), 0, ph, 65.0);
    EXPECT_TRUE(second.reusedSaved);
    EXPECT_NEAR(second.op.freq, first.op.freq, 0.101e9);

    ctl.invalidateSaved();
    const PhaseAdaptation third = ctl.adaptPhase(f.core(), 0, ph, 65.0);
    EXPECT_FALSE(third.reusedSaved);
}

TEST(DynamicController, DistinctPhasesTrackedSeparately)
{
    Fixture f;
    ExhaustiveOptimizer exh(f.caps, f.cfg.constraints);
    DynamicController ctl(exh, f.caps, f.cfg.constraints, f.cfg.recovery);
    f.core().setAppType(false);

    const PhaseAdaptation a = ctl.adaptPhase(f.core(), 0,
                                             f.phase("gcc", 0), 65.0);
    const PhaseAdaptation b = ctl.adaptPhase(f.core(), 1,
                                             f.phase("gcc", 1), 65.0);
    EXPECT_FALSE(a.reusedSaved);
    EXPECT_FALSE(b.reusedSaved);
}

TEST(DynamicController, ExhaustiveChoiceNeedsLittleRetuning)
{
    Fixture f;
    ExhaustiveOptimizer exh(f.caps, f.cfg.constraints);
    DynamicController ctl(exh, f.caps, f.cfg.constraints, f.cfg.recovery);
    f.core().setAppType(false);
    const PhaseAdaptation res = ctl.adaptPhase(f.core(), 0,
                                               f.phase("gzip"), 65.0);
    // The exhaustive pick is near-optimal: few single-step moves.
    EXPECT_LE(res.retuneSteps, 4u);
}

TEST(DynamicController, TracedRunRecordsOneDecisionPerPhase)
{
    Fixture f;
    ExhaustiveOptimizer exh(f.caps, f.cfg.constraints);
    DynamicController ctl(exh, f.caps, f.cfg.constraints, f.cfg.recovery);
    f.core().setAppType(false);

    DecisionTrace &trace = DecisionTrace::global();
    trace.clear();
    trace.setEnabled(true);

    const std::size_t phases = 3;
    for (std::size_t p = 0; p < phases; ++p)
        ctl.adaptPhase(f.core(), p, f.phase("gcc", p % 2), 65.0);
    // Re-adapting a known phase reuses the saved config; that reuse is
    // a decision too and must be traced.
    ctl.adaptPhase(f.core(), 0, f.phase("gcc", 0), 65.0);

    trace.setEnabled(false);
    ASSERT_EQ(trace.size(), phases + 1);
    for (std::size_t i = 0; i < phases; ++i) {
        EXPECT_FALSE(trace.at(i).reusedSaved) << i;
        EXPECT_EQ(trace.at(i).phaseId, i);
        EXPECT_GT(trace.at(i).freqHz, 0.0);
        EXPECT_FALSE(trace.at(i).outcome.empty());
    }
    EXPECT_TRUE(trace.at(phases).reusedSaved);
    trace.clear();
}

TEST(DynamicController, Fig13DecisionsCarryTheirChipAndCore)
{
    // chipOutcomes must stamp each app's own (chip, core) on its
    // traced decisions, not whatever an earlier runManaged left in
    // this thread's trace context.
    ExperimentConfig cfg;
    cfg.chips = 2;
    cfg.apps = {"gzip"};
    cfg.simInsts = 20000;
    ExperimentContext ctx(cfg);
    ctx.runApp(0, 0, appByName("gzip"), EnvironmentKind::TS_ASV,
               AdaptScheme::ExhDyn);

    DecisionTrace &trace = DecisionTrace::global();
    trace.clear();
    trace.setEnabled(true);
    const std::size_t chip = 1;
    chipOutcomes(ctx, chip, environmentCaps(EnvironmentKind::TS_ASV),
                 AdaptScheme::ExhDyn);
    trace.setEnabled(false);

    ASSERT_GT(trace.size(), 0u);
    const std::size_t a = 0; // gzip, the only selected app
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(trace.at(i).chip, static_cast<int>(chip)) << i;
        EXPECT_EQ(trace.at(i).core, static_cast<int>((chip + a) % 4))
            << i;
    }
    trace.clear();
}

TEST(StaticQualifier, ConfigurationSafeUnderStress)
{
    Fixture f;
    ExhaustiveOptimizer exh(f.caps, f.cfg.constraints);
    StaticQualifier q(exh, f.caps, f.cfg.constraints, f.cfg.recovery);
    const PhaseCharacterization stress = stressCharacterization(
        f.ctx->powerParams(), f.cfg.recovery, f.cfg.process.freqNominal);

    const OperatingPoint op = q.qualify(f.core(), stress,
                                        f.cfg.constraints.thMaxC);
    const CoreEvaluation ev = f.core().evaluate(op, stress.act,
                                                f.cfg.constraints.thMaxC);
    EXPECT_TRUE(ev.meets(f.cfg.constraints));
}

TEST(Timeline, OverheadIsSmall)
{
    TimelineParams tl;
    // One adaptation with a handful of retuning steps costs well under
    // 0.1% of a 120ms phase (Sec 4.3.3).
    EXPECT_LT(tl.overheadFraction(8), 1e-3);
    EXPECT_GT(tl.overheadFraction(8), 0.0);
    EXPECT_GT(tl.overheadFraction(100), tl.overheadFraction(0));
}

TEST(Outcomes, NamesAreStable)
{
    EXPECT_STREQ(retuneOutcomeName(RetuneOutcome::NoChange), "NoChange");
    EXPECT_STREQ(retuneOutcomeName(RetuneOutcome::LowFreq), "LowFreq");
    EXPECT_STREQ(retuneOutcomeName(RetuneOutcome::Error), "Error");
    EXPECT_STREQ(retuneOutcomeName(RetuneOutcome::Temp), "Temp");
    EXPECT_STREQ(retuneOutcomeName(RetuneOutcome::Power), "Power");
}

} // namespace
} // namespace eval
