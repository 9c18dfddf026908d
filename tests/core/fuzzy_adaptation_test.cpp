/** Tests for the per-chip fuzzy controller system (Sec 4.3.1). */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>

#include <gtest/gtest.h>

#include "core/environment.hh"
#include "power/power_model.hh"
#include "thermal/thermal_model.hh"
#include "util/statistics.hh"
#include "variation/chip.hh"

namespace eval {
namespace {

class FuzzyAdaptationTest : public ::testing::Test
{
  protected:
    static ExperimentContext &
    ctx()
    {
        static ExperimentConfig cfg = [] {
            ExperimentConfig c;
            c.chips = 2;
            c.simInsts = 50000;
            return c;
        }();
        static ExperimentContext context(cfg);
        return context;
    }
};

TEST_F(FuzzyAdaptationTest, TrainsAndPredictsWithinGrid)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx().coreFuzzy(0, 0, caps);
    EXPECT_TRUE(fc.trained());

    const KnobSpace ks = caps.knobSpace();
    FuzzyOptimizer opt(fc);
    CoreSystemModel &core = ctx().coreModel(0, 0);
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const double f = opt.maxFrequency(
            core, id, false, core.subsystem(id).power().alphaRef, 65.0);
        EXPECT_GE(f, ks.freq.lo());
        EXPECT_LE(f, ks.freq.hi());
    }
}

TEST_F(FuzzyAdaptationTest, PredictionsTrackExhaustive)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx().coreFuzzy(0, 1, caps);
    CoreSystemModel &core = ctx().coreModel(0, 1);
    ExhaustiveOptimizer exh(caps, ctx().config().constraints);

    Rng rng(5);
    RunningStats relErr;
    for (int k = 0; k < 40; ++k) {
        const auto id = static_cast<SubsystemId>(
            rng.uniformInt(kNumSubsystems));
        const double th = rng.uniform(48.0, 70.0);
        const double a = core.subsystem(id).power().alphaRef *
                         rng.uniform(0.3, 1.8);
        const double fe = exh.maxFrequency(core, id, false, a, th);
        const double ff = fc.predictFmax(id, th, a, false);
        if (fe > 0.0)
            relErr.add(std::abs(ff - fe) / fe);
    }
    // Paper Table 2 reports ~4%; allow slack for smaller training sets.
    EXPECT_LT(relErr.mean(), 0.06);
}

TEST_F(FuzzyAdaptationTest, VddPredictionsQuantizedAndBounded)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    FuzzyOptimizer opt(ctx().coreFuzzy(1, 0, caps));
    CoreSystemModel &core = ctx().coreModel(1, 0);
    const KnobSpace ks = caps.knobSpace();

    for (double fcore : {2.5e9, 3.2e9, 4.0e9}) {
        const auto k = opt.minimizePower(core, SubsystemId::Dcache, false,
                                         fcore, 0.3, 65.0);
        ASSERT_TRUE(k.has_value());
        EXPECT_GE(k->vdd, ks.vdd.lo());
        EXPECT_LE(k->vdd, ks.vdd.hi());
        EXPECT_NEAR(k->vdd, ks.vdd.quantize(k->vdd), 1e-12);
        EXPECT_DOUBLE_EQ(k->vbb, 0.0);   // no ABB in this environment
    }
}

TEST_F(FuzzyAdaptationTest, AbbEnvironmentProducesBiases)
{
    const EnvCapabilities caps =
        environmentCaps(EnvironmentKind::TS_ASV_ABB);
    FuzzyOptimizer opt(ctx().coreFuzzy(1, 1, caps));
    CoreSystemModel &core = ctx().coreModel(1, 1);
    const KnobSpace ks = caps.knobSpace();
    const auto k = opt.minimizePower(core, SubsystemId::IntQ, false,
                                     3.0e9, 0.5, 65.0);
    ASSERT_TRUE(k.has_value());
    EXPECT_GE(k->vbb, ks.vbb.lo());
    EXPECT_LE(k->vbb, ks.vbb.hi());
}

TEST_F(FuzzyAdaptationTest, HigherActivityLowersPredictedFmax)
{
    const EnvCapabilities caps = environmentCaps(EnvironmentKind::TS_ASV);
    const CoreFuzzySystem &fc = ctx().coreFuzzy(0, 0, caps);
    // Hotter (more active) subsystems can sustain less frequency; the
    // controller must have learned the trend.
    const SubsystemId id = SubsystemId::IntALU;
    const double lo = fc.predictFmax(id, 65.0, 0.2, false);
    const double hi = fc.predictFmax(id, 65.0, 1.1, false);
    EXPECT_GE(lo, hi * 0.98);
}

/** FNV-1a over the bit patterns of a stream of doubles. */
struct BitHash
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    void
    add(double v)
    {
        const auto bits = std::bit_cast<std::uint64_t>(v);
        for (int b = 0; b < 64; b += 8) {
            h ^= (bits >> b) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

// Pins the trained controllers byte for byte: the label search may get
// faster, but every label (and so every fitted weight) must stay the
// same.  One seeded chip core is trained for each ASV/ABB combination,
// and every Freq and Power controller of all subsystems is queried
// over a fixed input grid.  A changed constant means a changed label,
// a changed draw order or a changed fit.
TEST(FuzzyTrainingPin, ControllersBitIdentical)
{
    const ProcessParams params;
    const auto power = calibratePower(params, PowerCalibration{});
    const auto thermal = std::make_shared<ThermalModel>(params);
    const ChipFactory factory(params, 0x70696e);
    const Chip chip = factory.manufactureAt(3);
    const CoreSystemModel core(chip, 1, power, PowerCalibration{},
                               thermal);

    BitHash hash;
    for (int knobBits = 0; knobBits < 4; ++knobBits) {
        EnvCapabilities caps;
        caps.timingSpec = true;
        caps.asv = (knobBits & 1) != 0;
        caps.abb = (knobBits & 2) != 0;
        const KnobSpace ks = caps.knobSpace();
        CoreFuzzySystem fc(core, caps, Constraints{}, FuzzyTrainingConfig{});
        fc.train();
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            const SubsystemModel &sub = core.subsystem(id);
            for (bool alt : {false, true}) {
                if (alt && !sub.hasAlternate())
                    continue;
                for (double thC : {45.0, 57.5, 70.0}) {
                    for (double a : {0.2, 1.0, 1.9}) {
                        const double alphaF = sub.power().alphaRef * a;
                        hash.add(fc.predictFmax(id, thC, alphaF, alt));
                        if (!caps.asv && !caps.abb)
                            continue;
                        for (double fcore :
                             {ks.freq.lo(), 0.5 * (ks.freq.lo() +
                                                   ks.freq.hi()),
                              ks.freq.hi()}) {
                            const SubsystemKnobs k = fc.predictKnobs(
                                id, thC, alphaF, alt, fcore);
                            hash.add(k.vdd);
                            hash.add(k.vbb);
                        }
                    }
                }
            }
        }
    }
    std::printf("[pin] controller hash 0x%016llx\n",
                static_cast<unsigned long long>(hash.h));
    EXPECT_EQ(hash.h, 0x7009e3e8a18b9747ull);
}

} // namespace
} // namespace eval
