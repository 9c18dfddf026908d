/**
 * Kernel-layer equivalence suite: every fast path in src/kernels/
 * must be bit-identical to the legacy expression it replaced
 * (scaleExact, upperBoundIndex, lockstep thermal solves, the SoA
 * corner-delay pass), and the exposed first thermal iterate must bound
 * the solve it is taken from.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/subsystem_model.hh"
#include "kernels/alpha_power.hh"
#include "kernels/path_soa.hh"
#include "kernels/pe_surface.hh"
#include "kernels/thermal_batch.hh"
#include "power/knobs.hh"
#include "power/power_model.hh"
#include "thermal/thermal_model.hh"
#include "timing/error_model.hh"
#include "timing/path_population.hh"
#include "variation/chip.hh"

namespace eval {
namespace {

struct Fixture
{
    ProcessParams params;
    ChipFactory factory{params, 77};
    Chip chip{factory.manufacture()};
};

StageErrorModel
makeModel(const Fixture &f, SubsystemId id)
{
    Rng rng = f.chip.forkRng(0x5150 +
                             static_cast<std::uint64_t>(id) * 13);
    return StageErrorModel(
        f.params, buildPathPopulation(f.chip, 0, id, {}, rng));
}

// ---------------------------------------------------------------------------
// PeSurface
// ---------------------------------------------------------------------------

TEST(PeSurface, UpperBoundIndexMatchesStdUpperBound)
{
    Fixture f;
    const StageErrorModel model = makeModel(f, SubsystemId::Icache);
    const PeSurface &s = model.surface();
    const std::vector<double> &d = s.delays();
    ASSERT_FALSE(d.empty());

    auto expected = [&d](double t) {
        return static_cast<std::size_t>(
            std::upper_bound(d.begin(), d.end(), t) - d.begin());
    };
    // Dense thresholds spanning below the fastest path to beyond the
    // slowest, plus the exact delay values themselves (tie sites the
    // bucket scan must handle identically).
    const double lo = 0.5 * d.front();
    const double hi = 1.5 * d.back();
    for (int i = 0; i <= 20000; ++i) {
        const double t = lo + (hi - lo) * i / 20000.0;
        ASSERT_EQ(s.upperBoundIndex(t), expected(t)) << "t=" << t;
    }
    for (double t : d)
        ASSERT_EQ(s.upperBoundIndex(t), expected(t)) << "t=" << t;
}

TEST(PeSurface, FirstIndexWithinBudgetMatchesLinearWalk)
{
    Fixture f;
    const StageErrorModel model = makeModel(f, SubsystemId::Decode);
    const PeSurface &s = model.surface();
    const std::size_t n = s.numPaths();

    auto walk = [&s, n](double budget) {
        // Legacy semantics: walk from the slowest path down while the
        // PE of letting one more path fail stays within budget (ties
        // keep walking).
        std::size_t i = n;
        while (i > 0 && s.level(i - 1) <= budget)
            --i;
        return i;
    };
    std::vector<double> budgets{0.0, 1e-12, 1e-8, 1e-6, 1e-4,
                                1e-2, 0.5, 1.0};
    for (std::size_t k = 0; k < n; k += n / 37 + 1) {
        budgets.push_back(s.level(k));           // exact boundary ties
        budgets.push_back(s.level(k) * (1.0 - 1e-12));
    }
    for (double b : budgets)
        EXPECT_EQ(s.firstIndexWithinBudget(b), walk(b)) << "budget=" << b;
}

TEST(PeSurface, ExactScaleBacksDelayScale)
{
    Fixture f;
    const StageErrorModel model = makeModel(f, SubsystemId::Dcache);
    for (double vdd : {0.8, 1.0, 1.15}) {
        const OperatingConditions op{vdd, 0.05, 90.0};
        EXPECT_EQ(model.delayScale(op), model.surface().scaleExact(op));
    }
}

// ---------------------------------------------------------------------------
// SoA corner-delay kernel
// ---------------------------------------------------------------------------

TEST(PathSoA, CornerPathDelaysMatchScalarLoopBitwise)
{
    ProcessParams p;
    const OperatingConditions corner{p.vddNominal, 0.0, p.tempNominalC};
    const double tNom = 1.0 / p.freqNominal;
    const std::size_t n = 257;   // odd size exercises the loop tail

    std::vector<double> fraction(n), vt0(n), leff(n), got(n);
    for (std::size_t i = 0; i < n; ++i) {
        // Deterministic spread around the nominal point.
        const double u = static_cast<double>(i) / (n - 1);
        fraction[i] = 0.3 + 0.7 * u;
        vt0[i] = p.vtMean * (0.85 + 0.3 * u);
        leff[i] = 0.9 + 0.2 * (1.0 - u);
    }
    cornerPathDelays(p, tNom, fraction.data(), vt0.data(), leff.data(),
                     got.data(), n);
    for (std::size_t i = 0; i < n; ++i) {
        const double want =
            fraction[i] * tNom * gateDelayFactor(p, vt0[i], leff[i], corner);
        ASSERT_EQ(got[i], want) << "i=" << i;
    }
}

// ---------------------------------------------------------------------------
// Batched thermal solves
// ---------------------------------------------------------------------------

std::vector<SubsystemThermalRequest>
makeRequests(const ProcessParams &p)
{
    std::vector<SubsystemThermalRequest> reqs;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        SubsystemThermalRequest r;
        r.id = static_cast<SubsystemId>(i);
        r.power.kdyn = 2.0e-10 * (1.0 + 0.1 * i);
        r.power.ksta = 4.0e-8 * (1.0 + 0.05 * i);
        r.vt0 = p.vtMean * (0.9 + 0.02 * i);
        r.vdd = 0.9 + 0.02 * (i % 5);
        r.vbb = -0.1 + 0.05 * (i % 4);
        r.freqHz = p.freqNominal * (0.8 + 0.03 * i);
        r.alphaF = 0.2 + 0.05 * (i % 3);
        reqs.push_back(r);
    }
    return reqs;
}

TEST(ThermalBatch, LockstepBatchMatchesScalarBitwise)
{
    ProcessParams p;
    ThermalModel model(p);
    const auto reqs = makeRequests(p);
    const double thC = 55.0;

    std::vector<SubsystemThermalState> batch(reqs.size());
    model.solveMany(reqs.data(), batch.data(), reqs.size(), thC);
    for (std::size_t i = 0; i < reqs.size(); ++i) {
        const auto &r = reqs[i];
        const SubsystemThermalState one = model.solveSubsystem(
            r.power, r.id, r.vt0, r.vdd, r.vbb, r.freqHz, r.alphaF, thC);
        ASSERT_EQ(batch[i].tempC, one.tempC) << "i=" << i;
        ASSERT_EQ(batch[i].pdyn, one.pdyn) << "i=" << i;
        ASSERT_EQ(batch[i].psta, one.psta) << "i=" << i;
        ASSERT_EQ(batch[i].vtEff, one.vtEff) << "i=" << i;
        ASSERT_EQ(batch[i].runaway, one.runaway) << "i=" << i;
    }
}

// The optimizer rejects settings on the solver's first iterate
// (thermalFirstIterate) before paying for a solve, which is exact only
// if that iterate never exceeds the solved temperature.  Check it over
// seeded chips, every subsystem and the corners of the knob grid, at
// calibrated leakage and at a tiny one, where the fixed point settles
// at step 1 and the solve must return the first iterate bit for bit.
TEST(ThermalBatch, FirstIterateBoundsSolvedTemperature)
{
    const ProcessParams params;
    const auto power = calibratePower(params, PowerCalibration{});
    const auto thermal = std::make_shared<ThermalModel>(params);
    const ChipFactory factory(params, 0x66697273);
    const KnobSpace ks;

    std::size_t checked = 0, stepOne = 0;
    for (std::uint64_t c = 0; c < 3; ++c) {
        const Chip chip = factory.manufactureAt(c);
        const CoreSystemModel core(chip, c % 2, power, PowerCalibration{},
                                   thermal);
        for (std::size_t i = 0; i < kNumSubsystems; ++i) {
            const auto id = static_cast<SubsystemId>(i);
            const SubsystemModel &sub = core.subsystem(id);
            for (double vdd : {ks.vdd.lo(), ks.vdd.hi()})
            for (double vbb : {ks.vbb.lo(), 0.0, ks.vbb.hi()})
            for (double f : {ks.freq.lo(), ks.freq.hi()})
            for (double a : {0.1, 2.0})
            for (double thC : {45.0, 70.0}) {
                const double alphaF = a * sub.power().alphaRef;
                // Through the model, as the optimizer uses it.
                const double x1 = core.firstThermalIterate(
                    id, f, {vdd, vbb}, alphaF, thC);
                const auto sol = core.evaluateSubsystem(
                    id, false, f, {vdd, vbb}, alphaF, alphaF, thC);
                ASSERT_LE(x1, sol.thermal.tempC)
                    << "chip " << c << " subsystem " << i << " vdd "
                    << vdd << " vbb " << vbb << " f " << f;
                ++checked;

                // Through the kernel, with leakage scaled down until
                // the iteration can settle at step 1.
                for (double kstaScale : {1.0, 1e-6}) {
                    ThermalLane lane{};
                    lane.rth = thermal->rth(id);
                    lane.pdyn = dynamicPower(sub.power().kdyn, alphaF, vdd,
                                             f);
                    lane.ksta = sub.power().ksta * kstaScale;
                    lane.vt0 = sub.vt0True();
                    lane.vdd = vdd;
                    lane.vbb = vbb;
                    const double first =
                        thermalFirstIterate(params, lane, thC);
                    solveThermalLanes(params, &lane, 1, thC);
                    ASSERT_LE(first, lane.tempC);
                    const double floor = thC + lane.rth * lane.pdyn;
                    if (std::abs(first - floor) < 1e-3) {
                        ++stepOne;
                        ASSERT_EQ(first, lane.tempC)
                            << "converged at step 1 but differs";
                    }
                }
            }
        }
    }
    EXPECT_GT(checked, 0u);
    // The scaled lanes must exercise the step-1 equality.
    EXPECT_GT(stepOne, 0u);
}

} // namespace
} // namespace eval
