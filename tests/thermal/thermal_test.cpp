/** Tests for the Eq 6-9 electro-thermal solver and sensors. */

#include <cmath>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "power/knobs.hh"
#include "power/power_model.hh"
#include "thermal/sensors.hh"
#include "util/statistics.hh"
#include "thermal/thermal_model.hh"
#include "variation/chip.hh"

namespace eval {
namespace {

struct Fixture
{
    ProcessParams params;
    std::array<SubsystemPowerParams, kNumSubsystems> power{
        calibratePower(params, PowerCalibration{})};
    ThermalModel thermal{params};
};

TEST(ThermalModel, SmallBlocksHaveHigherRth)
{
    Fixture f;
    EXPECT_GT(f.thermal.rth(SubsystemId::IntALU),
              f.thermal.rth(SubsystemId::Dcache));
    EXPECT_GT(f.thermal.rth(SubsystemId::DTLB),
              f.thermal.rth(SubsystemId::Icache));
}

TEST(ThermalModel, SubsystemAboveHeatsink)
{
    Fixture f;
    const auto st = f.thermal.solveSubsystem(
        f.power[static_cast<std::size_t>(SubsystemId::IntALU)],
        SubsystemId::IntALU, f.params.vtMean, 1.0, 0.0, 4e9, 0.6, 65.0);
    EXPECT_GT(st.tempC, 65.0);
    EXPECT_LT(st.tempC, 95.0);
    EXPECT_FALSE(st.runaway);
    EXPECT_GT(st.pdyn, 0.0);
    EXPECT_GT(st.psta, 0.0);
}

TEST(ThermalModel, SatisfiesEq6AtFixedPoint)
{
    Fixture f;
    const SubsystemId id = SubsystemId::IntQ;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto st = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 1.1,
                                             0.0, 4.5e9, 0.8, 68.0);
    EXPECT_NEAR(st.tempC, 68.0 + f.thermal.rth(id) * (st.pdyn + st.psta),
                0.05);
}

TEST(ThermalModel, HigherVddRunsHotter)
{
    Fixture f;
    const SubsystemId id = SubsystemId::FPUnit;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto lo = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 0.9,
                                             0.0, 4e9, 0.5, 65.0);
    const auto hi = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 1.2,
                                             0.0, 4e9, 0.5, 65.0);
    EXPECT_GT(hi.tempC, lo.tempC);
    EXPECT_GT(hi.pdyn, lo.pdyn);
    EXPECT_GT(hi.psta, lo.psta);
}

/** One subsystem solved at every KnobSpace Vbb, ascending, with the
 *  other inputs fixed: a lane per Vbb in one solveMany call. */
struct VbbSweep
{
    std::size_t chip = 0;
    std::size_t subsystem = 0;
    double vdd = 0.0;
    double freqHz = 0.0;
    double thC = 0.0;
    double rth = 0.0;
    std::vector<double> vbbs;
    std::vector<SubsystemThermalState> states;

    /** The point's coordinates, for a failure message. */
    std::string
    where() const
    {
        std::ostringstream out;
        out.precision(17);
        out << "chip " << chip << " subsystem " << subsystem
            << " Vdd=" << vdd << " f=" << freqHz << " TH=" << thC;
        return out.str();
    }
};

/**
 * The seeded grid behind the optimizer's thermal pruning: ChipFactory
 * chips (core 0, each subsystem at its chip's systematic Vt0) x 15
 * subsystems x the KnobSpace Vdd and f grids x heat-sink temperatures
 * 40-80 C, at the subsystem's reference activity.  Calls @p visit
 * once per point with the whole Vbb axis solved.
 */
void
forEachVbbSweep(const std::function<void(const VbbSweep &)> &visit)
{
    const ProcessParams params;
    const KnobSpace knobs;
    const ThermalModel thermal(params);
    const auto power = calibratePower(params, PowerCalibration{});
    ChipFactory factory(params, 0x7468726dULL);

    VbbSweep sweep;
    sweep.vbbs = knobs.vbb.values();
    std::vector<SubsystemThermalRequest> reqs(sweep.vbbs.size());
    sweep.states.resize(sweep.vbbs.size());
    for (sweep.chip = 0; sweep.chip < 8; ++sweep.chip) {
        const Chip chip = factory.manufacture();
        for (sweep.subsystem = 0; sweep.subsystem < kNumSubsystems;
             ++sweep.subsystem) {
            const std::size_t s = sweep.subsystem;
            const auto id = static_cast<SubsystemId>(s);
            const double vt0 = chip.map().vtSystematicMean(
                chip.floorplan().subsystem(0, id).rect);
            sweep.rth = thermal.rth(id);
            for (double vdd : knobs.vdd.values()) {
                sweep.vdd = vdd;
                for (double f : knobs.freq.values()) {
                    sweep.freqHz = f;
                    for (std::size_t k = 0; k < reqs.size(); ++k) {
                        reqs[k].power = power[s];
                        reqs[k].id = id;
                        reqs[k].vt0 = vt0;
                        reqs[k].vdd = vdd;
                        reqs[k].vbb = sweep.vbbs[k];
                        reqs[k].freqHz = f;
                        reqs[k].alphaF = power[s].alphaRef;
                    }
                    for (int th = 40; th <= 80; th += 5) {
                        sweep.thC = th;
                        thermal.solveMany(reqs.data(), sweep.states.data(),
                                          reqs.size(), sweep.thC);
                        visit(sweep);
                    }
                }
            }
        }
    }
}

/**
 * Leakage is monotone under forward bias, which the optimizer's
 * pruned power search assumes: over the seeded grid, psta never falls
 * from one KnobSpace Vbb step to the next.
 */
TEST(ThermalModel, ForwardBiasLeaksMore)
{
    std::size_t pairs = 0;
    std::size_t violations = 0;
    std::string firstViolation;
    forEachVbbSweep([&](const VbbSweep &sw) {
        for (std::size_t k = 0; k + 1 < sw.states.size(); ++k) {
            ++pairs;
            const double here = sw.states[k].psta;
            const double up = sw.states[k + 1].psta;
            if (here <= up || violations++ > 0)
                continue;
            std::ostringstream out;
            out.precision(17);
            out << sw.where() << " Vbb=" << sw.vbbs[k] << "->"
                << sw.vbbs[k + 1] << ": psta " << here << " -> " << up;
            firstViolation = out.str();
        }
    });
    EXPECT_EQ(violations, 0u)
        << violations << " of " << pairs
        << " Vbb steps lower leakage; first: " << firstViolation;
    EXPECT_GT(pairs, 1000000u);

    // Strict at a nominal point: forward bias leaks more than zero
    // bias, and reverse bias saves leakage.
    Fixture f;
    const SubsystemId id = SubsystemId::IntReg;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto noBias = f.thermal.solveSubsystem(
        pp, id, f.params.vtMean, 1.0, 0.0, 4e9, 0.5, 65.0);
    const auto fbb = f.thermal.solveSubsystem(
        pp, id, f.params.vtMean, 1.0, 0.4, 4e9, 0.5, 65.0);
    EXPECT_GT(fbb.psta, noBias.psta);
    const auto rbb = f.thermal.solveSubsystem(
        pp, id, f.params.vtMean, 1.0, -0.4, 4e9, 0.5, 65.0);
    EXPECT_LT(rbb.psta, noBias.psta);
}

/**
 * The junction temperature floor the optimizer's pruned searches
 * assume: leakage only adds heat, so at every point of the seeded
 * grid tempC >= TH + Rth * Pdyn.
 */
TEST(ThermalModel, LeakageFeedbackRaisesTemperature)
{
    std::size_t points = 0;
    std::size_t violations = 0;
    std::string firstViolation;
    forEachVbbSweep([&](const VbbSweep &sw) {
        for (std::size_t k = 0; k < sw.states.size(); ++k) {
            ++points;
            const SubsystemThermalState &st = sw.states[k];
            const double floor = sw.thC + sw.rth * st.pdyn;
            if (st.tempC >= floor || violations++ > 0)
                continue;
            std::ostringstream out;
            out.precision(17);
            out << sw.where() << " Vbb=" << sw.vbbs[k] << ": tempC "
                << st.tempC << " < floor " << floor;
            firstViolation = out.str();
        }
    });
    EXPECT_EQ(violations, 0u)
        << violations << " of " << points
        << " points sit below TH + Rth*Pdyn; first: " << firstViolation;
    EXPECT_GT(points, 1000000u);

    // Strictly above the leakage-free estimate at a nominal point.
    Fixture f;
    const SubsystemId id = SubsystemId::IntALU;
    const auto &pp = f.power[static_cast<std::size_t>(id)];
    const auto st = f.thermal.solveSubsystem(pp, id, f.params.vtMean, 1.0,
                                             0.0, 4e9, 0.6, 65.0);
    EXPECT_GT(st.tempC, 65.0 + f.thermal.rth(id) * st.pdyn);
}

TEST(Heatsink, TracksChipPower)
{
    HeatsinkModel hs;
    EXPECT_NEAR(hs.tempC(0.0), hs.ambientC, 1e-12);
    EXPECT_NEAR(hs.tempC(120.0), hs.ambientC + 30.0, 1e-12);
    // The paper's TH_MAX=70C corresponds to ~PMAX on all four cores.
    EXPECT_LE(hs.tempC(4 * 30.0), 70.0 + 1e-9);
}

TEST(Sensors, NoisySensorClampsAndCenters)
{
    NoisySensor s(0.5, 0.0, 100.0);
    Rng rng(5);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(s.read(50.0, rng));
    EXPECT_NEAR(stats.mean(), 50.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 0.5, 0.05);
    for (int i = 0; i < 100; ++i) {
        EXPECT_GE(s.read(-1000.0, rng), 0.0);
        EXPECT_LE(s.read(1000.0, rng), 100.0);
    }
}

TEST(Sensors, PeRateNeverNegative)
{
    SensorSuite suite;
    Rng rng(7);
    EXPECT_DOUBLE_EQ(suite.readPeRate(0.0, rng), 0.0);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(suite.readPeRate(1e-5, rng), 0.0);
}

/** Property: solver converges over the whole knob space. */
class SolverSweep
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(SolverSweep, ProducesFiniteState)
{
    Fixture f;
    const auto [vdd, vbb] = GetParam();
    // Maximum supply plus strong forward bias can genuinely run away
    // thermally; the solver must then *report* runaway, never produce
    // non-finite state.
    const bool mayRunAway = vbb > 0.25 && vdd > 1.1;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const auto st = f.thermal.solveSubsystem(
            f.power[i], id, f.params.vtMean, vdd, vbb, 4e9,
            f.power[i].alphaRef, 70.0);
        EXPECT_TRUE(std::isfinite(st.tempC)) << "subsystem " << i;
        EXPECT_TRUE(std::isfinite(st.psta)) << "subsystem " << i;
        if (!mayRunAway) {
            EXPECT_FALSE(st.runaway) << "subsystem " << i;
            EXPECT_GT(st.tempC, 60.0);
            EXPECT_LT(st.tempC, 130.0);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Knobs, SolverSweep,
    ::testing::Combine(::testing::Values(0.8, 1.0, 1.2),
                       ::testing::Values(-0.5, 0.0, 0.5)));

} // namespace
} // namespace eval
