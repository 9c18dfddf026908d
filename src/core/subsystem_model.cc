#include "core/subsystem_model.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"
#include "util/math_utils.hh"

namespace eval {

namespace {

/** Delay shrink when an SRAM structure runs at 3/4 capacity: shorter
 *  buses to charge speed up most paths (Sec 3.3.2). */
constexpr double kQueueResizeShift = 0.92;
/** Low-slope FU area/power premium (Augsburger & Nikolic data). */
constexpr double kLowSlopePowerFactor = 1.30;
/** Power scale of a 3/4-capacity SRAM (fewer active sections). */
constexpr double kSmallQueuePowerFactor = 0.85;

bool
isFuSubsystem(SubsystemId id)
{
    return id == SubsystemId::IntALU || id == SubsystemId::FPUnit;
}

bool
isQueueSubsystem(SubsystemId id)
{
    return id == SubsystemId::IntQ || id == SubsystemId::FPQ;
}

} // namespace

SubsystemModel::SubsystemModel(const SubsystemInfo &info,
                               StageErrorModel primaryModel,
                               std::optional<StageErrorModel> altModel,
                               const SubsystemPowerParams &power,
                               double vt0True, double vt0Measured)
    : info_(info), primary_(std::move(primaryModel)),
      alt_(std::move(altModel)), power_(power), vt0True_(vt0True),
      vt0Measured_(vt0Measured)
{
}

double
SubsystemModel::powerFactor(bool useAlternate) const
{
    if (!useAlternate || !alt_)
        return 1.0;
    if (isFuSubsystem(info_.id))
        return kLowSlopePowerFactor;
    if (isQueueSubsystem(info_.id))
        return kSmallQueuePowerFactor;
    return 1.0;
}

bool
CoreEvaluation::violatesTemp(const Constraints &c) const
{
    return maxTempC > c.tMaxC;
}

bool
CoreEvaluation::violatesPower(const Constraints &c) const
{
    return totalPowerW > c.pMaxW;
}

bool
CoreEvaluation::violatesError(const Constraints &c) const
{
    return pePerInstruction > c.peMax;
}

bool
CoreEvaluation::meets(const Constraints &c) const
{
    return functional && !violatesTemp(c) && !violatesPower(c) &&
           !violatesError(c);
}

CoreSystemModel::CoreSystemModel(
    const Chip &chip, std::size_t core,
    const std::array<SubsystemPowerParams, kNumSubsystems> &power,
    const PowerCalibration &cal,
    std::shared_ptr<const ThermalModel> thermal, bool buildAlternates)
    : params_(chip.params()), cal_(cal), thermal_(std::move(thermal))
{
    EVAL_ASSERT(thermal_ != nullptr, "core model needs a thermal model");
    subsystems_.reserve(kNumSubsystems);

    TesterConfig testerCfg;
    Rng testerRng = chip.forkRng(0x7E57 + core);

    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const SubsystemInfo &info = chip.floorplan().subsystem(core, id);

        Rng popRng = chip.forkRng(0xA000 + core * 64 + i);
        const PathPopulationParams pp = defaultPathParams(id);
        PathPopulation primary = buildPathPopulation(chip, core, id, pp,
                                                     popRng);

        std::optional<StageErrorModel> alt;
        if (buildAlternates &&
            (isFuSubsystem(id) || isQueueSubsystem(id))) {
            Rng altRng = chip.forkRng(0xB000 + core * 64 + i);
            PathPopulationParams altPp = pp;
            if (isFuSubsystem(id))
                altPp.lowSlope = true;
            else
                altPp.shiftFactor = kQueueResizeShift;
            alt.emplace(params_,
                        buildPathPopulation(chip, core, id, altPp, altRng));
        }

        const double vt0True = primary.vt0Mean;
        const double vt0Measured = measureVt0(params_, power[i], vt0True,
                                              testerCfg, testerRng);
        subsystems_.emplace_back(info,
                                 StageErrorModel(params_,
                                                 std::move(primary)),
                                 std::move(alt), power[i], vt0True,
                                 vt0Measured);
    }
}

const SubsystemModel &
CoreSystemModel::subsystem(SubsystemId id) const
{
    return subsystems_[static_cast<std::size_t>(id)];
}

SubsystemId
CoreSystemModel::fuSubsystem() const
{
    return fpApp_ ? SubsystemId::FPUnit : SubsystemId::IntALU;
}

SubsystemId
CoreSystemModel::queueSubsystem() const
{
    return fpApp_ ? SubsystemId::FPQ : SubsystemId::IntQ;
}

bool
CoreSystemModel::usesAlternate(SubsystemId id,
                               const OperatingPoint &op) const
{
    if (op.lowSlopeFu && id == fuSubsystem())
        return true;
    if (op.smallQueue && id == queueSubsystem())
        return true;
    return false;
}

CoreSystemModel::SubsystemSolution
CoreSystemModel::evaluateSubsystem(SubsystemId id, bool useAlternate,
                                   double freq,
                                   const SubsystemKnobs &knobs,
                                   double alphaF, double rho,
                                   double thC) const
{
    const SubsystemModel &sub = subsystem(id);
    SubsystemSolution sol;
    sol.thermal = thermal_->solveSubsystem(sub.power(), id, sub.vt0True(),
                                           knobs.vdd, knobs.vbb, freq,
                                           alphaF, thC);
    const double pf = sub.powerFactor(useAlternate);
    sol.thermal.pdyn *= pf;
    sol.thermal.psta *= pf;

    const OperatingConditions op{knobs.vdd, knobs.vbb, sol.thermal.tempC};
    sol.peAccess = sub.errorModel(useAlternate)
                       .errorRatePerAccess(1.0 / freq, op);
    sol.pePerInstruction = rho * sol.peAccess;
    sol.functional = !sol.thermal.runaway && sol.peAccess < 1.0;
    return sol;
}

double
CoreSystemModel::firstThermalIterate(SubsystemId id, double freq,
                                     const SubsystemKnobs &knobs,
                                     double alphaF, double thC) const
{
    const SubsystemModel &sub = subsystem(id);
    SubsystemThermalRequest req;
    req.power = sub.power();
    req.id = id;
    req.vt0 = sub.vt0True();
    req.vdd = knobs.vdd;
    req.vbb = knobs.vbb;
    req.freqHz = freq;
    req.alphaF = alphaF;
    return thermal_->firstIterate(req, thC);
}

CoreEvaluation
CoreSystemModel::evaluate(const OperatingPoint &op,
                          const ActivityVector &act, double thC) const
{
    // All subsystems share one heat-sink temperature, so their Eq 6-9
    // fixed points are independent — solve them as one batch (a single
    // lockstep iteration) instead of 15 scalar calls.
    // Each lane is bit-identical to the solveSubsystem it replaces.
    std::array<SubsystemThermalRequest, kNumSubsystems> reqs;
    std::array<SubsystemThermalState, kNumSubsystems> solved;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const SubsystemModel &sub = subsystem(id);
        const SubsystemKnobs &knobs = op.knobsOf(id);
        reqs[i].power = sub.power();
        reqs[i].id = id;
        reqs[i].vt0 = sub.vt0True();
        reqs[i].vdd = knobs.vdd;
        reqs[i].vbb = knobs.vbb;
        reqs[i].freqHz = op.freq;
        reqs[i].alphaF = act.alpha[i];
    }
    thermal_->solveMany(reqs.data(), solved.data(), kNumSubsystems, thC);

    CoreEvaluation ev;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        const bool alt = usesAlternate(id, op);
        const SubsystemModel &sub = subsystem(id);
        const SubsystemKnobs &knobs = op.knobsOf(id);

        SubsystemSolution sol;
        sol.thermal = solved[i];
        const double pf = sub.powerFactor(alt);
        sol.thermal.pdyn *= pf;
        sol.thermal.psta *= pf;
        const OperatingConditions cond{knobs.vdd, knobs.vbb,
                                       sol.thermal.tempC};
        sol.peAccess = sub.errorModel(alt).errorRatePerAccess(
            1.0 / op.freq, cond);
        sol.pePerInstruction = act.rho[i] * sol.peAccess;
        sol.functional = !sol.thermal.runaway && sol.peAccess < 1.0;

        ev.thermal[i] = sol.thermal;
        ev.peAccess[i] = sol.peAccess;
        ev.pePerInstruction += sol.pePerInstruction;
        ev.subsystemPowerW += sol.thermal.power();
        ev.maxTempC = std::max(ev.maxTempC, sol.thermal.tempC);
        ev.functional = ev.functional && sol.functional;
    }

    // Fixed (non-adapted) power components, scaled with frequency:
    // the private L2 and, in timing-speculation environments, the
    // checker (accounted by the environment when present).
    const double fScale = op.freq / params_.freqNominal;
    ev.totalPowerW = ev.subsystemPowerW + cal_.l2StaticW +
                     cal_.l2DynamicW * fScale;
    return ev;
}

double
CoreSystemModel::baselineFrequency() const
{
    const OperatingConditions corner{
        params_.vddNominal * (1.0 - params_.vddDroopGuardband), 0.0,
        params_.tempNominalC};
    double fvarMin = 1e12;
    for (std::size_t i = 0; i < kNumSubsystems; ++i) {
        const auto id = static_cast<SubsystemId>(i);
        double fvar = subsystem(id).errorModel(false).fvar(corner);
        // The plain processor has no SRAM-Razor sense amps: its cache
        // reads must fit the cycle without the late-sampling margin.
        if (id == SubsystemId::Dcache || id == SubsystemId::Icache)
            fvar *= kRazorL1Margin;
        fvarMin = std::min(fvarMin, fvar);
    }
    return fvarMin;
}

OperatingPoint
nominalOperatingPoint(const ProcessParams &params)
{
    OperatingPoint op;
    op.freq = params.freqNominal;
    for (auto &k : op.knobs) {
        k.vdd = params.vddNominal;
        k.vbb = 0.0;
    }
    return op;
}

} // namespace eval
