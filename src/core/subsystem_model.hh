/**
 * @file
 * Per-core EVAL system model: the 15 subsystems of one core on one
 * manufactured chip, each carrying its error model (with alternate
 * configurations for the FU-replication and queue-resize techniques),
 * power constants, tester-measured Vt0, and ABB/ASV knobs — plus the
 * whole-core evaluation used by the optimizers and the "ground truth"
 * the retuning cycles observe.
 */

#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "core/eval_params.hh"
#include "power/power_model.hh"
#include "power/vt0_calibration.hh"
#include "thermal/thermal_model.hh"
#include "timing/error_model.hh"
#include "variation/chip.hh"

namespace eval {

/** ASV/ABB setting of one subsystem. */
struct SubsystemKnobs
{
    double vdd = 1.0;
    double vbb = 0.0;
};

/** Activity of the running application, from the core simulator. */
struct ActivityVector
{
    std::array<double, kNumSubsystems> alpha{};  ///< accesses / cycle
    std::array<double, kNumSubsystems> rho{};    ///< accesses / instr

    double alphaOf(SubsystemId id) const
    {
        return alpha[static_cast<std::size_t>(id)];
    }
    double rhoOf(SubsystemId id) const
    {
        return rho[static_cast<std::size_t>(id)];
    }
};

/** Full operating point of one core. */
struct OperatingPoint
{
    double freq = 4.0e9;
    std::array<SubsystemKnobs, kNumSubsystems> knobs{};
    /** FU replication choice (Sec 3.3.1): low-slope implementation
     *  enabled for the critical FU cluster. */
    bool lowSlopeFu = false;
    /** Issue-queue resize choice (Sec 3.3.2): 3/4-sized queue. */
    bool smallQueue = false;

    SubsystemKnobs &
    knobsOf(SubsystemId id)
    {
        return knobs[static_cast<std::size_t>(id)];
    }
    const SubsystemKnobs &
    knobsOf(SubsystemId id) const
    {
        return knobs[static_cast<std::size_t>(id)];
    }
};

/** One subsystem of one core on one chip. */
class SubsystemModel
{
  public:
    SubsystemModel(const SubsystemInfo &info,
                   StageErrorModel primaryModel,
                   std::optional<StageErrorModel> altModel,
                   const SubsystemPowerParams &power, double vt0True,
                   double vt0Measured);

    const SubsystemInfo &info() const { return info_; }
    const SubsystemPowerParams &power() const { return power_; }

    /** True mean Vt0 (volts at reference conditions). */
    double vt0True() const { return vt0True_; }
    /** Tester-inferred Vt0 available to the controller. */
    double vt0Measured() const { return vt0Measured_; }

    /** Whether this subsystem has an alternate configuration. */
    bool hasAlternate() const { return alt_.has_value(); }

    /** Error model for the selected configuration. */
    const StageErrorModel &
    errorModel(bool useAlternate) const
    {
        return (useAlternate && alt_) ? *alt_ : primary_;
    }

    /** Power multiplier of the selected configuration (low-slope FUs
     *  burn ~30% more power; small queues slightly less). */
    double powerFactor(bool useAlternate) const;

  private:
    SubsystemInfo info_;
    StageErrorModel primary_;
    std::optional<StageErrorModel> alt_;
    SubsystemPowerParams power_;
    double vt0True_;
    double vt0Measured_;
};

/** Result of evaluating a whole core at an operating point. */
struct CoreEvaluation
{
    std::array<SubsystemThermalState, kNumSubsystems> thermal{};
    std::array<double, kNumSubsystems> peAccess{};
    double pePerInstruction = 0.0;
    double subsystemPowerW = 0.0;   ///< 15 adapted subsystems
    double totalPowerW = 0.0;       ///< + L2 + checker (Figure 12 scope)
    double maxTempC = 0.0;
    bool functional = true;         ///< all domains can switch

    bool violatesTemp(const Constraints &c) const;
    bool violatesPower(const Constraints &c) const;
    bool violatesError(const Constraints &c) const;
    bool meets(const Constraints &c) const;
};

/**
 * The EVAL model of one core on one chip: subsystems + thermal model +
 * fixed power components (private L2, checker).
 */
class CoreSystemModel
{
  public:
    /** Build from a manufactured chip (path populations, tester cal). */
    CoreSystemModel(const Chip &chip, std::size_t core,
                    const std::array<SubsystemPowerParams,
                                     kNumSubsystems> &power,
                    const PowerCalibration &cal,
                    std::shared_ptr<const ThermalModel> thermal,
                    bool buildAlternates = true);

    const SubsystemModel &subsystem(SubsystemId id) const;
    const ThermalModel &thermal() const { return *thermal_; }
    const ProcessParams &params() const { return params_; }
    const PowerCalibration &calibration() const { return cal_; }
    bool isFpApp() const { return fpApp_; }

    /** Select which FU cluster / queue the techniques act on (integer
     *  vs FP applications, Sec 4.1 "Outputs"). */
    void setAppType(bool fpApp) { fpApp_ = fpApp; }

    /** Subsystem adapted by FU replication for the current app type. */
    SubsystemId fuSubsystem() const;
    /** Subsystem adapted by queue resizing for the current app type. */
    SubsystemId queueSubsystem() const;

    /** Whether a subsystem currently uses its alternate config. */
    bool usesAlternate(SubsystemId id, const OperatingPoint &op) const;

    /**
     * Evaluate the full core at @p op with activity @p act and
     * heat-sink temperature @p thC.  This is the "physics" both the
     * Exhaustive optimizer and the retuning hardware observe.
     */
    CoreEvaluation evaluate(const OperatingPoint &op,
                            const ActivityVector &act, double thC) const;

    /**
     * Evaluate a single subsystem (used by the per-subsystem Freq and
     * Power algorithms).
     */
    struct SubsystemSolution
    {
        SubsystemThermalState thermal;
        double peAccess = 0.0;
        double pePerInstruction = 0.0;
        bool functional = true;
    };
    SubsystemSolution
    evaluateSubsystem(SubsystemId id, bool useAlternate, double freq,
                      const SubsystemKnobs &knobs, double alphaF,
                      double rho, double thC) const;

    /**
     * The thermal solver's first iterate for the same subsystem query
     * (ThermalModel::firstIterate): a lower bound on
     * evaluateSubsystem(...).thermal.tempC that costs one fixed-point
     * step.  The Exhaustive searches reject a setting on it before
     * paying for the solve.
     */
    double firstThermalIterate(SubsystemId id, double freq,
                               const SubsystemKnobs &knobs, double alphaF,
                               double thC) const;

    /**
     * Rated frequency of the plain (Baseline) processor: the minimum
     * error-free frequency over all subsystems, evaluated at the
     * worst-case design corner (TMAX junction temperature, nominal
     * Vdd) — a worst-case design cannot assume it will run cooler.
     * The no-variation chip rates at exactly the nominal frequency by
     * construction.
     */
    double baselineFrequency() const;

  private:
    ProcessParams params_;
    PowerCalibration cal_;
    std::shared_ptr<const ThermalModel> thermal_;
    std::vector<SubsystemModel> subsystems_;
    bool fpApp_ = false;
};

/** Default operating point: nominal Vdd, zero bias, nominal f. */
OperatingPoint nominalOperatingPoint(const ProcessParams &params);

} // namespace eval

