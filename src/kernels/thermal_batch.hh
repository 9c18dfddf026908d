/**
 * @file
 * Batched Eq 6-9 electro-thermal solves.
 *
 * The legacy path solved each subsystem with a `std::function`-driven
 * fixed point, re-dispatching the update lambda per iteration.  This
 * kernel solves all lanes of a core in one lockstep loop with the
 * update expression inlined (no std::function, no per-iteration
 * allocation), replicating the legacy iteration *verbatim* — each lane
 * freezes independently at exactly the step the scalar solver would
 * have stopped, so results are bit-identical.
 */

#pragma once

#include <cstddef>

#include "variation/process_params.hh"

namespace eval {

/**
 * One subsystem's solve: inputs + outputs, packed for lockstep.
 *
 * Deliberately trivial (no default initializers): lane buffers live on
 * the stack of a hot path and zeroing a 64-lane chunk per call costs
 * more than a single-lane solve.  Callers must set every input;
 * solveThermalLanes writes every output for each solved lane.
 */
struct ThermalLane
{
    // inputs
    double rth;     ///< K/W
    double pdyn;    ///< W (precomputed Eq 7)
    double ksta;    ///< Eq 8 coefficient
    double vt0;     ///< threshold at reference conditions
    double vdd;
    double vbb;
    // outputs
    double tempC;
    double psta;
    double vtEff;
    bool runaway;
};

/**
 * One step of the Eq 6-9 fixed point for @p lane's inputs: the
 * temperature its dynamic power plus the leakage at @p x heats it to
 * above heat-sink temperature @p thC.  solveThermalLanes runs exactly
 * this step, so the two cannot drift.
 */
double thermalStep(const ProcessParams &params, const ThermalLane &lane,
                   double x, double thC);

/**
 * The solver's first iterate: thermalStep from the temperature floor
 * thC + rth * pdyn.  Leakage is positive and grows with temperature,
 * so the iterates rise monotonically from the floor and this is a
 * lower bound on the solved tempC — equal to it when the solve
 * converges at step 1.  Callers use it to reject a setting (too hot,
 * or too many errors at this temperature) before paying for a solve.
 */
double thermalFirstIterate(const ProcessParams &params,
                           const ThermalLane &lane, double thC);

/**
 * Solve @p n lanes against heat-sink temperature @p thC.
 *
 * @param params process constants (Eq 8/9)
 */
void solveThermalLanes(const ProcessParams &params, ThermalLane *lanes,
                       std::size_t n, double thC);

} // namespace eval
