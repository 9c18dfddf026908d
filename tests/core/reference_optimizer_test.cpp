/**
 * Seeded differential test of ExhaustiveOptimizer against an unpruned
 * reference.  The optimizer's Freq and Power searches skip settings on
 * monotonicity assumptions (PE rises with f and T and falls with Vdd
 * and Vbb; the junction sits at least TH + Rth * Pdyn; leakage grows
 * under forward bias).  The reference below assumes none of them: it
 * thermally solves every knob-grid point it considers and applies only
 * the optimizer's own feasibility check.  Any decision that differs,
 * including an infeasible answer on one side only, means a pruning
 * assumption no longer holds for the calibrated models.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/optimizer.hh"
#include "power/power_model.hh"
#include "thermal/thermal_model.hh"
#include "util/random.hh"
#include "variation/chip.hh"

namespace eval {
namespace {

/** The optimizer's feasibility check after a full thermal solve. */
bool
feasibleAt(const CoreSystemModel &core, SubsystemId id, bool alt,
           double f, const SubsystemKnobs &k, double alphaF, double thC,
           const Constraints &c, CoreSystemModel::SubsystemSolution &sol)
{
    sol = core.evaluateSubsystem(id, alt, f, k, alphaF, alphaF, thC);
    return sol.functional && sol.thermal.tempC <= c.tMaxC &&
           sol.peAccess <= perAccessErrorBudget(c, alphaF);
}

/** Highest grid frequency with any feasible (Vdd, Vbb); 0 if none.
 *  Frequencies are tried from the top, every setting of each, so the
 *  first feasible one is the maximum by definition. */
double
referenceMaxFrequency(const CoreSystemModel &core, SubsystemId id,
                      bool alt, double alphaF, double thC,
                      const KnobSpace &ks, const Constraints &c)
{
    const auto vdds = ks.vddCandidates(core.params().vddNominal);
    const auto vbbs = ks.vbbCandidates();
    CoreSystemModel::SubsystemSolution sol;
    for (std::size_t fi = ks.freq.size(); fi-- > 0;) {
        for (double vdd : vdds)
            for (double vbb : vbbs)
                if (feasibleAt(core, id, alt, ks.freq.value(fi),
                               {vdd, vbb}, alphaF, thC, c, sol))
                    return ks.freq.value(fi);
    }
    return 0.0;
}

/** Cheapest feasible (Vdd, Vbb) at @p fcore over the whole grid; the
 *  first in (Vdd, Vbb) ascending order wins a tie. */
std::optional<SubsystemKnobs>
referenceMinimizePower(const CoreSystemModel &core, SubsystemId id,
                       bool alt, double fcore, double alphaF, double thC,
                       const KnobSpace &ks, const Constraints &c)
{
    std::optional<SubsystemKnobs> best;
    double bestPower = 0.0;
    CoreSystemModel::SubsystemSolution sol;
    for (double vdd : ks.vddCandidates(core.params().vddNominal)) {
        for (double vbb : ks.vbbCandidates()) {
            if (!feasibleAt(core, id, alt, fcore, {vdd, vbb}, alphaF, thC,
                            c, sol))
                continue;
            if (!best || sol.thermal.power() < bestPower) {
                best = SubsystemKnobs{vdd, vbb};
                bestPower = sol.thermal.power();
            }
        }
    }
    return best;
}

std::string
knobsText(const std::optional<SubsystemKnobs> &k)
{
    if (!k)
        return "nullopt";
    std::ostringstream out;
    out << "(" << k->vdd << ", " << k->vbb << ")";
    return out.str();
}

TEST(ExhaustiveReference, PrunedSearchesMatchUnprunedScan)
{
    constexpr std::size_t kChips = 16;
    constexpr std::size_t kDrawsPerQuery = 8;
    const ProcessParams params;
    const auto power = calibratePower(params, PowerCalibration{});
    const auto thermal = std::make_shared<ThermalModel>(params);
    const Constraints constraints;
    const ChipFactory factory(params, 0x72656672);
    Rng rng(0x646966660a);

    const auto start = std::chrono::steady_clock::now();
    std::size_t freqCases = 0, powerCases = 0, nullopts = 0;
    std::size_t mismatches = 0;
    std::string firstMismatch;
    const auto mismatch = [&](const std::string &what) {
        if (mismatches++ == 0)
            firstMismatch = what;
    };

    for (std::size_t c = 0; c < kChips; ++c) {
        const Chip chip = factory.manufactureAt(c);
        const std::size_t coreIdx = c % 4;
        const CoreSystemModel core(chip, coreIdx, power, PowerCalibration{},
                                   thermal);
        for (int knobBits = 0; knobBits < 4; ++knobBits) {
            EnvCapabilities caps;
            caps.timingSpec = true;
            caps.asv = (knobBits & 1) != 0;
            caps.abb = (knobBits & 2) != 0;
            const KnobSpace ks = caps.knobSpace();
            ExhaustiveOptimizer exh(caps, constraints);
            for (std::size_t i = 0; i < kNumSubsystems; ++i) {
                const auto id = static_cast<SubsystemId>(i);
                const SubsystemModel &sub = core.subsystem(id);
                for (bool alt : {false, true}) {
                    if (alt && !sub.hasAlternate())
                        continue;
                    for (std::size_t d = 0; d < kDrawsPerQuery; ++d) {
                        const double thC = rng.uniform(40.0, 80.0);
                        const double alphaF =
                            sub.power().alphaRef * rng.uniform(0.1, 2.0);
                        const double fcore = ks.freq.value(
                            rng.uniformInt(ks.freq.size()));
                        const auto where = [&] {
                            std::ostringstream out;
                            out.precision(17);
                            out << "chip " << c << " core " << coreIdx
                                << " asv " << caps.asv << " abb "
                                << caps.abb << " subsystem " << i
                                << " alt " << alt << " thC " << thC
                                << " alphaF " << alphaF;
                            return out.str();
                        };

                        ++freqCases;
                        const double fmax = exh.maxFrequency(
                            core, id, alt, alphaF, thC);
                        const double fref = referenceMaxFrequency(
                            core, id, alt, alphaF, thC, ks, constraints);
                        if (fmax != fref) {
                            std::ostringstream out;
                            out << where() << ": maxFrequency " << fmax
                                << " vs reference " << fref;
                            mismatch(out.str());
                        }

                        ++powerCases;
                        const auto knobs = exh.minimizePower(
                            core, id, alt, fcore, alphaF, thC);
                        const auto kref = referenceMinimizePower(
                            core, id, alt, fcore, alphaF, thC, ks,
                            constraints);
                        nullopts += kref ? 0 : 1;
                        const bool same =
                            knobs.has_value() == kref.has_value() &&
                            (!knobs || (knobs->vdd == kref->vdd &&
                                        knobs->vbb == kref->vbb));
                        if (!same) {
                            std::ostringstream out;
                            out << where() << " fcore " << fcore
                                << ": minimizePower " << knobsText(knobs)
                                << " vs reference " << knobsText(kref);
                            mismatch(out.str());
                        }
                    }
                }
            }
        }
    }
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    std::printf("[reference] %zu maxFrequency + %zu minimizePower cases "
                "(%zu infeasible), %zu mismatches, %.2f s\n",
                freqCases, powerCases, nullopts, mismatches, seconds);

    EXPECT_EQ(mismatches, 0u)
        << mismatches << " of " << freqCases + powerCases
        << " decisions differ; first: " << firstMismatch;
    // The draws must reach both outcomes of the Power algorithm.
    EXPECT_GT(nullopts, 0u);
    EXPECT_LT(nullopts, powerCases);
}

// Warm-started Freq searches against the reference.  The hint is
// only a claim; a wrong one must cost probes, never change the answer.
// Every kind of wrong hint is tried: the exact answer, too low, too
// high, the grid's top and bottom, a setting that is infeasible at the
// hint's index, out-of-range indices, and a chain of neighbouring
// queries as training runs them.  A tight TMAX adds points where no
// setting is feasible (answer 0), which walk the downward gallop below
// the grid bottom.
TEST(ExhaustiveReference, HintedMaxFrequencyMatchesReference)
{
    constexpr std::size_t kChips = 4;
    constexpr std::size_t kDraws = 6;
    const ProcessParams params;
    const auto power = calibratePower(params, PowerCalibration{});
    const auto thermal = std::make_shared<ThermalModel>(params);
    const ChipFactory factory(params, 0x68696e74);
    Rng rng(0x7761726d);

    std::size_t cases = 0, infeasible = 0, mismatches = 0;
    std::string firstMismatch;
    for (std::size_t c = 0; c < kChips; ++c) {
        const Chip chip = factory.manufactureAt(c);
        const std::size_t coreIdx = c % 4;
        const CoreSystemModel core(chip, coreIdx, power, PowerCalibration{},
                                   thermal);
        for (int knobBits = 0; knobBits < 4; ++knobBits) {
            EnvCapabilities caps;
            caps.timingSpec = true;
            caps.asv = (knobBits & 1) != 0;
            caps.abb = (knobBits & 2) != 0;
            const KnobSpace ks = caps.knobSpace();
            const std::size_t nVdd =
                ks.vddCandidates(core.params().vddNominal).size();
            const std::size_t nVbb = ks.vbbCandidates().size();
            const auto top = static_cast<std::ptrdiff_t>(ks.freq.size()) - 1;
            for (const double tMaxC : {Constraints{}.tMaxC, 62.0}) {
                Constraints constraints;
                constraints.tMaxC = tMaxC;
                ExhaustiveOptimizer exh(caps, constraints);
                for (std::size_t i = 0; i < kNumSubsystems; ++i) {
                    const auto id = static_cast<SubsystemId>(i);
                    const SubsystemModel &sub = core.subsystem(id);
                    const bool alt =
                        sub.hasAlternate() && rng.bernoulli(0.5);
                    std::vector<std::pair<double, double>> draws;
                    for (std::size_t d = 0; d < kDraws; ++d)
                        draws.emplace_back(
                            rng.uniform(45.0, 70.0),
                            sub.power().alphaRef * rng.uniform(0.1, 2.0));
                    std::sort(draws.begin(), draws.end());

                    FreqHint chain;
                    for (const auto &[thC, alphaF] : draws) {
                        const double fref = referenceMaxFrequency(
                            core, id, alt, alphaF, thC, ks, constraints);
                        infeasible += fref <= 0.0 ? 1 : 0;
                        const auto check = [&](FreqHint hint,
                                               const char *kind) {
                            ++cases;
                            const double f = exh.maxFrequency(
                                core, id, alt, alphaF, thC, hint);
                            const bool answerOk =
                                hint.freqIndex < 0
                                    ? f <= 0.0
                                    : f == ks.freq.value(static_cast<
                                               std::size_t>(
                                               hint.freqIndex));
                            if (f == fref && answerOk)
                                return hint;
                            if (mismatches++ == 0) {
                                std::ostringstream out;
                                out.precision(17);
                                out << kind << " hint, chip " << c
                                    << " asv " << caps.asv << " abb "
                                    << caps.abb << " tMax " << tMaxC
                                    << " subsystem " << i << " thC "
                                    << thC << ": " << f
                                    << " vs reference " << fref
                                    << " (returned index "
                                    << hint.freqIndex << ")";
                                firstMismatch = out.str();
                            }
                            return hint;
                        };

                        const FreqHint exact = check(FreqHint{}, "empty");
                        if (exact.freqIndex >= 0) {
                            // The returned setting is feasible at the
                            // returned index.
                            CoreSystemModel::SubsystemSolution sol;
                            EXPECT_TRUE(feasibleAt(
                                core, id, alt,
                                ks.freq.value(static_cast<std::size_t>(
                                    exact.freqIndex)),
                                {ks.vddCandidates(core.params().vddNominal)
                                     [exact.vddIndex],
                                 ks.vbbCandidates()[exact.vbbIndex]},
                                alphaF, thC, constraints, sol));
                        }
                        const std::ptrdiff_t at =
                            std::max<std::ptrdiff_t>(exact.freqIndex, 0);
                        FreqHint h = exact;
                        check(h, "exact");
                        h.freqIndex = std::max<std::ptrdiff_t>(at - 3, 0);
                        check(h, "too-low");
                        h.freqIndex = std::min(at + 3, top);
                        check(h, "too-high");
                        check({top, nVdd - 1, nVbb - 1}, "grid-top");
                        check({0, nVdd - 1, nVbb - 1}, "grid-bottom");
                        check({top, 0, 0}, "infeasible-setting");
                        check({top + 40, nVdd, 0}, "out-of-range");
                        chain = check(chain, "chained");
                    }
                }
            }
        }
    }
    std::printf("[reference] %zu hinted maxFrequency cases (%zu points "
                "infeasible), %zu mismatches\n",
                cases, infeasible, mismatches);
    EXPECT_EQ(mismatches, 0u) << "first: " << firstMismatch;
    // The draws must reach points where nothing is feasible.
    EXPECT_GT(infeasible, 0u);
}

} // namespace
} // namespace eval
