/** Tests for the out-of-order core model. */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>

#include "arch/core.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace eval {
namespace {

/** Trace of identical independent ALU ops. */
class IndependentAluTrace : public TraceSource
{
  public:
    bool
    next(MicroOp &op) override
    {
        op = MicroOp{};
        op.cls = OpClass::IntAlu;
        op.pc = 0x1000 + (count_++ % 512) * 4;
        op.src1Dist = 0;
        op.src2Dist = 0;
        return true;
    }

  private:
    std::uint64_t count_ = 0;
};

/** Serial dependency chain: each op needs the previous one. */
class SerialChainTrace : public TraceSource
{
  public:
    bool
    next(MicroOp &op) override
    {
        op = MicroOp{};
        op.cls = OpClass::IntAlu;
        op.pc = 0x2000;
        op.src1Dist = 1;
        return true;
    }
};

TEST(Core, IndependentOpsApproachIssueWidth)
{
    CoreConfig cfg;
    Core core(cfg, 1);
    IndependentAluTrace trace;
    core.run(trace, 5000);   // warm the instruction cache
    const CoreStats s = core.run(trace, 30000);
    // 3-wide with 3 ALUs: IPC should be close to 3.
    EXPECT_GT(s.ipc(), 2.5);
}

TEST(Core, SerialChainRunsAtOneIpcMax)
{
    CoreConfig cfg;
    Core core(cfg, 1);
    SerialChainTrace trace;
    const CoreStats s = core.run(trace, 20000);
    EXPECT_LE(s.ipc(), 1.05);
    EXPECT_GT(s.ipc(), 0.5);
}

TEST(Core, SmallerQueueNeverFaster)
{
    const AppProfile &app = appByName("crafty");
    double ipcFull, ipcSmall;
    {
        CoreConfig cfg;
        SyntheticTrace t(app, 7);
        t.pinPhase(0);
        Core core(cfg, 2);
        core.run(t, 40000);
        ipcFull = core.run(t, 80000).ipc();
    }
    {
        CoreConfig cfg;
        cfg.queueCapacityFraction = 0.75;
        SyntheticTrace t(app, 7);
        t.pinPhase(0);
        Core core(cfg, 2);
        core.run(t, 40000);
        ipcSmall = core.run(t, 80000).ipc();
    }
    EXPECT_LE(ipcSmall, ipcFull * 1.02);
}

TEST(Core, ErrorInjectionCostsPerformance)
{
    const AppProfile &app = appByName("gzip");
    auto runWith = [&app](double errProb) {
        CoreConfig cfg;
        SyntheticTrace t(app, 9);
        t.pinPhase(0);
        Core core(cfg, 3);
        core.setErrorInjection(errProb, 14);
        core.run(t, 30000);
        return core.run(t, 60000);
    };
    const CoreStats clean = runWith(0.0);
    const CoreStats faulty = runWith(0.02);
    EXPECT_EQ(clean.errorRecoveries, 0u);
    EXPECT_GT(faulty.errorRecoveries, 500u);
    EXPECT_LT(faulty.ipc(), clean.ipc());
}

TEST(Core, ErrorRateMatchesInjection)
{
    const AppProfile &app = appByName("gzip");
    CoreConfig cfg;
    SyntheticTrace t(app, 9);
    t.pinPhase(0);
    Core core(cfg, 3);
    core.setErrorInjection(0.01, 14);
    const CoreStats s = core.run(t, 100000);
    const double measured = static_cast<double>(s.errorRecoveries) /
                            static_cast<double>(s.instructions);
    EXPECT_NEAR(measured, 0.01, 0.002);
}

TEST(Core, CpiDecompositionConsistent)
{
    const AppProfile &app = appByName("mcf");
    CoreConfig cfg;
    SyntheticTrace t(app, 11);
    t.pinPhase(0);
    Core core(cfg, 4);
    core.run(t, 60000);
    const CoreStats s = core.run(t, 120000);
    EXPECT_GT(s.cpiComp(), 0.3);
    EXPECT_LE(s.cpiComp(), s.cpi());
    EXPECT_NEAR(s.cpiComp() +
                    s.missesPerInstruction() * s.missPenaltyCycles(),
                s.cpi(), 0.02 * s.cpi());
}

TEST(Core, ActivityCountsPopulated)
{
    const AppProfile &app = appByName("swim");
    CoreConfig cfg;
    SyntheticTrace t(app, 13);
    t.pinPhase(0);
    Core core(cfg, 5);
    const CoreStats s = core.run(t, 60000);
    EXPECT_GT(s.alpha(SubsystemId::Icache), 0.0);
    EXPECT_GT(s.alpha(SubsystemId::IntALU), 0.0);
    EXPECT_GT(s.alpha(SubsystemId::FPUnit), 0.0);   // swim is FP
    EXPECT_GT(s.rho(SubsystemId::Dcache), 0.1);
    // An FP app exercises the FP queue; an int app must not.
    const AppProfile &intApp = appByName("gzip");
    SyntheticTrace ti(intApp, 13);
    ti.pinPhase(0);
    Core coreInt(cfg, 5);
    const CoreStats si = coreInt.run(ti, 60000);
    EXPECT_DOUBLE_EQ(si.alpha(SubsystemId::FPQ), 0.0);
}

TEST(Core, MemBoundAppsShowMemStalls)
{
    CoreConfig cfg;
    SyntheticTrace t(appByName("mcf"), 17);
    t.pinPhase(0);
    Core core(cfg, 6);
    core.run(t, 60000);
    const CoreStats s = core.run(t, 60000);
    EXPECT_GT(s.memStallCycles, 0u);
    EXPECT_GT(s.missPenaltyCycles(), 20.0);
    EXPECT_LT(s.missPenaltyCycles(),
              static_cast<double>(cfg.memLat.memory) + 2.0);
}

TEST(Core, FuReplicationAddsBranchLoopCycle)
{
    // With many mispredicted branches, the +1 redirect cycle of the
    // replicated-FU pipeline must cost measurable CPI.
    const AppProfile &app = appByName("gcc");
    auto cpiWith = [&app](bool repl) {
        CoreConfig cfg;
        cfg.fuReplicated = repl;
        SyntheticTrace t(app, 23);
        t.pinPhase(0);
        Core core(cfg, 7);
        core.run(t, 40000);
        return core.run(t, 80000).cpi();
    };
    const double plain = cpiWith(false);
    const double repl = cpiWith(true);
    EXPECT_GE(repl, plain);
    EXPECT_LT(repl, plain * 1.1);   // "modest impact" (Sec 5)
}

TEST(Core, DeterministicRuns)
{
    const AppProfile &app = appByName("vpr");
    auto run = [&app]() {
        CoreConfig cfg;
        SyntheticTrace t(app, 29);
        t.pinPhase(0);
        Core core(cfg, 8);
        return core.run(t, 50000);
    };
    const CoreStats a = run();
    const CoreStats b = run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
}

/** FNV-1a over every CoreStats field, in declaration order. */
class StatsDigest
{
  public:
    void
    add(const CoreStats &s)
    {
        word(s.cycles);
        word(s.instructions);
        word(s.branches);
        word(s.branchMispredicts);
        word(s.l2Misses);
        word(s.l2MissesIStream);
        word(s.l1dMisses);
        word(s.l1iMisses);
        word(s.memStallCycles);
        word(s.errorRecoveries);
        word(s.recoveryStallCycles);
        for (const std::uint64_t a : s.accesses)
            word(a);
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    word(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001B3ULL;
        }
    }

    std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

/**
 * Digest of characterization-shaped probes (a fresh core and a trace
 * pinned to one phase, a 20k-instruction warm-up, then a 20k measured
 * run) over every suite app, with error injection off and on.  The
 * full grid adds every phase and the 3/4-size queues; otherwise each
 * app runs phase 0 at full queue size.  Both runs of each probe enter
 * the digest.
 */
std::uint64_t
probeDigest(const std::function<void(CoreConfig &)> &tweak, bool fullGrid)
{
    constexpr std::uint64_t kSeed = 1;
    constexpr std::uint64_t kInsts = 20000;
    StatsDigest d;
    for (const AppProfile &app : specSuite()) {
        const std::size_t phases =
            fullGrid ? SyntheticTrace(app, 0).numPhases() : 1;
        for (std::size_t phase = 0; phase < phases; ++phase) {
            for (std::size_t q = 0; q < (fullGrid ? 2u : 1u); ++q) {
                const double frac = q == 0 ? 1.0 : 0.75;
                for (const double errProb : {0.0, 1e-3}) {
                    CoreConfig cfg;
                    cfg.queueCapacityFraction = frac;
                    tweak(cfg);
                    SyntheticTrace t(app, kSeed ^ (phase * 7919));
                    t.pinPhase(phase);
                    Core core(cfg, kSeed ^ 0xC0DE ^ phase);
                    core.setErrorInjection(errProb, 14);
                    d.add(core.run(t, kInsts));
                    d.add(core.run(t, kInsts));
                }
            }
        }
    }
    return d.value();
}

// Pins the simulator's exact output.  Any change to Core that moves a
// single counter of a single probe changes these digests; a deliberate
// model change must re-record them (print probeDigest's value).
TEST(CoreStatsPin, DefaultConfigFullGrid)
{
    EXPECT_EQ(probeDigest([](CoreConfig &) {}, true), 0x1236A9820F80D9C7ULL);
}

TEST(CoreStatsPin, OneMshr)
{
    EXPECT_EQ(probeDigest([](CoreConfig &c) { c.mshrs = 1; }, false),
              0xEBA72E4D73D2F139ULL);
}

TEST(CoreStatsPin, NextLinePrefetch)
{
    EXPECT_EQ(probeDigest([](CoreConfig &c) { c.prefetchNextLine = true; },
                          false),
              0x55EA55AFFBB6C5F7ULL);
}

TEST(CoreStatsPin, ReplicatedFus)
{
    EXPECT_EQ(probeDigest([](CoreConfig &c) { c.fuReplicated = true; },
                          false),
              0x304BB5B9E3502D93ULL);
}

TEST(CoreStatsPin, LongMemoryLatency)
{
    EXPECT_EQ(probeDigest([](CoreConfig &c) { c.memLat.memory = 300; },
                          false),
              0xFC4A8DFFD6F083CAULL);
}

/** Property sweep: every suite app simulates cleanly with sane CPI. */
class SuiteSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SuiteSweep, RunsWithPlausibleCpi)
{
    const AppProfile &app = appByName(GetParam());
    CoreConfig cfg;
    SyntheticTrace t(app, 31);
    Core core(cfg, 9);
    const CoreStats s = core.run(t, 40000);
    EXPECT_GT(s.cpi(), 0.34);
    EXPECT_LT(s.cpi(), 12.0);
    EXPECT_EQ(s.instructions, 40000u);
}

INSTANTIATE_TEST_SUITE_P(
    Apps, SuiteSweep,
    ::testing::Values("gzip", "mcf", "crafty", "eon", "bzip2", "swim",
                      "art", "lucas", "mesa", "sixtrack"));

} // namespace
} // namespace eval
