/** Tests for the workload-characterization cache. */

#include <gtest/gtest.h>

#include "core/characterization.hh"
#include "exec/thread_pool.hh"
#include "valid/serializers.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

struct Fixture
{
    RecoveryModel recovery;
    CharacterizationCache cache{recovery, 4e9, 123, 150000};
};

TEST(Characterization, PhasesMatchProfileScript)
{
    Fixture f;
    EXPECT_EQ(f.cache.get(appByName("gcc")).phases.size(), 3u);
    EXPECT_EQ(f.cache.get(appByName("crafty")).phases.size(), 1u);
    EXPECT_EQ(f.cache.get(appByName("gzip")).phases.size(), 2u);
}

TEST(Characterization, CachedObjectIsStable)
{
    Fixture f;
    const AppCharacterization &a = f.cache.get(appByName("swim"));
    const AppCharacterization &b = f.cache.get(appByName("swim"));
    EXPECT_EQ(&a, &b);
}

TEST(Characterization, WeightsSumToOne)
{
    Fixture f;
    const auto &chr = f.cache.get(appByName("gcc"));
    EXPECT_NEAR(chr.totalWeight(), 1.0, 1e-9);
}

TEST(Characterization, SmallQueueCostsIpc)
{
    Fixture f;
    const auto &chr = f.cache.get(appByName("crafty"));
    for (const auto &phase : chr.phases) {
        // The 3/4 queue extracts no more ILP than the full queue.
        EXPECT_GE(phase.chr.perfSmall.cpiComp,
                  phase.chr.perfFull.cpiComp * 0.99);
    }
}

TEST(Characterization, FpFlagPropagates)
{
    Fixture f;
    EXPECT_TRUE(f.cache.get(appByName("swim")).isFp);
    EXPECT_FALSE(f.cache.get(appByName("gzip")).isFp);
    EXPECT_TRUE(f.cache.get(appByName("swim")).phases[0].chr.isFp);
}

TEST(Characterization, ActivityConsistentWithType)
{
    Fixture f;
    const auto &fp = f.cache.get(appByName("swim")).phases[0].chr.act;
    const auto &nt = f.cache.get(appByName("gzip")).phases[0].chr.act;
    EXPECT_GT(fp.alphaOf(SubsystemId::FPUnit), 0.0);
    EXPECT_DOUBLE_EQ(nt.alphaOf(SubsystemId::FPUnit), 0.0);
    EXPECT_GT(nt.alphaOf(SubsystemId::IntALU),
              fp.alphaOf(SubsystemId::IntALU));
}

TEST(Characterization, PhasesDiffer)
{
    Fixture f;
    const auto &chr = f.cache.get(appByName("gcc"));
    // The memory-heavy phase (index 1) must show a higher miss rate.
    EXPECT_GT(chr.phases[1].chr.perfFull.missesPerInst,
              chr.phases[2].chr.perfFull.missesPerInst);
}

TEST(Characterization, WarmMatchesLazyGet)
{
    // Short probes keep the whole suite cheap; the equality is exact
    // at any length.
    RecoveryModel recovery;
    constexpr std::uint64_t kSimInsts = 5000;
    std::vector<const AppProfile *> suite;
    for (const AppProfile &app : specSuite())
        suite.push_back(&app);
    ASSERT_EQ(suite.size(), 24u);

    CharacterizationCache warmed{recovery, 4e9, 123, kSimInsts};
    setGlobalThreads(4);
    warmed.warm(suite);
    setGlobalThreads(1);

    CharacterizationCache lazy{recovery, 4e9, 123, kSimInsts};
    for (const AppProfile *app : suite) {
        const AppCharacterization &w = warmed.get(*app);
        const AppCharacterization &l = lazy.get(*app);
        EXPECT_TRUE(encodeBinary(toSnapshot(w)) ==
                    encodeBinary(toSnapshot(l)))
            << app->name << ": warm() and a cold get() disagree";
    }
    // Both paths share one assembly, so pin it to the simulator too:
    // each gcc phase's full-queue record is a full-queue run of that
    // phase (warm-up, then measure) under the cache's seeds.
    const AppCharacterization &gccChr = warmed.get(appByName("gcc"));
    ASSERT_EQ(gccChr.phases.size(), 3u);
    for (std::size_t p = 0; p < 3; ++p) {
        SyntheticTrace trace(appByName("gcc"), 123 ^ (p * 7919));
        trace.pinPhase(p);
        Core core(CoreConfig{}, 123 ^ 0xC0DE ^ p);
        core.run(trace, kSimInsts);
        const PerfInputs full = PerfInputs::fromStats(
            core.run(trace, kSimInsts), 4e9, recovery.penaltyCycles);
        EXPECT_EQ(gccChr.phases[p].chr.perfFull.cpiComp, full.cpiComp)
            << "gcc phase " << p;
        EXPECT_EQ(gccChr.phases[p].chr.perfFull.missesPerInst,
                  full.missesPerInst)
            << "gcc phase " << p;
    }

    // Warming again, or warming what get() already built, keeps the
    // cached objects.
    const AppCharacterization *swim = &lazy.get(appByName("swim"));
    warmed.warm(suite);
    lazy.warm(suite);
    EXPECT_EQ(&warmed.get(appByName("gcc")), &gccChr);
    EXPECT_EQ(&lazy.get(appByName("swim")), swim);
}

} // namespace
} // namespace eval
