/**
 * Concurrency tests for the stats layer: instruments and the decision
 * trace must tolerate updates from parallel per-chip tasks without
 * losing counts or corrupting state.
 */

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.hh"
#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"

using namespace eval;

TEST(StatsConcurrency, CounterIncrementsAreNotLost)
{
    Counter &c = StatRegistry::global().counter("test.conc_counter");
    c.reset();
    ThreadPool pool(4);
    pool.parallelFor(0, 100000, 64, [&](std::size_t) { c.inc(); });
    EXPECT_EQ(c.value(), 100000u);
}

TEST(StatsConcurrency, TraceRecordsCarryPerThreadContext)
{
    DecisionTrace trace(1 << 16);
    trace.setEnabled(true);
    ThreadPool pool(4);
    pool.parallelFor(0, 64, 1, [&](std::size_t chip) {
        trace.setContext(static_cast<int>(chip), 0);
        for (int k = 0; k < 8; ++k) {
            DecisionRecord r;
            r.phaseId = static_cast<std::uint64_t>(k);
            r.outcome = "NoChange";
            trace.record(std::move(r));
        }
    });
    EXPECT_EQ(trace.totalRecorded(), 64u * 8u);
    EXPECT_EQ(trace.size(), 64u * 8u);

    // Every record must be stamped with the chip of the task that
    // produced it (thread-local context), whatever the interleaving.
    std::vector<int> perChip(64, 0);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const DecisionRecord &r = trace.at(i);
        ASSERT_GE(r.chip, 0);
        ASSERT_LT(r.chip, 64);
        ++perChip[static_cast<std::size_t>(r.chip)];
    }
    for (int n : perChip)
        EXPECT_EQ(n, 8);
}

TEST(StatsConcurrency, TraceSequenceStampsAreUnique)
{
    DecisionTrace trace(4096);
    trace.setEnabled(true);
    ThreadPool pool(4);
    pool.parallelFor(0, 1000, 8, [&](std::size_t) {
        DecisionRecord r;
        r.outcome = "LowFreq";
        trace.record(std::move(r));
    });
    std::vector<bool> seen(1000, false);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const std::uint64_t seq = trace.at(i).sequence;
        ASSERT_LT(seq, 1000u);
        EXPECT_FALSE(seen[seq]);
        seen[seq] = true;
    }
}

TEST(StatsConcurrency, DisabledTraceRecordIsCheap)
{
    // Contract: record() on a disabled trace takes no lock and stores
    // nothing (one relaxed atomic load on the hot path).
    DecisionTrace trace;
    trace.setEnabled(false);
    ThreadPool pool(4);
    pool.parallelFor(0, 10000, 64, [&](std::size_t) {
        DecisionRecord r;
        trace.record(std::move(r));
    });
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_EQ(trace.size(), 0u);
}
