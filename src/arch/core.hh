/**
 * @file
 * Trace-driven out-of-order core model (the SESC substitute).
 *
 * Models a 3-issue core in the style of the paper's AMD Athlon 64
 * baseline: fetch/dispatch, separate integer and FP issue queues
 * (resizable to 3/4 capacity, Sec 3.3.2), a unified ROB, an LSQ, a
 * gshare branch predictor, two cache levels with the Figure 7(a)
 * latencies, per-class functional units, and a Diva-style checker
 * hook that injects timing-error recoveries at retirement.
 *
 * The simulator produces exactly what Eq 5 consumes: CPIcomp, the L2
 * miss rate and observed non-overlapped miss penalty, and the
 * per-subsystem activity factors (accesses per cycle and per
 * instruction) that drive the power/thermal models and the error
 * model's rho_i weights.
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "arch/branch_predictor.hh"
#include "arch/cache.hh"
#include "arch/isa.hh"
#include "util/random.hh"
#include "variation/floorplan.hh"

namespace eval {

/** Static core configuration. */
struct CoreConfig
{
    unsigned fetchWidth = 3;
    unsigned issueWidth = 3;
    unsigned retireWidth = 3;
    unsigned robSize = 96;
    unsigned lsqSize = 44;

    /** Full-sized issue queues (Figure 7(a)). */
    unsigned intQueueFull = 68;
    unsigned fpQueueFull = 32;
    /** 1.0 or 0.75 (the resizing technique of Sec 3.3.2). */
    double queueCapacityFraction = 1.0;

    /** Functional-unit counts (3 add/shift + 1 mult integer cluster;
     *  1 FP adder + 1 FP multiplier, Figure 7(a)). */
    unsigned intAluCount = 3;
    unsigned intMulCount = 1;
    unsigned fpAddCount = 1;
    unsigned fpMulCount = 1;

    /** Front-end depth: cycles to refill after a redirect. */
    unsigned frontendDepth = 10;

    /** Miss-status holding registers: outstanding-miss limit. */
    unsigned mshrs = 16;

    /** Next-line prefetch into the data hierarchy on an L1D miss. */
    bool prefetchNextLine = false;

    /**
     * FU replication (Sec 3.3.1) inserts one stage between register
     * read and execute, lengthening branch-resolution loops by one
     * cycle without hurting back-to-back ALU ops.
     */
    bool fuReplicated = false;

    CacheConfig l1i{64 * 1024, 64, 2};
    CacheConfig l1d{64 * 1024, 64, 2};
    CacheConfig l2{1024 * 1024, 64, 8};
    MemLatencies memLat{};

    unsigned intQueueCapacity() const;
    unsigned fpQueueCapacity() const;
};

/** Counters collected by a simulation run. */
struct CoreStats
{
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::uint64_t branches = 0;
    std::uint64_t branchMispredicts = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2MissesIStream = 0;   ///< subset of l2Misses
    std::uint64_t l1dMisses = 0;
    std::uint64_t l1iMisses = 0;
    std::uint64_t memStallCycles = 0;       ///< retire blocked on memory
    std::uint64_t errorRecoveries = 0;      ///< checker-triggered flushes
    std::uint64_t recoveryStallCycles = 0;
    std::array<std::uint64_t, kNumSubsystems> accesses{};

    double cpi() const;
    double ipc() const;
    /** Computation CPI: total minus memory and recovery stalls. */
    double cpiComp() const;
    /** L2 misses per instruction (Eq 5's mr). */
    double missesPerInstruction() const;
    /** Observed non-overlapped penalty per miss, cycles (Eq 5's mp). */
    double missPenaltyCycles() const;
    /** Accesses per cycle for a subsystem (alpha_f). */
    double alpha(SubsystemId id) const;
    /** Accesses per instruction for a subsystem (rho_i). */
    double rho(SubsystemId id) const;
};

/** The core simulator. */
class Core
{
  public:
    Core(const CoreConfig &cfg, std::uint64_t seed);

    /**
     * Enable checker-recovery injection: each retiring instruction
     * flushes the pipeline with probability @p perInstProbability and
     * costs ~@p penaltyCycles (Diva recovery, Sec 3.1).
     */
    void setErrorInjection(double perInstProbability,
                           unsigned penaltyCycles);

    /** Run until @p numInstructions retire; returns the counters. */
    CoreStats run(TraceSource &trace, std::uint64_t numInstructions);

  private:
    struct InFlight
    {
        MicroOp op;
        std::uint64_t seq = 0;
        std::uint64_t completeCycle = 0; ///< result available
        /** Intrusive wait chain: seqs of unissued consumers parked on
         *  this entry, woken when it issues (kNoWaiter = none).  An
         *  entry parked on the sleeper wheel is on no waiter chain, so
         *  the wheel links its slot lists through nextWaiter too. */
        std::uint64_t firstWaiter = kNoWaiter;
        std::uint64_t nextWaiter = kNoWaiter;
        bool issued = false;
        bool isFpSide = false;
    };

    /** Sentinel seq for the InFlight waiter chains. */
    static constexpr std::uint64_t kNoWaiter = ~0ULL;

    struct IssueCand
    {
        std::uint64_t seq;
        OpClass cls;
    };

    /** Fixed-capacity list: storage is allocated once per Core, so
     *  growth does no capacity check and no value-initialization.
     *  Callers guarantee the bound (see the issue-list comment). */
    struct CandList
    {
        std::unique_ptr<IssueCand[]> data;
        std::size_t size = 0;

        explicit CandList(std::size_t cap) : data(new IssueCand[cap]) {}
        void push(const IssueCand &c) { data[size++] = c; }
        bool empty() const { return size == 0; }
    };

    /** Returns the number of ops dispatched. */
    unsigned dispatch(TraceSource &trace, std::uint64_t now);
    /** Returns the number of ops issued. */
    unsigned issue(std::uint64_t now);
    unsigned retire(std::uint64_t now, unsigned maxRetire);
    /** Squash every in-flight op back to the fetch queue. */
    void squashAll(std::uint64_t resumeCycle);
    unsigned execLatency(const MicroOp &op, std::uint64_t now);
    void count(SubsystemId id, std::uint64_t n = 1);

    InFlight &robAt(std::uint64_t seq) { return rob_[seq & robMask_]; }
    const InFlight &
    robAt(std::uint64_t seq) const
    {
        return rob_[seq & robMask_];
    }
    std::uint64_t robCount() const { return nextSeq_ - robHeadSeq_; }
    /** Park @p seq on the sleeper wheel until cycle @p wake. */
    void sleep(std::uint64_t seq, std::uint64_t wake, std::uint64_t now);
    /** Move the sleepers due at @p now into wakeScratch_. */
    void wakeSleepers(std::uint64_t now);
    /** First cycle after @p now with a wheel wake (kNoWaiter: none). */
    std::uint64_t nextSleeperWake(std::uint64_t now) const;
    /** First cycle after @p now at which a dead machine can change. */
    std::uint64_t nextEvent(std::uint64_t now) const;

    CoreConfig cfg_;
    Rng rng_;
    GsharePredictor bpred_;
    Cache l2_;
    CacheHierarchy icache_;
    CacheHierarchy dcache_;

    double errorProb_ = 0.0;
    unsigned errorPenalty_ = 14;

    // Transient machine state.  Every structure is sized once per Core
    // from cfg_, so a simulated cycle does no heap work.
    //
    // The ROB is a ring indexed by seq & robMask_: it holds seqs
    // [robHeadSeq_, nextSeq_), contiguous because dispatch assigns
    // seqs in order, retire pops the head and a squash empties it.
    // The fetch queue is a ring of replayed and freshly pulled ops.
    // ROB + fetch queue never exceeds robSize: a trace pull happens
    // only into an empty fetch queue while the ROB has room, dispatch
    // moves an op from one to the other, and a squash moves the ROB
    // back without adding anything — so both rings get the ROB's
    // power-of-two capacity.
    std::vector<InFlight> rob_;
    std::uint64_t robMask_ = 0;
    std::uint64_t robHeadSeq_ = 0;
    std::vector<MicroOp> fetchQueue_;
    std::size_t fqHead_ = 0;
    std::size_t fqSize_ = 0;
    /** Completion cycles of issued loads occupying an MSHR.  Entries
     *  are pushed when a missing load issues, pruned only once the
     *  earliest of them (mshrMinFill_) has passed — time only moves
     *  forward within a run — and cleared on a squash.  Bounded by
     *  cfg_.mshrs: the issue stage stops allocating at the limit. */
    std::vector<std::uint64_t> missComplete_;
    std::uint64_t mshrMinFill_ = kNoWaiter;
    /**
     * Event-driven issue scheduling.  Instead of scanning the whole
     * ROB every cycle, issue() only visits `issueCand_`: the seqs
     * (ascending, i.e. program order) of unissued entries that could
     * plausibly issue this cycle.  An entry that fails its dependency
     * check leaves the candidate list and parks on one of two wake
     * structures:
     *   - the sleeper wheel, when the blocking producer had issued —
     *     readiness is then purely a matter of reaching the producer's
     *     completion cycle.  The wheel has one slot per cycle of a
     *     power-of-two horizon longer than the longest latency; each
     *     slot heads a list linked through InFlight::nextWaiter, and
     *     an occupancy bitmap finds the next wake with ctz;
     *   - the blocking producer's intrusive waiter chain when it had
     *     not issued — nothing can change for the consumer until that
     *     specific producer issues, at which point the chain is walked
     *     into `pendingWake_` for the next cycle's pass.
     * Woken seqs are sorted and merged back in seq order before the
     * pass, so the entries visited in any cycle are a superset of
     * those that could issue, in exactly the ROB-scan order: issue
     * order, stats, and cycle counts are unchanged.  A deferred wake
     * is sound because a parked entry's recheck would provably have
     * hit `continue`.
     *
     * Candidates carry the op class so a structurally blocked entry
     * (functional unit exhausted, MSHRs full, issue width reached) is
     * skipped without touching the ROB at all.  Each unissued entry
     * sits in exactly one of issueCand_, pendingWake_, the wheel or a
     * waiter chain, so robSize bounds every candidate list.
     *
     * Dead-cycle skip: when a cycle retires, issues and dispatches
     * nothing, the machine cannot change until the next event (a
     * wheel wake, the ROB head completing, the front end resuming, an
     * MSHR fill or the FP divider freeing), so run() jumps straight to
     * it and credits the skipped memory-stall cycles arithmetically.
     */
    CandList issueCand_;
    CandList pendingWake_;
    CandList wakeScratch_;
    std::vector<std::uint64_t> wheelHead_;
    std::vector<std::uint64_t> wheelBits_;
    std::uint64_t wheelMask_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fetchResumeCycle_ = 0;
    std::uint64_t pendingBranchSeq_ = 0;
    bool fetchBlockedOnBranch_ = false;
    unsigned intQueueOcc_ = 0;
    unsigned fpQueueOcc_ = 0;
    unsigned lsqOcc_ = 0;
    std::uint64_t fpDivBusyUntil_ = 0;

    CoreStats stats_;
};

} // namespace eval

