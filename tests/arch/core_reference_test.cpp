/**
 * Differential test: Core::run against a reference core.
 *
 * The reference is the simulator written the slow, obvious way: every
 * cycle rescans the whole ROB for issue in program order, recounts
 * queue, LSQ and MSHR occupancy from the ROB, and steps one cycle at
 * a time.  It shares only the building blocks (caches, predictor,
 * RNG) with Core, so any scheduling shortcut in Core — event-driven
 * wakeups, occupancy counters, dead-cycle skipping — that changes a
 * single counter shows up as a field mismatch here.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "arch/core.hh"
#include "util/logging.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace eval {
namespace {

class ReferenceCore
{
  public:
    ReferenceCore(const CoreConfig &cfg, std::uint64_t seed)
        : cfg_(cfg), rng_(seed), bpred_(12, 4), l2_(cfg.l2),
          icache_(cfg.l1i, l2_, cfg.memLat), dcache_(cfg.l1d, l2_, cfg.memLat)
    {
    }

    void
    setErrorInjection(double p, unsigned penalty)
    {
        errorProb_ = p;
        errorPenalty_ = penalty;
    }

    CoreStats
    run(TraceSource &trace, std::uint64_t numInstructions)
    {
        s_ = CoreStats{};
        rob_.clear();
        fetchQueue_.clear();
        nextSeq_ = fetchResume_ = fpDivBusyUntil_ = 0;
        blockedOnBranch_ = false;
        std::uint64_t now = 0, lastProgress = 0, lastCount = 0;
        while (s_.instructions < numInstructions) {
            const unsigned retired = retire(
                now, static_cast<unsigned>(std::min<std::uint64_t>(
                         numInstructions - s_.instructions,
                         cfg_.retireWidth)));
            if (retired == 0 && !rob_.empty()) {
                const Entry &h = rob_.front();
                if (h.issued && h.op.cls == OpClass::Load &&
                    h.complete > now && h.complete - now >= cfg_.memLat.l2)
                    ++s_.memStallCycles;
            }
            issue(now);
            dispatch(trace, now);
            ++now;
            if (s_.instructions != lastCount) {
                lastCount = s_.instructions;
                lastProgress = now;
            } else if (now - lastProgress > 200000) {
                EVAL_PANIC("reference core deadlock at cycle ", now);
            }
        }
        s_.cycles = now;
        return s_;
    }

  private:
    struct Entry
    {
        MicroOp op;
        std::uint64_t seq = 0;
        std::uint64_t complete = 0;
        bool issued = false;
        bool mshr = false;
    };

    void cnt(SubsystemId id) { ++s_.accesses[static_cast<std::size_t>(id)]; }

    void
    dispatch(TraceSource &trace, std::uint64_t now)
    {
        if (now < fetchResume_ || blockedOnBranch_)
            return;
        unsigned intQ = 0, fpQ = 0, lsq = 0;
        for (const Entry &e : rob_) {
            if (!e.issued)
                ++(isFpOp(e.op.cls) ? fpQ : intQ);
            lsq += isMemOp(e.op.cls) ? 1 : 0;
        }
        bool fetched = false;
        for (unsigned slot = 0; slot < cfg_.fetchWidth; ++slot) {
            if (rob_.size() >= cfg_.robSize)
                break;
            MicroOp op;
            if (!fetchQueue_.empty()) {
                op = fetchQueue_.front();
            } else {
                if (!trace.next(op))
                    break;
                fetchQueue_.push_back(op);
            }
            const bool fp = isFpOp(op.cls);
            if (fp ? fpQ >= cfg_.fpQueueCapacity()
                   : intQ >= cfg_.intQueueCapacity())
                break;
            if (isMemOp(op.cls) && lsq >= cfg_.lsqSize)
                break;
            if (!fetched) {
                fetched = true;
                cnt(SubsystemId::Icache);
                cnt(SubsystemId::ITLB);
                const MemAccessResult r = icache_.access(op.pc);
                if (r.level != MemLevel::L1) {
                    ++s_.l1iMisses;
                    if (r.level == MemLevel::Memory) {
                        ++s_.l2Misses;
                        ++s_.l2MissesIStream;
                    }
                    fetchResume_ = now + r.latency;
                    break;
                }
            }
            fetchQueue_.pop_front();
            Entry e;
            e.op = op;
            e.seq = nextSeq_++;
            rob_.push_back(e);
            cnt(SubsystemId::Decode);
            cnt(fp ? SubsystemId::FPMap : SubsystemId::IntMap);
            cnt(fp ? SubsystemId::FPQ : SubsystemId::IntQ);
            ++(fp ? fpQ : intQ);
            if (isMemOp(op.cls)) {
                ++lsq;
                cnt(SubsystemId::LdStQ);
            }
            if (op.cls == OpClass::Branch) {
                cnt(SubsystemId::BranchPred);
                ++s_.branches;
                if (bpred_.predictAndUpdate(op.pc, op.taken)) {
                    ++s_.branchMispredicts;
                    blockedOnBranch_ = true;
                    branchSeq_ = e.seq;
                    break;
                }
            }
        }
    }

    bool
    operandsReady(const Entry &e, std::uint64_t now) const
    {
        for (const std::uint16_t dist : {e.op.src1Dist, e.op.src2Dist}) {
            if (dist == 0 || dist > e.seq || e.seq - dist < rob_.front().seq)
                continue;
            const Entry &p = rob_[e.seq - dist - rob_.front().seq];
            if (!p.issued || p.complete > now)
                return false;
        }
        return true;
    }

    unsigned
    dataAccess(const MicroOp &op, bool prefetch)
    {
        cnt(SubsystemId::Dcache);
        cnt(SubsystemId::DTLB);
        const MemAccessResult r = dcache_.access(op.addr);
        if (r.level != MemLevel::L1) {
            ++s_.l1dMisses;
            if (prefetch && cfg_.prefetchNextLine)
                dcache_.access(op.addr + cfg_.l1d.lineBytes);
        }
        if (r.level == MemLevel::Memory)
            ++s_.l2Misses;
        return r.latency;
    }

    void
    issue(std::uint64_t now)
    {
        unsigned issued = 0, alu = 0, mul = 0, fadd = 0, fmul = 0;
        unsigned mshrs = 0;
        for (const Entry &e : rob_)
            mshrs += e.mshr && e.complete > now ? 1 : 0;
        for (Entry &e : rob_) {
            if (e.issued)
                continue;
            if (issued >= cfg_.issueWidth)
                break;
            if (!operandsReady(e, now))
                continue;
            const OpClass c = e.op.cls;
            unsigned lat = 1;
            if (c == OpClass::IntAlu || c == OpClass::Branch ||
                c == OpClass::Store || c == OpClass::Load) {
                if (alu >= cfg_.intAluCount ||
                    (c == OpClass::Load && mshrs >= cfg_.mshrs))
                    continue;
                ++alu;
                if (c == OpClass::Store)
                    dataAccess(e.op, false);
                else if (c == OpClass::Load)
                    lat = 1 + dataAccess(e.op, true);
            } else if (c == OpClass::IntMul) {
                if (mul >= cfg_.intMulCount)
                    continue;
                ++mul;
                lat = 4;
            } else if (c == OpClass::FpAdd) {
                if (fadd >= cfg_.fpAddCount)
                    continue;
                ++fadd;
                lat = 3;
            } else {
                if (fmul >= cfg_.fpMulCount ||
                    (c == OpClass::FpDiv && fpDivBusyUntil_ > now))
                    continue;
                ++fmul;
                lat = c == OpClass::FpDiv ? 16 : 4;
            }
            const bool fp = isFpOp(c);
            cnt(fp ? SubsystemId::FPUnit : SubsystemId::IntALU);
            cnt(fp ? SubsystemId::FPReg : SubsystemId::IntReg);
            e.issued = true;
            e.complete = now + lat;
            if (c == OpClass::FpDiv)
                fpDivBusyUntil_ = e.complete;
            if (c == OpClass::Load && lat > cfg_.memLat.l1 + 1) {
                e.mshr = true;
                ++mshrs;
            }
            ++issued;
            if (blockedOnBranch_ && e.seq == branchSeq_) {
                blockedOnBranch_ = false;
                fetchResume_ = std::max<std::uint64_t>(
                    fetchResume_, e.complete + 1 + cfg_.frontendDepth +
                                      (cfg_.fuReplicated ? 1 : 0));
            }
        }
    }

    unsigned
    retire(std::uint64_t now, unsigned maxRetire)
    {
        unsigned retired = 0;
        const unsigned width = std::min(cfg_.retireWidth, maxRetire);
        while (retired < width && !rob_.empty()) {
            const Entry &h = rob_.front();
            if (!h.issued || h.complete > now)
                break;
            ++s_.instructions;
            ++retired;
            rob_.pop_front();
            if (errorProb_ > 0.0 && rng_.bernoulli(errorProb_)) {
                ++s_.errorRecoveries;
                s_.recoveryStallCycles += errorPenalty_;
                for (std::size_t i = rob_.size(); i-- > 0;)
                    fetchQueue_.push_front(rob_[i].op);
                rob_.clear();
                blockedOnBranch_ = false;
                fetchResume_ = std::max(fetchResume_, now + errorPenalty_);
                return retired;
            }
        }
        return retired;
    }

    CoreConfig cfg_;
    Rng rng_;
    GsharePredictor bpred_;
    Cache l2_;
    CacheHierarchy icache_;
    CacheHierarchy dcache_;
    double errorProb_ = 0.0;
    unsigned errorPenalty_ = 14;

    CoreStats s_;
    std::deque<MicroOp> fetchQueue_;
    std::deque<Entry> rob_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fetchResume_ = 0;
    std::uint64_t fpDivBusyUntil_ = 0;
    std::uint64_t branchSeq_ = 0;
    bool blockedOnBranch_ = false;
};

void
expectSameStats(const CoreStats &ref, const CoreStats &got)
{
    EXPECT_EQ(ref.cycles, got.cycles);
    EXPECT_EQ(ref.instructions, got.instructions);
    EXPECT_EQ(ref.branches, got.branches);
    EXPECT_EQ(ref.branchMispredicts, got.branchMispredicts);
    EXPECT_EQ(ref.l2Misses, got.l2Misses);
    EXPECT_EQ(ref.l2MissesIStream, got.l2MissesIStream);
    EXPECT_EQ(ref.l1dMisses, got.l1dMisses);
    EXPECT_EQ(ref.l1iMisses, got.l1iMisses);
    EXPECT_EQ(ref.memStallCycles, got.memStallCycles);
    EXPECT_EQ(ref.errorRecoveries, got.errorRecoveries);
    EXPECT_EQ(ref.recoveryStallCycles, got.recoveryStallCycles);
    for (std::size_t i = 0; i < kNumSubsystems; ++i)
        EXPECT_EQ(ref.accesses[i], got.accesses[i]) << "subsystem " << i;
}

/** One app's differential sweep: every phase, both queue sizes,
 *  error injection off and on; a warm-up run then a measured run. */
class ReferenceCoreDiff : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ReferenceCoreDiff, EveryFieldMatches)
{
    constexpr std::uint64_t kInsts = 10000;
    const AppProfile &app = appByName(GetParam());
    const std::size_t phases = SyntheticTrace(app, 0).numPhases();
    for (std::size_t phase = 0; phase < phases; ++phase) {
        for (const double frac : {1.0, 0.75}) {
            for (const double errProb : {0.0, 1e-3}) {
                SCOPED_TRACE(::testing::Message()
                             << "phase " << phase << " queue " << frac
                             << " err " << errProb);
                CoreConfig cfg;
                cfg.queueCapacityFraction = frac;
                const std::uint64_t traceSeed = 5 ^ (phase * 7919);
                const std::uint64_t coreSeed = 5 ^ 0xC0DE ^ phase;
                SyntheticTrace tRef(app, traceSeed);
                SyntheticTrace tCore(app, traceSeed);
                tRef.pinPhase(phase);
                tCore.pinPhase(phase);
                ReferenceCore ref(cfg, coreSeed);
                Core core(cfg, coreSeed);
                ref.setErrorInjection(errProb, 14);
                core.setErrorInjection(errProb, 14);
                for (int run = 0; run < 2; ++run)
                    expectSameStats(ref.run(tRef, kInsts),
                                    core.run(tCore, kInsts));
            }
        }
    }
}

std::vector<std::string>
suiteNames()
{
    std::vector<std::string> names;
    for (const AppProfile &app : specSuite())
        names.push_back(app.name);
    return names;
}

INSTANTIATE_TEST_SUITE_P(Suite, ReferenceCoreDiff,
                         ::testing::ValuesIn(suiteNames()));

/** Edge configurations on two apps with opposite characters. */
TEST(ReferenceCoreDiffConfigs, EveryFieldMatches)
{
    const auto tweaks = {
        +[](CoreConfig &c) { c.mshrs = 1; },
        +[](CoreConfig &c) { c.prefetchNextLine = true; },
        +[](CoreConfig &c) { c.fuReplicated = true; },
        +[](CoreConfig &c) { c.memLat.memory = 300; },
    };
    int variant = 0;
    for (const auto tweak : tweaks) {
        for (const char *name : {"mcf", "swim"}) {
            SCOPED_TRACE(::testing::Message()
                         << "variant " << variant << " app " << name);
            CoreConfig cfg;
            tweak(cfg);
            SyntheticTrace tRef(appByName(name), 3);
            SyntheticTrace tCore(appByName(name), 3);
            ReferenceCore ref(cfg, 4);
            Core core(cfg, 4);
            ref.setErrorInjection(1e-3, 14);
            core.setErrorInjection(1e-3, 14);
            for (int run = 0; run < 2; ++run)
                expectSameStats(ref.run(tRef, 10000),
                                core.run(tCore, 10000));
        }
        ++variant;
    }
}

} // namespace
} // namespace eval
