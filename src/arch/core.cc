#include "arch/core.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.hh"

namespace eval {

unsigned
CoreConfig::intQueueCapacity() const
{
    return static_cast<unsigned>(intQueueFull * queueCapacityFraction);
}

unsigned
CoreConfig::fpQueueCapacity() const
{
    return static_cast<unsigned>(fpQueueFull * queueCapacityFraction);
}

double
CoreStats::cpi() const
{
    return instructions ? static_cast<double>(cycles) /
                              static_cast<double>(instructions)
                        : 0.0;
}

double
CoreStats::ipc() const
{
    return cycles ? static_cast<double>(instructions) /
                        static_cast<double>(cycles)
                  : 0.0;
}

double
CoreStats::cpiComp() const
{
    if (!instructions)
        return 0.0;
    const std::uint64_t stall = memStallCycles + recoveryStallCycles;
    const std::uint64_t comp = cycles > stall ? cycles - stall : 0;
    return static_cast<double>(comp) / static_cast<double>(instructions);
}

double
CoreStats::missesPerInstruction() const
{
    return instructions ? static_cast<double>(l2Misses) /
                              static_cast<double>(instructions)
                        : 0.0;
}

double
CoreStats::missPenaltyCycles() const
{
    return l2Misses ? static_cast<double>(memStallCycles) /
                          static_cast<double>(l2Misses)
                    : 0.0;
}

double
CoreStats::alpha(SubsystemId id) const
{
    return cycles ? static_cast<double>(
                        accesses[static_cast<std::size_t>(id)]) /
                        static_cast<double>(cycles)
                  : 0.0;
}

double
CoreStats::rho(SubsystemId id) const
{
    return instructions ? static_cast<double>(
                              accesses[static_cast<std::size_t>(id)]) /
                              static_cast<double>(instructions)
                        : 0.0;
}

// Synthetic traces carry no inter-branch history correlation, so a
// long gshare history only adds aliasing noise; a short history keeps
// the per-PC bias information that is actually learnable.
Core::Core(const CoreConfig &cfg, std::uint64_t seed)
    : cfg_(cfg), rng_(seed), bpred_(12, 4), l2_(cfg.l2),
      icache_(cfg.l1i, l2_, cfg.memLat),
      dcache_(cfg.l1d, l2_, cfg.memLat),
      rob_(std::bit_ceil(std::max(cfg.robSize, 1u))),
      robMask_(rob_.size() - 1),
      fetchQueue_(rob_.size()),
      issueCand_(cfg.robSize),
      pendingWake_(cfg.robSize),
      wakeScratch_(cfg.robSize)
{
    EVAL_ASSERT(cfg.queueCapacityFraction > 0.0 &&
                    cfg.queueCapacityFraction <= 1.0,
                "queue capacity fraction in (0,1]");
    missComplete_.reserve(cfg.mshrs);
    // A sleeper waits at most one op latency: 1 + the slowest memory
    // level for a load, 16 cycles for FpDiv.  The wheel spans more
    // than that, so live wake cycles never share a slot.
    const std::uint64_t maxLatency = std::max<std::uint64_t>(
        1 + std::max({cfg.memLat.l1, cfg.memLat.l2, cfg.memLat.memory}),
        16);
    const std::uint64_t horizon = std::max<std::uint64_t>(
        std::bit_ceil(maxLatency + 1), 64);
    wheelMask_ = horizon - 1;
    wheelHead_.assign(horizon, kNoWaiter);
    wheelBits_.assign(horizon / 64, 0);
}

void
Core::setErrorInjection(double perInstProbability, unsigned penaltyCycles)
{
    EVAL_ASSERT(perInstProbability >= 0.0 && perInstProbability <= 1.0,
                "error probability in [0,1]");
    errorProb_ = perInstProbability;
    errorPenalty_ = penaltyCycles;
}

void
Core::count(SubsystemId id, std::uint64_t n)
{
    stats_.accesses[static_cast<std::size_t>(id)] += n;
}

unsigned
Core::execLatency(const MicroOp &op, std::uint64_t now)
{
    switch (op.cls) {
      case OpClass::IntAlu:
      case OpClass::Branch:
        return 1;
      case OpClass::IntMul:
        return 4;
      case OpClass::FpAdd:
        return 3;
      case OpClass::FpMul:
        return 4;
      case OpClass::FpDiv:
        return 16;
      case OpClass::Store: {
        // Stores complete at address generation; the write-allocate
        // fill drains from the store buffer off the critical path, so
        // it costs no latency but does occupy the caches.
        count(SubsystemId::Dcache);
        count(SubsystemId::DTLB);
        const MemAccessResult res = dcache_.access(op.addr);
        if (res.level != MemLevel::L1)
            ++stats_.l1dMisses;
        if (res.level == MemLevel::Memory)
            ++stats_.l2Misses;
        return 1;
      }
      case OpClass::Load: {
        count(SubsystemId::Dcache);
        count(SubsystemId::DTLB);
        const MemAccessResult res = dcache_.access(op.addr);
        if (res.level != MemLevel::L1) {
            ++stats_.l1dMisses;
            // Optional next-line prefetch: fill the following line so
            // streaming accesses hit.  The fill happens off the
            // critical path (no latency charged here).
            if (cfg_.prefetchNextLine)
                dcache_.access(op.addr + cfg_.l1d.lineBytes);
        }
        if (res.level == MemLevel::Memory)
            ++stats_.l2Misses;
        return 1 + res.latency;
      }
      default:
        EVAL_PANIC("unknown op class ", static_cast<int>(op.cls), " at ",
                   now);
    }
}

unsigned
Core::dispatch(TraceSource &trace, std::uint64_t now)
{
    if (now < fetchResumeCycle_ || fetchBlockedOnBranch_)
        return 0;

    const std::size_t fqMask = fetchQueue_.size() - 1;
    bool accessedIcache = false;
    unsigned dispatched = 0;
    for (unsigned slot = 0; slot < cfg_.fetchWidth; ++slot) {
        if (robCount() >= cfg_.robSize)
            break;

        // Obtain the next op (replayed ops first).
        if (fqSize_ == 0) {
            MicroOp &pulled = fetchQueue_[fqHead_];
            if (!trace.next(pulled))
                break;
            fqSize_ = 1;
            EVAL_ASSERT(robCount() + fqSize_ <= cfg_.robSize,
                        "ROB + fetch queue over robSize");
        }
        const MicroOp &op = fetchQueue_[fqHead_];

        // Structural checks before consuming the op.
        const bool fpSide = isFpOp(op.cls);
        if (fpSide) {
            if (fpQueueOcc_ >= cfg_.fpQueueCapacity())
                break;
        } else {
            if (intQueueOcc_ >= cfg_.intQueueCapacity())
                break;
        }
        if (isMemOp(op.cls) && lsqOcc_ >= cfg_.lsqSize)
            break;

        // I-cache: one access per active fetch cycle; a miss stalls
        // the front end for the fill latency.
        if (!accessedIcache) {
            accessedIcache = true;
            count(SubsystemId::Icache);
            count(SubsystemId::ITLB);
            const MemAccessResult res = icache_.access(op.pc);
            if (res.level != MemLevel::L1) {
                ++stats_.l1iMisses;
                if (res.level == MemLevel::Memory) {
                    ++stats_.l2Misses;
                    ++stats_.l2MissesIStream;
                }
                fetchResumeCycle_ = now + res.latency;
                break;
            }
        }

        const std::uint64_t seq = nextSeq_++;
        InFlight &inf = robAt(seq);
        inf = InFlight{.op = op, .seq = seq, .isFpSide = fpSide};
        fqHead_ = (fqHead_ + 1) & fqMask;
        --fqSize_;
        ++dispatched;
        // Seqs only grow, so appending keeps the candidates sorted.
        issueCand_.push(IssueCand{seq, inf.op.cls});

        count(SubsystemId::Decode);
        count(fpSide ? SubsystemId::FPMap : SubsystemId::IntMap);
        count(fpSide ? SubsystemId::FPQ : SubsystemId::IntQ);
        if (fpSide)
            ++fpQueueOcc_;
        else
            ++intQueueOcc_;
        if (isMemOp(inf.op.cls)) {
            ++lsqOcc_;
            count(SubsystemId::LdStQ);
        }

        if (inf.op.cls == OpClass::Branch) {
            count(SubsystemId::BranchPred);
            ++stats_.branches;
            const bool mispredicted = bpred_.predictAndUpdate(
                inf.op.pc, inf.op.taken);
            if (mispredicted) {
                ++stats_.branchMispredicts;
                fetchBlockedOnBranch_ = true;
                pendingBranchSeq_ = seq;
                break;
            }
        }
    }
    return dispatched;
}

void
Core::sleep(std::uint64_t seq, std::uint64_t wake, std::uint64_t now)
{
    EVAL_ASSERT(wake > now && wake - now <= wheelMask_,
                "sleeper beyond the wheel horizon");
    const std::uint64_t slot = wake & wheelMask_;
    std::uint64_t &bits = wheelBits_[slot >> 6];
    const std::uint64_t bit = 1ULL << (slot & 63);
    robAt(seq).nextWaiter = (bits & bit) ? wheelHead_[slot] : kNoWaiter;
    wheelHead_[slot] = seq;
    bits |= bit;
}

void
Core::wakeSleepers(std::uint64_t now)
{
    // run() visits every cycle that holds a wake (a skip never jumps
    // past the next one), and live wake cycles span less than the
    // horizon, so the slot of `now` holds exactly the wakes due now.
    const std::uint64_t slot = now & wheelMask_;
    std::uint64_t &bits = wheelBits_[slot >> 6];
    const std::uint64_t bit = 1ULL << (slot & 63);
    if (!(bits & bit))
        return;
    bits &= ~bit;
    for (std::uint64_t s = wheelHead_[slot]; s != kNoWaiter;) {
        const InFlight &inf = robAt(s);
        wakeScratch_.push(IssueCand{s, inf.op.cls});
        s = inf.nextWaiter;
    }
}

std::uint64_t
Core::nextSleeperWake(std::uint64_t now) const
{
    // Scan the bitmap cyclically from the slot after `now`.
    const std::uint64_t words = wheelBits_.size();
    const std::uint64_t start = (now + 1) & wheelMask_;
    std::uint64_t w = start >> 6;
    std::uint64_t bits = wheelBits_[w] & (~0ULL << (start & 63));
    for (std::uint64_t i = 0; i <= words; ++i) {
        if (bits) {
            const std::uint64_t slot =
                (w << 6) | static_cast<std::uint64_t>(std::countr_zero(bits));
            return now + 1 + ((slot - start) & wheelMask_);
        }
        w = (w + 1) % words;
        bits = wheelBits_[w];
    }
    return kNoWaiter;
}

std::uint64_t
Core::nextEvent(std::uint64_t now) const
{
    std::uint64_t next = nextSleeperWake(now);
    if (robCount() != 0) {
        const InFlight &head = robAt(robHeadSeq_);
        if (head.issued)
            next = std::min(next, head.completeCycle);
    }
    if (fetchResumeCycle_ > now)
        next = std::min(next, fetchResumeCycle_);
    if (!missComplete_.empty())
        next = std::min(next, mshrMinFill_);
    if (fpDivBusyUntil_ > now)
        next = std::min(next, fpDivBusyUntil_);
    return next;
}

unsigned
Core::issue(std::uint64_t now)
{
    unsigned issued = 0;
    unsigned aluUsed = 0, mulUsed = 0, faddUsed = 0, fmulUsed = 0;

    // MSHR occupancy: once the earliest fill has passed, drop every
    // completed fill (now is monotone within a run, so a pruned entry
    // can never count again); the rest are in flight.
    if (mshrMinFill_ <= now) {
        std::uint64_t minFill = kNoWaiter;
        std::size_t keep = 0;
        for (const std::uint64_t c : missComplete_) {
            if (c > now) {
                missComplete_[keep++] = c;
                minFill = std::min(minFill, c);
            }
        }
        missComplete_.resize(keep);
        mshrMinFill_ = minFill;
    }
    unsigned missesInFlight =
        static_cast<unsigned>(missComplete_.size());

    // Wake parked entries whose gate has opened: sleepers whose wake
    // cycle has arrived, and consumers whose producer issued last
    // cycle.  Merging the wakes back in seq order keeps the candidate
    // visit order identical to a full ROB scan.
    wakeScratch_.size = 0;
    wakeSleepers(now);
    if (!pendingWake_.empty()) {
        std::copy(pendingWake_.data.get(),
                  pendingWake_.data.get() + pendingWake_.size,
                  wakeScratch_.data.get() + wakeScratch_.size);
        wakeScratch_.size += pendingWake_.size;
        pendingWake_.size = 0;
    }
    if (!wakeScratch_.empty()) {
        // A cycle wakes a handful of entries at most: insertion sort
        // beats a general sort at this size, and a backward
        // two-pointer merge into the widened list avoids
        // inplace_merge's temporary buffer.
        IssueCand *const ws = wakeScratch_.data.get();
        for (std::size_t i = 1; i < wakeScratch_.size; ++i) {
            const IssueCand v = ws[i];
            std::size_t j = i;
            while (j > 0 && ws[j - 1].seq > v.seq) {
                ws[j] = ws[j - 1];
                --j;
            }
            ws[j] = v;
        }
        IssueCand *const ic = issueCand_.data.get();
        std::ptrdiff_t a = static_cast<std::ptrdiff_t>(issueCand_.size) - 1;
        std::ptrdiff_t b = static_cast<std::ptrdiff_t>(wakeScratch_.size) - 1;
        issueCand_.size += wakeScratch_.size;
        std::ptrdiff_t w = static_cast<std::ptrdiff_t>(issueCand_.size) - 1;
        while (b >= 0) {
            if (a >= 0 && ic[a].seq > ws[b].seq)
                ic[w--] = ic[a--];
            else
                ic[w--] = ws[b--];
        }
    }

    // Visit the candidates in seq (= ROB) order, compacting in place:
    // entries that issue or park drop out, the rest stay for the next
    // cycle.  A class-level structural gate runs first so an entry
    // whose functional-unit class is already exhausted this cycle is
    // kept without touching the ROB or rechecking dependencies — the
    // full scan would have reached the same `continue` after the dep
    // check, and the dep check writes nothing, so skipping it is
    // unobservable.
    IssueCand *const cand = issueCand_.data.get();
    std::size_t keepCand = 0;
    const std::size_t numCand = issueCand_.size;
    for (std::size_t r = 0; r < numCand; ++r) {
        const IssueCand c = cand[r];
        if (issued >= cfg_.issueWidth) {
            // Width exhausted: nothing later can issue — bulk-keep
            // the remaining tail in one move.
            std::memmove(cand + keepCand, cand + r,
                         (numCand - r) * sizeof(IssueCand));
            keepCand += numCand - r;
            break;
        }

        bool fuBlocked = false;
        switch (c.cls) {
          case OpClass::Load:
            // A load that may miss needs an MSHR; when all are busy
            // the load waits (memory-level-parallelism limit).
            fuBlocked = missesInFlight >= cfg_.mshrs ||
                        aluUsed >= cfg_.intAluCount;
            break;
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Store:
            fuBlocked = aluUsed >= cfg_.intAluCount;
            break;
          case OpClass::IntMul:
            fuBlocked = mulUsed >= cfg_.intMulCount;
            break;
          case OpClass::FpAdd:
            fuBlocked = faddUsed >= cfg_.fpAddCount;
            break;
          case OpClass::FpMul:
            fuBlocked = fmulUsed >= cfg_.fpMulCount;
            break;
          case OpClass::FpDiv:
            fuBlocked = fmulUsed >= cfg_.fpMulCount ||
                        fpDivBusyUntil_ > now;
            break;
          default:
            EVAL_PANIC("unknown op class in issue");
        }
        if (fuBlocked) {
            // Structural conflicts carry no wake event — stay a
            // candidate and retry next cycle.
            cand[keepCand++] = c;
            continue;
        }

        InFlight &inf = robAt(c.seq);

        // Operand readiness via backward dependency distances.
        bool ready = true;
        std::uint64_t blockCycle = 0;
        std::uint64_t blockProdSeq = kNoWaiter;
        auto checkDep = [&](std::uint16_t dist) {
            if (!ready || dist == 0)
                return;
            if (dist > inf.seq)
                return;   // producer predates the trace window
            const std::uint64_t prodSeq = inf.seq - dist;
            if (prodSeq < robHeadSeq_)
                return;   // producer already retired
            const InFlight &prod = robAt(prodSeq);
            if (!prod.issued) {
                // No time bound exists until the producer issues —
                // park on that producer's waiter chain.
                ready = false;
                blockProdSeq = prodSeq;
                return;
            }
            if (prod.completeCycle > now) {
                ready = false;
                blockCycle = prod.completeCycle;
            }
        };
        checkDep(inf.op.src1Dist);
        checkDep(inf.op.src2Dist);
        if (!ready) {
            // Park until the gate opens; the skipped rechecks could
            // only have hit this same branch again.
            if (blockProdSeq != kNoWaiter) {
                InFlight &prod = robAt(blockProdSeq);
                inf.nextWaiter = prod.firstWaiter;
                prod.firstWaiter = c.seq;
            } else {
                sleep(c.seq, blockCycle, now);
            }
            continue;
        }

        // The structural gate above already reserved this entry a
        // unit; allocate it and issue.
        switch (inf.op.cls) {
          case OpClass::Load:
          case OpClass::IntAlu:
          case OpClass::Branch:
          case OpClass::Store:
            ++aluUsed;
            count(SubsystemId::IntALU);
            count(SubsystemId::IntReg);
            break;
          case OpClass::IntMul:
            ++mulUsed;
            count(SubsystemId::IntALU);
            count(SubsystemId::IntReg);
            break;
          case OpClass::FpAdd:
            ++faddUsed;
            count(SubsystemId::FPUnit);
            count(SubsystemId::FPReg);
            break;
          case OpClass::FpMul:
          case OpClass::FpDiv:
            ++fmulUsed;
            count(SubsystemId::FPUnit);
            count(SubsystemId::FPReg);
            break;
          default:
            EVAL_PANIC("unknown op class in issue");
        }

        inf.issued = true;
        // Wake the consumers parked on this entry; they re-enter the
        // candidate list next cycle, by which point this result is at
        // least a cycle from completing — exactly when the full scan
        // would first have seen them unblocked.
        for (std::uint64_t ws = inf.firstWaiter; ws != kNoWaiter;) {
            const InFlight &waiter = robAt(ws);
            pendingWake_.push(IssueCand{ws, waiter.op.cls});
            ws = waiter.nextWaiter;
        }
        inf.firstWaiter = kNoWaiter;
        inf.completeCycle = now + execLatency(inf.op, now);
        if (inf.op.cls == OpClass::FpDiv)
            fpDivBusyUntil_ = inf.completeCycle;
        if (inf.op.cls == OpClass::Load &&
            inf.completeCycle - now > cfg_.memLat.l1 + 1) {
            ++missesInFlight;
            missComplete_.push_back(inf.completeCycle);
            mshrMinFill_ = std::min(mshrMinFill_, inf.completeCycle);
        }
        ++issued;

        if (inf.isFpSide) {
            EVAL_ASSERT(fpQueueOcc_ > 0, "fp queue underflow");
            --fpQueueOcc_;
        } else {
            EVAL_ASSERT(intQueueOcc_ > 0, "int queue underflow");
            --intQueueOcc_;
        }

        // A mispredicted branch redirects the front end once it
        // resolves; FU replication adds one cycle to this loop.
        if (fetchBlockedOnBranch_ && inf.seq == pendingBranchSeq_) {
            const std::uint64_t redirect =
                inf.completeCycle + 1 + cfg_.frontendDepth +
                (cfg_.fuReplicated ? 1 : 0);
            fetchBlockedOnBranch_ = false;
            fetchResumeCycle_ = std::max(fetchResumeCycle_, redirect);
        }
    }
    issueCand_.size = keepCand;
    return issued;
}

void
Core::squashAll(std::uint64_t resumeCycle)
{
    // Return the squashed ops to the front of the fetch queue in
    // program order; they will be re-fetched and re-executed.
    const std::size_t fqMask = fetchQueue_.size() - 1;
    for (std::uint64_t seq = nextSeq_; seq-- > robHeadSeq_;) {
        fqHead_ = (fqHead_ + fqMask) & fqMask;
        fetchQueue_[fqHead_] = robAt(seq).op;
        ++fqSize_;
    }
    EVAL_ASSERT(fqSize_ <= cfg_.robSize, "fetch queue over robSize");
    robHeadSeq_ = nextSeq_;
    missComplete_.clear();
    mshrMinFill_ = kNoWaiter;
    issueCand_.size = 0;
    pendingWake_.size = 0;
    std::fill(wheelBits_.begin(), wheelBits_.end(), 0);

    intQueueOcc_ = fpQueueOcc_ = lsqOcc_ = 0;
    fetchBlockedOnBranch_ = false;
    fetchResumeCycle_ = std::max(fetchResumeCycle_, resumeCycle);
}

unsigned
Core::retire(std::uint64_t now, unsigned maxRetire)
{
    unsigned retired = 0;
    const unsigned width = std::min(cfg_.retireWidth, maxRetire);
    while (retired < width && robCount() != 0) {
        const InFlight &head = robAt(robHeadSeq_);
        if (!head.issued || head.completeCycle > now)
            break;

        if (isMemOp(head.op.cls)) {
            EVAL_ASSERT(lsqOcc_ > 0, "lsq underflow");
            --lsqOcc_;
        }

        ++stats_.instructions;
        ++retired;

        ++robHeadSeq_;

        // Diva checker: with probability errorProb_ the result was a
        // variation-induced timing error; the checker supplies the
        // correct value and the pipeline restarts after this
        // instruction (Sec 3.1).
        if (errorProb_ > 0.0 && rng_.bernoulli(errorProb_)) {
            ++stats_.errorRecoveries;
            stats_.recoveryStallCycles += errorPenalty_;
            squashAll(now + errorPenalty_);
            return retired;
        }
    }
    return retired;
}

CoreStats
Core::run(TraceSource &trace, std::uint64_t numInstructions)
{
    stats_ = CoreStats{};
    robHeadSeq_ = nextSeq_ = 0;
    fqHead_ = fqSize_ = 0;
    missComplete_.clear();
    mshrMinFill_ = kNoWaiter;
    issueCand_.size = 0;
    pendingWake_.size = 0;
    std::fill(wheelBits_.begin(), wheelBits_.end(), 0);
    fetchResumeCycle_ = 0;
    fetchBlockedOnBranch_ = false;
    intQueueOcc_ = fpQueueOcc_ = lsqOcc_ = 0;
    fpDivBusyUntil_ = 0;

    // The watchdog fires when this many cycles pass without a retire.
    constexpr std::uint64_t kDeadlockCycles = 200000;
    std::uint64_t now = 0;
    std::uint64_t lastProgress = 0;
    std::uint64_t lastInstCount = 0;

    while (stats_.instructions < numInstructions) {
        const unsigned remaining = static_cast<unsigned>(std::min<
            std::uint64_t>(numInstructions - stats_.instructions,
                           cfg_.retireWidth));
        const unsigned retired = retire(now, remaining);

        // Account a memory-stall cycle when retirement is fully
        // blocked by a load still waiting on main memory.
        const InFlight &head = robAt(robHeadSeq_);
        const bool memStalled =
            retired == 0 && robCount() != 0 && head.issued &&
            head.op.cls == OpClass::Load && head.completeCycle > now &&
            head.completeCycle - now >= cfg_.memLat.l2;
        if (memStalled)
            ++stats_.memStallCycles;

        const unsigned issued = issue(now);
        const unsigned dispatched = dispatch(trace, now);

        std::uint64_t next = now + 1;
        if (retired == 0 && issued == 0 && dispatched == 0 &&
            pendingWake_.empty()) {
            // Dead cycle: nothing can change before the next event, so
            // jump there — capped at the watchdog's firing cycle, so a
            // deadlock still panics at the same cycle.  Each skipped
            // cycle c would have seen the same stalled head, counting
            // a memory stall while head.completeCycle - c >= l2.
            next = std::min(nextEvent(now),
                            lastProgress + kDeadlockCycles + 1);
            if (memStalled && next > now + 1) {
                const std::uint64_t lastStall = std::min(
                    next - 1, head.completeCycle - cfg_.memLat.l2);
                if (lastStall > now)
                    stats_.memStallCycles += lastStall - now;
            }
        }
        now = next;

        if (stats_.instructions != lastInstCount) {
            lastInstCount = stats_.instructions;
            lastProgress = now;
        } else if (now - lastProgress > kDeadlockCycles) {
            EVAL_PANIC("core deadlock at cycle ", now, " after ",
                       stats_.instructions, " instructions");
        }
    }
    stats_.cycles = now;
    return stats_;
}

} // namespace eval
