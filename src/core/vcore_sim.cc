#include "core/vcore_sim.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"
#include "common/math_util.hh"
#include "obs/obs.hh"

namespace sharch {

#if SHARCH_OBS
namespace {

/** Registered once per process; per-thread shards keep bumps cheap. */
struct PipelineMetrics
{
    obs::MetricId instructions =
        obs::MetricsRegistry::instance().addCounter(
            "pipeline.instructions");
    obs::MetricId mispredicts =
        obs::MetricsRegistry::instance().addCounter(
            "pipeline.mispredicts");
    obs::HistogramHandle commitLatency =
        obs::MetricsRegistry::instance().addHistogram(
            "pipeline.commit_latency", 0.0, 16.0, 64);
};

PipelineMetrics &
pipelineMetrics()
{
    static PipelineMetrics m;
    return m;
}

} // namespace
#endif

namespace {

/** Decoupling between fetch and dispatch (instruction buffer depth
 *  expressed in cycles of slack before back-pressure stalls fetch). */
constexpr Cycles kBufferSlackCycles = 6;

/** Extra commit delay from the pre-commit pointer when s > 1. */
constexpr Cycles kPreCommitDelay = 2;

/** LSQ store-to-load forwarding latency. */
constexpr Cycles kForwardLatency = 2;

} // namespace

VCoreSim::VCoreSim(const SimConfig &cfg, VCoreId vc,
                   const FabricPlacement &placement, L2System &l2)
    : cfg_(cfg), vc_(vc), placement_(placement), l2_(&l2),
      s_(cfg.numSlices), slicePow2_(isPow2(cfg.numSlices)),
      sliceMask_(cfg.numSlices - 1),
      // Guarded so a degenerate config still reaches the validate()
      // diagnostic below instead of panicking in floorLog2.
      l1dBlockShift_(cfg.l1d.blockBytes > 0
                         ? floorLog2(cfg.l1d.blockBytes) : 0),
      l1iBlockShift_(cfg.l1i.blockBytes > 0
                         ? floorLog2(cfg.l1i.blockBytes) : 0),
      operandNet_(cfg.numSlices, cfg.network.baseOperandLatency,
                  cfg.network.perHopLatency,
                  cfg.network.operandNetworks *
                      cfg.network.injectionsPerCycle,
                  "operand"),
      sortNet_(cfg.numSlices, cfg.network.baseOperandLatency,
               cfg.network.perHopLatency, cfg.network.injectionsPerCycle,
               "sort"),
      predictor_(cfg.numSlices, cfg.slice.bimodalEntries,
                 cfg.slice.btbEntries),
      commitPort_(2 * cfg.numSlices),
      copyReady_(RenameState::kArchRegs),
      copyMask_(RenameState::kArchRegs, 0),
      copySeq_(RenameState::kArchRegs, 0)
{
    const std::string err = cfg_.validate();
    if (!err.empty())
        SHARCH_FATAL("invalid VCore configuration: ", err);
    SHARCH_ASSERT(placement_.numSlices() == s_,
                  "placement does not match Slice count");
    for (unsigned i = 0; i < s_; ++i) {
        l1i_.emplace_back(cfg_.l1i);
        l1d_.emplace_back(cfg_.l1d);
        rob_.emplace_back(cfg_.slice.robSize);
        issueQueue_.emplace_back(cfg_.slice.issueWindowSize);
        lsq_.emplace_back(cfg_.slice.lsqSize);
        lrf_.emplace_back(cfg_.slice.numLocalRegisters);
        storeBuffer_.emplace_back(cfg_.slice.storeBufferSize);
        mshr_.emplace_back(cfg_.slice.maxInflightLoads);
        aluPort_.emplace_back(1);
        lsPort_.emplace_back(1);
        l1dPort_.emplace_back(1);
    }
#if SHARCH_OBS
    if (obs::enabled()) {
        for (unsigned i = 0; i < s_; ++i) {
            obs::Tracer::instance().nameTrack(
                obs::kPidPipeline,
                static_cast<std::uint32_t>(
                    vc_ * SimConfig::kMaxSlices + i),
                "vc" + std::to_string(vc_) + ".slice" +
                    std::to_string(i));
        }
    }
#endif
}

std::vector<CacheModel *>
VCoreSim::l1dPointers()
{
    std::vector<CacheModel *> ptrs;
    for (auto &c : l1d_)
        ptrs.push_back(&c);
    return ptrs;
}

void
VCoreSim::prefillLine(Addr addr)
{
    l1d_[homeSliceOf(addr)].access(addr, false);
    l2_->prefill(vc_, addr);
}

SliceId
VCoreSim::fetchSliceOf(Addr pc) const
{
    // Interleaved fetch: PC pair p goes to Slice p mod s (section 3.1).
    const Addr pair = pc >> 3;
    return static_cast<SliceId>(slicePow2_ ? pair & sliceMask_
                                           : pair % s_);
}

SliceId
VCoreSim::homeSliceOf(Addr addr) const
{
    // Loads/stores are low-order interleaved by cache line so the same
    // line always sorts to the same Slice (section 3.5/3.6).
    const Addr line = addr >> l1dBlockShift_;
    return static_cast<SliceId>(slicePow2_ ? line & sliceMask_
                                           : line % s_);
}

unsigned
VCoreSim::frontDepth() const
{
    // fetch + decode + rename stages + dispatch.
    return 3 + renameDepth(s_);
}

Cycles
VCoreSim::readSource(RegIndex reg, SliceId my_slice, Cycles when)
{
    const Producer &p = rename_.lookup(reg);
    if (p.slice == my_slice || s_ == 1)
        return p.readyCycle;
    // A previous remote read may have left a copy in our LRF
    // (section 3.2.2: renamed remote operands are allocated locally so
    // subsequent reads do not generate new requests).
    if ((copyMask_[reg] & (1u << my_slice)) && copySeq_[reg] == p.seq)
        return copyReady_[reg][my_slice];

    const unsigned hops =
        placement_.sliceToSliceHops(p.slice, my_slice);
    const Cycles send_time = std::max(when, p.readyCycle);
    const Cycles arrive = operandNet_.send(p.slice, send_time, hops);
    ++stats_.operandRequests;
    ++stats_.operandReplies;
    stats_.operandNetworkHops += hops;

    if (copySeq_[reg] != p.seq) {
        copyMask_[reg] = static_cast<std::uint16_t>(1u << p.slice);
        copySeq_[reg] = p.seq;
    }
    copyMask_[reg] |= static_cast<std::uint16_t>(1u << my_slice);
    copyReady_[reg][my_slice] = arrive;
    return arrive;
}

void
VCoreSim::writeDest(RegIndex reg, SliceId slice, Cycles ready)
{
    rename_.define(reg, slice, ready, seq_);
    copyMask_[reg] = static_cast<std::uint16_t>(1u << slice);
    copySeq_[reg] = seq_;
    copyReady_[reg][slice] = ready;
}

Cycles
VCoreSim::fetchOne(const TraceInst &ti, SliceId slice)
{
    if (groupUsed_ == 0)
        curGroupCycle_ = nextFetchCycle_;
    Cycles fc = curGroupCycle_;

    // One L1 I-cache access per new fetch line.
    const Addr line = ti.pc >> l1iBlockShift_;
    if (line != lastFetchLine_) {
        ++stats_.l1iAccesses;
        const AccessResult r = l1i_[slice].access(ti.pc, false);
        if (!r.hit) {
            ++stats_.l1iMisses;
            const L2AccessResult l2r =
                l2_->access(vc_, slice, ti.pc, false, fc);
            ++stats_.l2Accesses;
            if (l2r.wentToMemory)
                ++stats_.l2Misses;
            const Cycles delay = l2r.doneCycle - fc;
            curGroupCycle_ += delay;
            fc = curGroupCycle_;
            stats_.addStall(Stage::Fetch, delay);
#if SHARCH_OBS
            if (obs::enabled()) {
                obs::Tracer::instance().record(
                    {"fetch_stall", "pipeline", fc - delay, fc,
                     obs::kPidPipeline,
                     static_cast<std::uint32_t>(
                         vc_ * SimConfig::kMaxSlices + slice),
                     delay, "cycles"});
            }
#endif
        }
        lastFetchLine_ = line;
    }

    ++groupUsed_;
    ++stats_.instructionsFetched;
    if (groupUsed_ >= cfg_.slice.fetchWidth * s_) {
        nextFetchCycle_ = std::max(nextFetchCycle_, curGroupCycle_ + 1);
        groupUsed_ = 0;
    }
    return fc;
}

void
VCoreSim::processOne(const TraceInst &ti)
{
    ++seq_;
    const SliceId slice = fetchSliceOf(ti.pc);

    // Branch prediction happens at fetch time, before training.
    BranchPrediction pred;
    bool mispredict = false;
    bool group_break = false;
    if (ti.isBranch()) {
        pred = predictor_.predict(ti.pc);
        const bool bad_direction = pred.predictTaken != ti.taken;
        // A BTB miss alone is a short fetch redirect (handled below),
        // not a pipeline flush; a *wrong* cached target does flush.
        const bool bad_target =
            ti.taken && pred.btbHit && pred.target != ti.target;
        mispredict = bad_direction || bad_target;
        group_break = ti.taken; // a taken branch ends the fetch group
    }

    const Cycles fetch_cycle = fetchOne(ti, slice);

    // ---- dispatch: front-end depth + structural constraints ----
    Cycles dispatch = fetch_cycle + frontDepth();
    if (s_ > 1)
        ++stats_.renameBroadcasts;
    struct Constraint { Cycles c; Stage stage; };
    Constraint limits[] = {
        {rob_[slice].allocConstraint(), Stage::Commit},
        {ti.dst != kNoReg ? lrf_[slice].allocConstraint() : 0,
         Stage::Rename},
        {ti.op == OpClass::Store
             ? storeBuffer_[slice].allocConstraint() : 0,
         Stage::Memory},
    };
    for (const Constraint &lim : limits) {
        if (lim.c > dispatch) {
            stats_.addStall(lim.stage, lim.c - dispatch);
            dispatch = lim.c;
        }
    }
    // Back-pressure: a stalled dispatch eventually stalls fetch for
    // every Slice (the instruction buffer is finite).
    if (dispatch > fetch_cycle + frontDepth() + kBufferSlackCycles) {
        nextFetchCycle_ = std::max(
            nextFetchCycle_,
            dispatch - frontDepth() - kBufferSlackCycles);
    }

    // ---- source operands ----
    Cycles src_ready = dispatch + 1;
    if (ti.src1 != kNoReg)
        src_ready = std::max(src_ready,
                             readSource(ti.src1, slice, dispatch));
    Cycles src2_ready = 0;
    if (ti.src2 != kNoReg)
        src2_ready = readSource(ti.src2, slice, dispatch);

    Cycles complete = 0;

    switch (ti.op) {
      case OpClass::IntAlu:
      case OpClass::IntMul: {
        const Cycles ready = std::max(src_ready, src2_ready);
        const Cycles win =
            issueQueue_[slice].allocate(dispatch, ready + 1);
        if (win > dispatch)
            stats_.addStall(Stage::Issue, win - dispatch);
        const Cycles issue =
            aluPort_[slice].schedule(std::max(ready, win + 1));
        complete = issue + (ti.op == OpClass::IntMul
                                ? cfg_.slice.mulLatency : 1);
        stats_.sumOperandWait += ready - (dispatch + 1);
        stats_.sumIssueWait += issue - ready;
        stats_.sumExecLatency += complete - issue;
        break;
      }
      case OpClass::Branch: {
        const Cycles ready = std::max(src_ready, src2_ready);
        const Cycles win =
            issueQueue_[slice].allocate(dispatch, ready + 1);
        if (win > dispatch)
            stats_.addStall(Stage::Issue, win - dispatch);
        const Cycles issue =
            aluPort_[slice].schedule(std::max(ready, win + 1));
        complete = issue + 1;
        ++stats_.branches;
        if (mispredict) {
            ++stats_.branchMispredicts;
            // Flush: local penalty plus cross-Slice flush messages.
            Cycles penalty = cfg_.slice.branchMispredictPenalty +
                             renameDepth(s_) - 1;
            if (s_ > 1)
                penalty += operandNet_.uncontendedLatency(s_ - 1);
            nextFetchCycle_ =
                std::max(nextFetchCycle_, complete + penalty);
            groupUsed_ = 0;
            stats_.squashedInstructions +=
                cfg_.slice.fetchWidth * s_;
            stats_.addStall(Stage::Fetch, penalty);
#if SHARCH_OBS
            if (obs::enabled()) {
                obs::Tracer::instance().record(
                    {"mispredict_flush", "pipeline", complete,
                     complete + penalty, obs::kPidPipeline,
                     static_cast<std::uint32_t>(
                         vc_ * SimConfig::kMaxSlices + slice),
                     seq_, "seq"});
            }
#endif
        } else if (group_break) {
            // Correctly predicted taken branch: redirect ends the
            // group; a BTB miss costs an extra bubble even when the
            // direction was right.
            Cycles redirect = curGroupCycle_ + 1;
            if (!pred.btbHit)
                redirect += 2;
            nextFetchCycle_ = std::max(nextFetchCycle_, redirect);
            groupUsed_ = 0;
        }
        predictor_.update(ti.pc, ti.taken, ti.target);
        break;
      }
      case OpClass::Load: {
        ++stats_.loads;
        const Cycles addr_ready = src_ready;
        const Cycles win =
            lsq_[slice].allocate(dispatch, addr_ready + 1);
        if (win > dispatch)
            stats_.addStall(Stage::Issue, win - dispatch);
        const Cycles issue =
            lsPort_[slice].schedule(std::max(addr_ready, win + 1));
        const Cycles agu_done = issue + 1;
        const SliceId m = homeSliceOf(ti.effAddr);
        const unsigned hops = placement_.sliceToSliceHops(slice, m);
        const Cycles at_bank = sortNet_.send(slice, agu_done, hops);

        const MemDepResult dep = memDep_.queryLoad(ti.effAddr, seq_);
        Cycles data_at_bank;
        if (dep.conflict && dep.storeAddrReady > at_bank) {
            // The load issued before an older store to the same word
            // resolved its address: the committing store detects the
            // younger load and squashes it (section 3.6).
            ++stats_.lsqViolations;
            data_at_bank = dep.storeDataReady + kForwardLatency;
            nextFetchCycle_ = std::max(
                nextFetchCycle_,
                dep.storeAddrReady + cfg_.slice.branchMispredictPenalty);
            groupUsed_ = 0;
            stats_.squashedInstructions += cfg_.slice.fetchWidth * s_;
#if SHARCH_OBS
            if (obs::enabled()) {
                obs::Tracer::instance().record(
                    {"lsq_squash", "pipeline", dep.storeAddrReady,
                     dep.storeAddrReady +
                         cfg_.slice.branchMispredictPenalty,
                     obs::kPidPipeline,
                     static_cast<std::uint32_t>(
                         vc_ * SimConfig::kMaxSlices + slice),
                     seq_, "seq"});
            }
#endif
        } else if (dep.conflict) {
            // Forward the in-flight store's data from the LSQ bank.
            data_at_bank = std::max(at_bank, dep.storeDataReady) +
                           kForwardLatency;
        } else {
            const Cycles t = l1dPort_[m].schedule(at_bank);
            ++stats_.l1dAccesses;
            const AccessResult r = l1d_[m].access(ti.effAddr, false);
            if (r.hit) {
                data_at_bank = t + cfg_.l1d.hitLatency;
            } else {
                ++stats_.l1dMisses;
                // MSHR residency estimate from a tag peek: bounds the
                // number of outstanding misses per Slice.
                const Cycles resid =
                    l2_->probeHit(ti.effAddr)
                        ? 30
                        : 30 + cfg_.memoryLatency;
                const Cycles start = mshr_[m].allocate(
                    t + cfg_.l1d.hitLatency,
                    t + cfg_.l1d.hitLatency + resid);
                const L2AccessResult l2r =
                    l2_->access(vc_, m, ti.effAddr, false, start);
                ++stats_.l2Accesses;
                if (l2r.wentToMemory)
                    ++stats_.l2Misses;
                stats_.coherenceInvalidations += l2r.invalidations;
                data_at_bank = l2r.doneCycle;
                if (r.writebackVictim) {
                    l2_->access(vc_, m,
                                r.victimLine * cfg_.l1d.blockBytes,
                                true, data_at_bank);
                }
            }
        }
        // Data returns to the issuing Slice over the SON.
        complete = data_at_bank;
        if (m != slice)
            complete = operandNet_.send(m, data_at_bank, hops);
        stats_.sumOperandWait += addr_ready - (dispatch + 1);
        stats_.sumIssueWait += issue - addr_ready;
        stats_.sumExecLatency += complete - issue;
        break;
      }
      case OpClass::Store: {
        ++stats_.stores;
        const Cycles addr_ready = src_ready;
        // A store's LSQ entry lives until its data is written; the
        // unordered bank frees it out of order (section 3.6).
        const Cycles win =
            lsq_[slice].allocate(dispatch, addr_ready + 2);
        if (win > dispatch)
            stats_.addStall(Stage::Issue, win - dispatch);
        const Cycles issue =
            lsPort_[slice].schedule(std::max(addr_ready, win + 1));
        const Cycles agu_done = issue + 1;
        const SliceId m = homeSliceOf(ti.effAddr);
        const unsigned hops = placement_.sliceToSliceHops(slice, m);
        const Cycles at_bank = sortNet_.send(slice, agu_done, hops);
        const Cycles data_ready = std::max(at_bank, src2_ready);
        memDep_.recordStore(ti.effAddr, seq_, at_bank, data_ready);
        complete = data_ready;
        break;
      }
    }

    // ---- in-order commit with the pre-commit pointer ----
    Cycles commit_ready = complete + (s_ > 1 ? kPreCommitDelay : 0);
    commit_ready = std::max(commit_ready, lastCommit_);
    const Cycles commit = commitPort_.schedule(commit_ready);
    lastCommit_ = commit;
    rob_[slice].allocate(commit + 1);
    if (ti.dst != kNoReg) {
        lrf_[slice].allocate(commit + 1);
        writeDest(ti.dst, slice, complete);
    }
    if (ti.op == OpClass::Store) {
        // The store drains to the cache after commit.
        const SliceId m = homeSliceOf(ti.effAddr);
        storeBuffer_[slice].allocate(commit + 2);
        const Cycles t = l1dPort_[m].schedule(commit + 1);
        ++stats_.l1dAccesses;
        const AccessResult r = l1d_[m].access(ti.effAddr, true);
        if (!r.hit) {
            ++stats_.l1dMisses;
            const L2AccessResult l2r =
                l2_->access(vc_, m, ti.effAddr, true, t);
            ++stats_.l2Accesses;
            if (l2r.wentToMemory)
                ++stats_.l2Misses;
            stats_.coherenceInvalidations += l2r.invalidations;
        }
        if (r.writebackVictim) {
            l2_->access(vc_, m, r.victimLine * cfg_.l1d.blockBytes,
                        true, t + 1);
        }
    }

    ++stats_.instructionsCommitted;
    stats_.cycles = lastCommit_;

#if SHARCH_OBS
    if (obs::enabled()) {
        auto &reg = obs::MetricsRegistry::instance();
        const PipelineMetrics &m = pipelineMetrics();
        reg.add(m.instructions);
        if (mispredict)
            reg.add(m.mispredicts);
        reg.observe(m.commitLatency,
                    static_cast<double>(commit - fetch_cycle));
        obs::Tracer::instance().record(
            {opClassName(ti.op), "pipeline", fetch_cycle, commit,
             obs::kPidPipeline,
             static_cast<std::uint32_t>(vc_ * SimConfig::kMaxSlices +
                                        slice),
             seq_, "seq"});
    }
#endif
}

std::size_t
VCoreSim::step(InstSource &src, std::size_t max_instructions)
{
    // Batched pull: walk the source's contiguous windows so the
    // per-instruction loop pays no virtual dispatch -- refill() runs
    // once per window (every StreamingTraceSource::kBufferInsts
    // instructions when streaming, once in total when materialized).
    std::size_t n = 0;
    while (n < max_instructions) {
        std::size_t avail;
        const TraceInst *w = src.window(avail);
        if (!w)
            break;
        const std::size_t run =
            std::min(avail, max_instructions - n);
        for (std::size_t i = 0; i < run; ++i)
            processOne(w[i]);
        src.consume(run);
        n += run;
    }
    done_ = src.exhausted();
    stats_.cycles = lastCommit_;
    stats_.operandNetworkStalls = operandNet_.stats().injectionStalls;
    return n;
}

void
VCoreSim::fastForwardOne(const TraceInst &ti)
{
    // Functional twin of processOne: the same architectural state
    // transitions in the same order -- seq numbering, the per-line
    // L1I access dedup, predictor training, the conflict-gated L1D
    // access for loads, and the post-commit store drain -- with every
    // timing computation removed.  Any new architectural touch added
    // to processOne must be mirrored here (the warm-state
    // differential tests catch a miss).
    ++seq_;

    const Addr line = ti.pc >> l1iBlockShift_;
    if (line != lastFetchLine_) {
        ++funcStats_.l1iAccesses;
        const SliceId slice = fetchSliceOf(ti.pc);
        if (!l1i_[slice].access(ti.pc, false).hit) {
            ++funcStats_.l1iMisses;
            ++funcStats_.l2Accesses;
            if (l2_->accessFunctional(vc_, ti.pc, false).wentToMemory)
                ++funcStats_.l2Misses;
        }
        lastFetchLine_ = line;
    }

    switch (ti.op) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
        break;
      case OpClass::Branch: {
        // Mispredict detection is architectural: predictor state is a
        // pure function of the trained history, so looking it up here
        // counts exactly the mispredicts the detailed walk would see.
        const BranchPrediction pred = predictor_.predict(ti.pc);
        ++funcStats_.branches;
        if (pred.predictTaken != ti.taken ||
            (ti.taken && pred.btbHit && pred.target != ti.target)) {
            ++funcStats_.branchMispredicts;
        }
        predictor_.update(ti.pc, ti.taken, ti.target);
        break;
      }
      case OpClass::Load: {
        ++funcStats_.loads;
        // A conflicting older store forwards (or squashes) the load:
        // in both cases the detailed walk skips the D-cache access.
        if (memDep_.queryLoad(ti.effAddr, seq_).conflict)
            break;
        const SliceId m = homeSliceOf(ti.effAddr);
        ++funcStats_.l1dAccesses;
        const AccessResult r = l1d_[m].access(ti.effAddr, false);
        if (!r.hit) {
            ++funcStats_.l1dMisses;
            ++funcStats_.l2Accesses;
            const L2AccessResult l2r =
                l2_->accessFunctional(vc_, ti.effAddr, false);
            if (l2r.wentToMemory)
                ++funcStats_.l2Misses;
            funcStats_.coherenceInvalidations += l2r.invalidations;
            if (r.writebackVictim) {
                l2_->accessFunctional(
                    vc_, r.victimLine * cfg_.l1d.blockBytes, true);
            }
        }
        break;
      }
      case OpClass::Store: {
        ++funcStats_.stores;
        // Cycle payloads are zero: conflict detection reads only the
        // (word, seq) pair (see MemDepTracker::architecturalDigest).
        memDep_.recordStore(ti.effAddr, seq_, 0, 0);
        const SliceId m = homeSliceOf(ti.effAddr);
        ++funcStats_.l1dAccesses;
        const AccessResult r = l1d_[m].access(ti.effAddr, true);
        if (!r.hit) {
            ++funcStats_.l1dMisses;
            ++funcStats_.l2Accesses;
            const L2AccessResult l2r =
                l2_->accessFunctional(vc_, ti.effAddr, true);
            if (l2r.wentToMemory)
                ++funcStats_.l2Misses;
            funcStats_.coherenceInvalidations += l2r.invalidations;
        }
        if (r.writebackVictim) {
            l2_->accessFunctional(
                vc_, r.victimLine * cfg_.l1d.blockBytes, true);
        }
        break;
      }
    }
    ++funcStats_.instructionsCommitted;
}

std::size_t
VCoreSim::fastForward(InstSource &src, std::size_t max_instructions)
{
    // Same batched pull as step(): no virtual dispatch per
    // instruction, refill() once per window.
    std::size_t n = 0;
    while (n < max_instructions) {
        std::size_t avail;
        const TraceInst *w = src.window(avail);
        if (!w)
            break;
        const std::size_t run =
            std::min(avail, max_instructions - n);
        for (std::size_t i = 0; i < run; ++i)
            fastForwardOne(w[i]);
        src.consume(run);
        n += run;
    }
    done_ = src.exhausted();
    return n;
}

std::uint64_t
VCoreSim::warmStateDigest() const
{
    std::uint64_t h = kDigestSeed;
    for (const CacheModel &c : l1i_)
        h = digestMix(h, c.stateDigest());
    for (const CacheModel &c : l1d_)
        h = digestMix(h, c.stateDigest());
    h = digestMix(h, predictor_.stateDigest());
    h = digestMix(h, memDep_.architecturalDigest());
    h = digestMix(h, lastFetchLine_);
    h = digestMix(h, seq_);
    return h;
}

const SimStats &
VCoreSim::run(InstSource &src)
{
    while (!src.exhausted())
        step(src, std::numeric_limits<std::size_t>::max());
    done_ = true;
    stats_.cycles = lastCommit_;
    return stats_;
}

void
VCoreSim::chargeReconfiguration(Cycles penalty)
{
    const Cycles resume = lastCommit_ + penalty;
    nextFetchCycle_ = std::max(nextFetchCycle_, resume);
    groupUsed_ = 0;
    lastCommit_ = resume;
    // Register Flush: surviving state collapses onto Slice 0.
    rename_.flushTo(0, resume);
    std::fill(copyMask_.begin(), copyMask_.end(), 0);
}

} // namespace sharch
