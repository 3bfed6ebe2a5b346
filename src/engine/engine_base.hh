/**
 * @file
 * The engine spine: a deterministic typed-event queue with
 * write-ahead dispatch hooks, checkpoint capture, and replay.
 *
 * AllocationEngine (one chip) and fleet::FleetEngine (thousands of
 * chips) process different event vocabularies over different state,
 * but the machinery that makes a run *a value* -- the (cycle,
 * posting-order) queue, the clock, the dispatch hook the journal
 * writes ahead of every mutation, Checkpoint capture, and
 * seq-deduplicating replay -- is identical.  EngineBase owns that
 * machinery so the Journal (sharch-journal-v1) and ServeSession
 * layers work unchanged against any engine: they only ever touch
 * post/execute/replayDispatch and the saveState/restoreState/
 * checkInvariants/finalReport virtuals.
 *
 * The queue is bounded (maxPending, configurable per engine): a
 * post past the limit is refused and execute() answers with a
 * positioned rejection instead of growing without bound under
 * sustained load.
 */

#ifndef SHARCH_ENGINE_ENGINE_BASE_HH
#define SHARCH_ENGINE_ENGINE_BASE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "engine/event.hh"
#include "hyper/fabric_manager.hh"
#include "study/report.hh"

namespace sharch::engine {

/** The document version saveState() writes and restoreState() reads. */
inline constexpr const char *kStateSchema = "sharch-state-v1";

/** Pending-queue bound when the engine config does not set one. */
inline constexpr std::size_t kDefaultMaxPending = 65536;

/** Monotonic counters over the whole run (serialized state). */
struct EngineStats
{
    std::uint64_t processed = 0;   //!< events consumed
    std::uint64_t arrivals = 0;
    std::uint64_t admitted = 0;
    std::uint64_t rejected = 0;    //!< no contiguous run fit
    std::uint64_t departures = 0;
    std::uint64_t unmatchedDeparts = 0;
    std::uint64_t faults = 0;      //!< newly-faulty strikes
    std::uint64_t heals = 0;
    std::uint64_t evictions = 0;   //!< leases lost to degradation
    std::uint64_t epochs = 0;
    std::uint64_t auctionRounds = 0;
    std::uint64_t checkpoints = 0;
    Cycles reconfigCycles = 0;     //!< degradation + reshape costs
    /** No engine refunds a fault any more; kept (always 0) so the
     *  state document and report keep their fields. */
    double refundsPaid = 0.0;
};

/** What processing one event did (the serve layer's result). */
struct EventOutcome
{
    EventKind kind = EventKind::AuctionEpoch;
    bool applied = false;      //!< admitted / released / newly-faulty
    std::uint64_t lease = 0;   //!< lease touched (0: none)
    Cycles cost = 0;           //!< reconfiguration cycles (Reshape)
    std::string detail;        //!< human-readable "why not" etc.
    /** Degradations a FaultStrike caused (fault_replay reads these). */
    std::vector<DegradeAction> actions;
};

/**
 * The deterministic event loop every engine runs on.  Derived
 * classes implement dispatchEvent() (all kinds except Checkpoint,
 * which the base handles by capturing saveState()) and the state
 * virtuals; everything else -- ordering, clock, hooks, bounded
 * posting, replay -- lives here once.
 */
class EngineBase
{
  public:
    explicit EngineBase(std::size_t maxPending)
        : maxPending_(maxPending ? maxPending : kDefaultMaxPending)
    {
    }
    virtual ~EngineBase() = default;

    EngineBase(const EngineBase &) = delete;
    EngineBase &operator=(const EngineBase &) = delete;

    // --- The event API (the only mutation path) ------------------

    /**
     * Enqueue @p e.  Events may be posted at any cycle (including
     * the past: they fire on the next run, still after everything
     * already processed).  @return the posting order, which breaks
     * cycle ties deterministically -- or nullopt when the pending
     * queue is at its bound (the event was NOT enqueued).
     */
    std::optional<std::uint64_t> post(Event e);

    /** Process every queued event with at <= @p cycle, in order. */
    void runUntil(Cycles cycle);

    /** Drain the queue completely. */
    void run();

    /**
     * Post @p e and process the queue up to its cycle immediately
     * (the serve path: request in, outcome out).  A refused post --
     * pending queue at its bound -- comes back as an unapplied
     * outcome whose detail names the limit.
     */
    EventOutcome execute(Event e);

    /**
     * Reshape a live lease in place (grow/shrink Slices and banks).
     * Routed through the event queue as an EventKind::Reshape at the
     * current clock, so journals and checkpoints capture it like any
     * other mutation.
     * @return the reconfiguration cost, or nullopt when the lease is
     *         unknown or the fabric cannot satisfy the new shape.
     */
    std::optional<Cycles> reshapeLease(std::uint64_t lease,
                                       unsigned slices,
                                       unsigned banks);

    /**
     * Re-apply one event exactly as a previous process dispatched it
     * (journal recovery).  The pending copy with the same posting
     * order -- restored from the snapshot's queue section -- is
     * removed first so the event is not applied twice, and the
     * dispatch hook is NOT invoked (the record is already durable).
     */
    void replayDispatch(const Event &e, std::uint64_t seq);

    // --- Queries -------------------------------------------------

    Cycles now() const { return clock_; }
    std::size_t pendingEvents() const { return queue_.size(); }
    std::size_t maxPending() const { return maxPending_; }
    const EngineStats &stats() const { return stats_; }
    const EventOutcome &lastOutcome() const { return lastOutcome_; }

    // --- Checkpoint / restore ------------------------------------

    /**
     * The full engine state as one sharch-state-v1 JSON line.  A
     * pure function of the processed event history: byte-identical
     * across runs, thread counts, and checkpoint/resume cuts.
     */
    virtual std::string saveState() const = 0;

    /**
     * Replace the engine's state with a parsed sharch-state-v1
     * document.  Validation is strict and on failure the engine is
     * untouched and @p error names the first offending record.
     */
    virtual bool restoreState(const std::string &text,
                              std::string *error) = 0;

    /**
     * Cross-layer consistency audit; recovery refuses to serve a
     * state that fails this.  @return false with @p error naming
     * the first violation.
     */
    virtual bool checkInvariants(std::string *error) const = 0;

    /**
     * The deterministic end-of-run report (sharch-report-v1): two
     * engines that processed the same events render identical bytes.
     */
    virtual study::Report finalReport() const = 0;

    /**
     * State captured by the most recent Checkpoint event (empty
     * until one fires).  Taken *after* the event is consumed, so
     * restoring it resumes with exactly the remaining stream.
     */
    const std::string &lastCheckpoint() const
    {
        return lastCheckpoint_;
    }
    const std::string &lastCheckpointLabel() const
    {
        return lastCheckpointLabel_;
    }

    /** Hook invoked on every Checkpoint event (label, state). */
    using CheckpointHook =
        std::function<void(const std::string &, const std::string &)>;
    void onCheckpoint(CheckpointHook hook)
    {
        checkpointHook_ = std::move(hook);
    }

    /**
     * Hook invoked immediately *before* each event is applied, with
     * the event and its posting order -- the write-ahead point.  A
     * journal appends (and fsyncs) the record here, so a crash at
     * any later instant can only lose events that were never applied
     * or leave a torn final record; either way replay reconverges.
     * Not invoked during replayDispatch().
     */
    using DispatchHook =
        std::function<void(const Event &, std::uint64_t)>;
    void onDispatch(DispatchHook hook)
    {
        dispatchHook_ = std::move(hook);
    }

    // --- Serve-protocol adaptation -------------------------------
    // ServeSession speaks allocate/release/price generically; each
    // engine maps those verbs onto its own event vocabulary and
    // contributes its own fields to the stats/price replies.

    /** The event an "allocate" request should post. */
    virtual Event arriveEvent(Cycles at, std::string tenant,
                              std::string benchmark,
                              UtilityKind utility, double budget,
                              unsigned slices, unsigned banks,
                              Cycles lifetime) const;

    /** The event a "release" request should post. */
    virtual Event departEvent(Cycles at, std::string tenant) const;

    /** The event a "price" request should post. */
    virtual Event priceEvent(Cycles at) const;

    /** Does a live lease with this id exist? */
    virtual bool hasLease(std::uint64_t id) const = 0;

    /** Live lease count (the serve restore reply). */
    virtual std::size_t leaseCount() const = 0;

    /** Engine-specific fields of the "price" reply. */
    virtual void addPriceReply(json::Value *reply) const = 0;

    /** Engine-specific fields of the "stats" reply. */
    virtual void addStatsReply(json::Value *reply) const = 0;

  protected:
    struct Queued
    {
        Event event;
        std::uint64_t seq = 0;
    };

    static bool laterThan(const Queued &a, const Queued &b);

    /**
     * Apply one non-Checkpoint event to derived state.  The base has
     * already advanced the clock, bumped stats_.processed, and reset
     * lastOutcome_ (kind filled in); handlers set applied/detail.
     */
    virtual void dispatchEvent(const Event &e) = 0;

    // --- Shared sharch-state-v1 sections -------------------------
    // Both engines serialize the identical stats and queue sections;
    // keeping them here keeps the byte formats in lockstep.

    std::uint64_t nextSeq() const { return nextSeq_; }

    json::Value statsToJson() const;
    static bool statsFromJson(const json::Value &root, EngineStats *out,
                              std::string *error);
    json::Value queueToJson() const;
    bool queueFromJson(const json::Value *queue, std::uint64_t nextSeq,
                       std::vector<Queued> *out,
                       std::string *error) const;

    /** Commit the restored spine atomically (restoreState tail). */
    void adoptRestoredSpine(std::vector<Queued> pending, Cycles clock,
                            std::uint64_t nextSeq,
                            const EngineStats &stats);

    Cycles clock_ = 0;
    EngineStats stats_;
    EventOutcome lastOutcome_;

  private:
    void dispatch(const Event &e, std::uint64_t seq);
    void handleCheckpoint(const Event &e);

    std::vector<Queued> queue_; //!< min-heap on (at, seq)
    std::uint64_t nextSeq_ = 0;
    std::size_t maxPending_;
    std::string lastCheckpoint_;
    std::string lastCheckpointLabel_;
    CheckpointHook checkpointHook_;
    DispatchHook dispatchHook_;
    bool replaying_ = false; //!< suppress the hook during recovery
};

} // namespace sharch::engine

#endif // SHARCH_ENGINE_ENGINE_BASE_HH
