#include "engine/engine_base.hh"

#include <algorithm>
#include <utility>

#include "engine/state_json.hh"

namespace sharch::engine {

bool
EngineBase::laterThan(const Queued &a, const Queued &b)
{
    if (a.event.at != b.event.at)
        return a.event.at > b.event.at;
    return a.seq > b.seq;
}

std::optional<std::uint64_t>
EngineBase::post(Event e)
{
    if (queue_.size() >= maxPending_)
        return std::nullopt;
    Queued q;
    q.event = std::move(e);
    q.seq = nextSeq_++;
    queue_.push_back(std::move(q));
    std::push_heap(queue_.begin(), queue_.end(), laterThan);
    return queue_.back().seq;
}

void
EngineBase::runUntil(Cycles cycle)
{
    while (!queue_.empty() && queue_.front().event.at <= cycle) {
        std::pop_heap(queue_.begin(), queue_.end(), laterThan);
        Queued q = std::move(queue_.back());
        queue_.pop_back();
        dispatch(q.event, q.seq);
    }
}

void
EngineBase::run()
{
    while (!queue_.empty()) {
        std::pop_heap(queue_.begin(), queue_.end(), laterThan);
        Queued q = std::move(queue_.back());
        queue_.pop_back();
        dispatch(q.event, q.seq);
    }
}

EventOutcome
EngineBase::execute(Event e)
{
    // A request cannot rewrite history: it fires now at the earliest.
    if (e.at < clock_)
        e.at = clock_;
    Cycles upTo = e.at;
    EventKind kind = e.kind;
    if (!post(std::move(e))) {
        // Backpressure, not silent growth: the caller learns exactly
        // which bound it hit and nothing was enqueued.
        lastOutcome_ = EventOutcome{};
        lastOutcome_.kind = kind;
        lastOutcome_.detail =
            "pending queue is full (" +
            std::to_string(queue_.size()) + " events, limit " +
            std::to_string(maxPending_) + "): event rejected";
        return lastOutcome_;
    }
    runUntil(upTo);
    return lastOutcome_;
}

std::optional<Cycles>
EngineBase::reshapeLease(std::uint64_t lease, unsigned slices,
                         unsigned banks)
{
    const EventOutcome out =
        execute(reshapeEvent(clock_, lease, slices, banks));
    if (!out.applied)
        return std::nullopt;
    return out.cost;
}

void
EngineBase::dispatch(const Event &e, std::uint64_t seq)
{
    // Write-ahead: the journal hook makes the record durable before
    // any state changes, so a crash mid-apply replays the event.
    if (dispatchHook_ && !replaying_)
        dispatchHook_(e, seq);
    if (e.at > clock_)
        clock_ = e.at;
    stats_.processed++;
    lastOutcome_ = EventOutcome{};
    lastOutcome_.kind = e.kind;
    if (e.kind == EventKind::Checkpoint) {
        handleCheckpoint(e);
        return;
    }
    dispatchEvent(e);
}

void
EngineBase::replayDispatch(const Event &e, std::uint64_t seq)
{
    // The snapshot's queue may hold the same posting: drop it so the
    // event fires exactly once.
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->seq == seq) {
            queue_.erase(it);
            std::make_heap(queue_.begin(), queue_.end(), laterThan);
            break;
        }
    }
    if (seq >= nextSeq_)
        nextSeq_ = seq + 1;
    replaying_ = true;
    dispatch(e, seq);
    replaying_ = false;
}

void
EngineBase::handleCheckpoint(const Event &e)
{
    stats_.checkpoints++;
    lastOutcome_.applied = true;
    // Capture *after* consuming the event, so restoring this state
    // resumes with exactly the remaining stream.
    lastCheckpointLabel_ = e.label;
    lastCheckpoint_ = saveState();
    if (checkpointHook_)
        checkpointHook_(lastCheckpointLabel_, lastCheckpoint_);
}

Event
EngineBase::arriveEvent(Cycles at, std::string tenant,
                        std::string benchmark, UtilityKind utility,
                        double budget, unsigned slices,
                        unsigned banks, Cycles lifetime) const
{
    Event e = tenantArrive(at, std::move(tenant),
                           std::move(benchmark), utility, budget,
                           slices, banks);
    e.lifetime = lifetime;
    return e;
}

Event
EngineBase::departEvent(Cycles at, std::string tenant) const
{
    return tenantDepart(at, std::move(tenant));
}

Event
EngineBase::priceEvent(Cycles at) const
{
    return auctionEpoch(at);
}

json::Value
EngineBase::statsToJson() const
{
    json::Value stats = json::Value::object();
    stats.add("processed", json::Value::number(stats_.processed));
    stats.add("arrivals", json::Value::number(stats_.arrivals));
    stats.add("admitted", json::Value::number(stats_.admitted));
    stats.add("rejected", json::Value::number(stats_.rejected));
    stats.add("departures", json::Value::number(stats_.departures));
    stats.add("unmatched_departs",
              json::Value::number(stats_.unmatchedDeparts));
    stats.add("faults", json::Value::number(stats_.faults));
    stats.add("heals", json::Value::number(stats_.heals));
    stats.add("evictions", json::Value::number(stats_.evictions));
    stats.add("epochs", json::Value::number(stats_.epochs));
    stats.add("auction_rounds",
              json::Value::number(stats_.auctionRounds));
    stats.add("checkpoints", json::Value::number(stats_.checkpoints));
    stats.add("reconfig_cycles",
              json::Value::number(
                  std::uint64_t{stats_.reconfigCycles}));
    stats.add("refunds_paid",
              json::Value::number(stats_.refundsPaid));
    return stats;
}

bool
EngineBase::statsFromJson(const json::Value &root, EngineStats *out,
                          std::string *error)
{
    const json::Value *stats = root.get("stats");
    if (!stats || !stats->isObject())
        return fail(error, "stats missing or not an object");
    EngineStats st;
    std::uint64_t reconfig = 0;
    const json::Value *refunds = stats->get("refunds_paid");
    if (!fieldU64(*stats, "processed", &st.processed, error) ||
        !fieldU64(*stats, "arrivals", &st.arrivals, error) ||
        !fieldU64(*stats, "admitted", &st.admitted, error) ||
        !fieldU64(*stats, "rejected", &st.rejected, error) ||
        !fieldU64(*stats, "departures", &st.departures, error) ||
        !fieldU64(*stats, "unmatched_departs", &st.unmatchedDeparts,
                  error) ||
        !fieldU64(*stats, "faults", &st.faults, error) ||
        !fieldU64(*stats, "heals", &st.heals, error) ||
        !fieldU64(*stats, "evictions", &st.evictions, error) ||
        !fieldU64(*stats, "epochs", &st.epochs, error) ||
        !fieldU64(*stats, "auction_rounds", &st.auctionRounds,
                  error) ||
        !fieldU64(*stats, "checkpoints", &st.checkpoints, error) ||
        !fieldU64(*stats, "reconfig_cycles", &reconfig, error)) {
        if (error)
            *error = "stats." + *error;
        return false;
    }
    if (!refunds || !refunds->isNumber())
        return fail(error, "stats.refunds_paid missing or not a number");
    st.refundsPaid = refunds->asDouble();
    st.reconfigCycles = reconfig;
    *out = st;
    return true;
}

json::Value
EngineBase::queueToJson() const
{
    std::vector<Queued> pending = queue_;
    std::sort(pending.begin(), pending.end(),
              [](const Queued &a, const Queued &b) {
                  return laterThan(b, a);
              });
    json::Value queue = json::Value::array();
    for (const Queued &q : pending)
        queue.push(eventToJson(q.event, q.seq));
    return queue;
}

bool
EngineBase::queueFromJson(const json::Value *queue,
                          std::uint64_t nextSeq,
                          std::vector<Queued> *out,
                          std::string *error) const
{
    if (!queue || !queue->isArray())
        return fail(error, "queue missing or not an array");
    out->clear();
    for (std::size_t i = 0; i < queue->items.size(); ++i) {
        Queued q;
        std::string qerr;
        if (!eventFromJson(queue->items[i], &q.event, &q.seq,
                           &qerr)) {
            return fail(error,
                        "queue[" + std::to_string(i) + "]: " + qerr);
        }
        if (q.seq >= nextSeq)
            return fail(error, "queue[" + std::to_string(i) +
                                   "]: seq " + std::to_string(q.seq) +
                                   " >= next_seq " +
                                   std::to_string(nextSeq));
        out->push_back(std::move(q));
    }
    return true;
}

void
EngineBase::adoptRestoredSpine(std::vector<Queued> pending,
                               Cycles clock, std::uint64_t nextSeq,
                               const EngineStats &stats)
{
    queue_ = std::move(pending);
    std::make_heap(queue_.begin(), queue_.end(), laterThan);
    clock_ = clock;
    nextSeq_ = nextSeq;
    stats_ = stats;
    lastOutcome_ = EventOutcome{};
}

} // namespace sharch::engine
