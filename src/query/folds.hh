/**
 * @file
 * The fold family of the query pipeline. Every query — over an
 * in-memory trace, a file at any --jobs count, or a live stream —
 * folds in two halves:
 *
 *  - shard folds (ShardFold) each consume one contiguous, already
 *    filtered slice of the trace and keep only what they can
 *    aggregate without seeing the rest, plus the boundary state that
 *    lets the merge stitch shard edges;
 *  - one ordered merger (FoldMerger) absorbs the shard partials in
 *    trace order into its kind's accumulator and renders the table.
 *    It can also drain the head shard while that shard still streams,
 *    so the head holds only its boundary state.
 *
 * The state-based kinds (`states`, `utilization`) run the open-state
 * machine of trace::ActivityMap::build() inside the shard fold and
 * replay its intervals in serial per-(stream, state) order, so their
 * doubles equal the batch evaluation's bit for bit.
 */

#ifndef QUERY_FOLDS_HH
#define QUERY_FOLDS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "query/query.hh"
#include "query/table.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace query
{

/**
 * The activity state machine of a dictionary, compiled once per
 * query and shared read-only by every shard: the distinct states in
 * definition order, a dense token -> state-id table (one load per
 * event instead of a dictionary map lookup), and the reverse
 * interning map. State *ids* index `states`; `noState` marks tokens
 * that are not Begin events and state names the dictionary does not
 * know.
 */
struct StateTable
{
    static constexpr std::uint16_t noState = 0xffff;

    /** statesInOrder() of the dictionary the table was built from. */
    std::vector<std::string> states;
    /** Dense token -> state id (65536 entries; noState = ignore). */
    std::vector<std::uint16_t> tokenState;

    /** Intern a state name; noState when unknown. */
    std::uint16_t idOf(const std::string &state) const;

    static std::shared_ptr<const StateTable> compile(
        const trace::EventDictionary &dict);

  private:
    std::map<std::string, std::uint16_t> ids;
};

/** Everything a fold needs besides the events. */
struct FoldContext
{
    const trace::EventDictionary *dict = nullptr;
    std::optional<WindowSpec> window;
    /** Explicit evaluation range (from the filter stages). */
    bool hasFrom = false;
    bool hasTo = false;
    sim::Tick from = 0;
    sim::Tick to = 0;
    /**
     * Close still-open states at this time, like the trace_end
     * argument of ActivityMap::build(); 0 = last event's timestamp.
     */
    sim::Tick traceEnd = 0;
    /**
     * Compiled state machine, shared by every shard and the merger
     * of a query (makeFoldContext fills it in for the state-based
     * fold kinds; a bare context compiles its own).
     */
    std::shared_ptr<const StateTable> stateTable;
};

/**
 * Per-shard partial aggregation state. A shard fold consumes one
 * contiguous, already-filtered slice of the trace and accumulates
 * whatever its fold kind can aggregate without seeing the rest:
 *
 *  - integer aggregates that merge by addition (unwindowed counts);
 *  - closed state intervals in a packed arena, plus the boundary
 *    state (the still-open state per stream, the first Begin per
 *    stream) that lets the merger stitch intervals across edges;
 *  - per-stream inter-event gaps in one arena in event order, plus
 *    the last timestamp per stream (latency);
 *  - compact replay buffers where the needed state is irreducibly
 *    global (windowed counts need the global window origin; rtt
 *    matching needs the global begin/end pairing order).
 */
class ShardFold
{
  public:
    virtual ~ShardFold() = default;

    /** Consume one (already filtered) event of this shard's slice. */
    virtual void onEvent(const trace::TraceEvent &ev) = 0;

    /**
     * Consume a whole (already filtered) block in one virtual call.
     * Overridden by the fold kinds with a tight inner loop; the
     * default forwards to onEvent().
     */
    virtual void
    onBatch(const trace::TraceEvent *events, std::size_t n)
    {
        for (std::size_t i = 0; i < n; ++i)
            onEvent(events[i]);
    }

    /**
     * Consume a whole *raw* record block (the unfiltered fast path:
     * trace::TraceReader::nextRawBlock() bytes, record stride
     * trace::TraceReader::recordBytes). Overriding folds fuse the
     * decode into their consume loop, so each record is decoded into
     * a register-resident event and never staged through a batch
     * array. The default decodes per record and forwards to
     * onEvent().
     */
    virtual void onRawBatch(const unsigned char *raw, std::size_t n);

    /**
     * Arena hint: at most @p records records arrive between two
     * drains (or in the shard's life, if it is never drained). Folds
     * preallocate their partial storage so the hot loop never
     * reallocates.
     */
    virtual void
    reserveHint(std::uint64_t records)
    {
        (void)records;
    }
};

/** Receives the rows of one finished window (live preview). */
using RowSink = std::function<void(const Table &)>;

/**
 * The ordered merger of one query: absorbs the shard partials of
 * makeShardFold() (same spec and context) in trace order and renders
 * the final table. The result is bit-exact for every shard count —
 * the same doubles, not approximately equal — because integer
 * aggregates merge by (order-free) addition while every
 * floating-point accumulation is replayed in serial per-key order.
 *
 * Order rule: only the *head* shard — the first one not yet absorbed
 * — may be drained or absorbed. A state still open at a shard's end
 * is carried and closes at the next shard's first Begin of its
 * stream, before that shard's intervals replay; a latency gap across
 * an edge is taken at the stream's first event of the next shard.
 */
class FoldMerger
{
  public:
    virtual ~FoldMerger() = default;

    /**
     * Fold in what the head shard has closed since its last drain,
     * and release it from the shard, which keeps only its boundary
     * state and may go on consuming events. Costs O(what the shard
     * closed since the last drain), never O(streams).
     */
    virtual void drain(ShardFold &head) = 0;

    /**
     * The head shard is complete: drain it and carry its boundary
     * state to the next shard. The next shard becomes the head.
     */
    virtual void absorb(ShardFold &head) = 0;

    /** End of the trace: close what is still carried and render the
     *  table. Call once, after the last absorb(). */
    virtual Table finish() = 0;

    /** Does this fold preview finished windows mid-stream (fixed-
     *  window `count` and `utilization`)? */
    virtual bool
    previewsWindows() const
    {
        return false;
    }

    /**
     * Live preview, for a single shard drained up to the latest
     * accepted timestamp @p now: hand @p sink the rows of every fixed
     * window that ended at or before @p now and was not previewed
     * before, one call per window with rows, skipping empty windows.
     * Each row is the one the final table will hold for that window
     * and stream: the accumulator's entry, plus (utilization) each
     * target state still open in @p head credited up to the window's
     * end.
     */
    virtual void
    previewWindows(sim::Tick now, const ShardFold &head,
                   const RowSink &sink)
    {
        (void)now;
        (void)head;
        (void)sink;
    }
};

/** Instantiate one shard's partial sink for @p spec. */
std::unique_ptr<ShardFold> makeShardFold(const FoldSpec &spec,
                                         const FoldContext &ctx);

/** Instantiate the ordered merger for @p spec. */
std::unique_ptr<FoldMerger> makeFoldMerger(const FoldSpec &spec,
                                           const FoldContext &ctx);

/**
 * Resolve a token pattern (event name glob, decimal, or 0x-hex
 * literal) against a dictionary.
 */
std::vector<std::uint16_t> resolveTokenPattern(
    const std::string &pattern, const trace::EventDictionary &dict);

} // namespace query
} // namespace supmon

#endif // QUERY_FOLDS_HH
