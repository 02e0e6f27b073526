/**
 * @file
 * Push-driven incremental query evaluation for live trace streams.
 *
 * A live stream has no end (or an end minutes away), so
 * `tracequery --follow` needs results *while* the stream runs.
 * IncrementalEngine treats the stream as one head shard of the
 * sharded executor: every pushed batch passes the query's filter
 * chain into the head shard fold, which then drains into the query's
 * ordered merger, so the engine holds only the fold's aggregation
 * state and the head's boundary state. finish() absorbs the head and
 * returns the exact table the batch pipeline produces for the same
 * stream.
 *
 * For fixed-window `count` and `utilization`, whose window results
 * are decided early, the engine also previews finished windows:
 * after each batch, every window that ends at or before the latest
 * accepted timestamp is read from the merger and handed to the
 * callback, one call per window with rows, in window order. Each
 * previewed row is the row the final table will hold:
 *
 *  - `count`: the concatenation of the previewed row groups is a
 *    prefix of the final table, in its row order;
 *  - `utilization`: open activity states are credited up to the
 *    window edge, exactly as the final accumulation will count them
 *    once they close; every previewed row reappears verbatim in the
 *    final table, which may add all-zero rows in dense mode.
 *
 * The preview groups do not depend on how the stream is cut into
 * batches. Sliding windows and the remaining folds (`states`,
 * `latency`, `rtt`) preview nothing and deliver everything at
 * finish(). The preview assumes the pushed stream is time-ordered
 * (merged trace order, which the live session delivers); finish()
 * stays authoritative regardless.
 */

#ifndef QUERY_INCREMENTAL_HH
#define QUERY_INCREMENTAL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "query/engine.hh"

namespace supmon
{
namespace query
{

class IncrementalEngine
{
  public:
    /** Receives each finished window's rows: same columns as the
     *  final table, rows of one window. */
    using RowCallback = RowSink;

    IncrementalEngine(const Query &query,
                      const trace::EventDictionary &dict,
                      RowCallback on_rows = {},
                      sim::Tick trace_end = 0);

    /** Push one event (stream order). */
    void onEvent(const trace::TraceEvent &ev);

    /** Push a batch (stream order). */
    void onBatch(const trace::TraceEvent *events, std::size_t n);

    /** End of stream: the authoritative batch-identical table. */
    Table finish();

    /** Does this query shape preview finished windows mid-stream? */
    bool
    streamsLive() const
    {
        return merger->previewsWindows();
    }

  private:
    FoldContext context;
    FilterChain chain;
    std::unique_ptr<ShardFold> head;
    std::unique_ptr<FoldMerger> merger;
    RowCallback onRows;
    /** Survivors of the filter chain, one batch at a time. */
    std::vector<trace::TraceEvent> accepted;
};

} // namespace query
} // namespace supmon

#endif // QUERY_INCREMENTAL_HH
