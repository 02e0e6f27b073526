/**
 * @file
 * The query front end: binds a parsed Query to an event dictionary —
 * the compiled filter stages and the fold context — and runs it over
 * an in-memory trace or straight from a saved file. Both calls are
 * the sharded executor (query/sharded.hh) with one shard: its head
 * shard drains into the merger after every block, so memory is
 * bounded by the fold's aggregation state, never by the trace
 * length.
 */

#ifndef QUERY_ENGINE_HH
#define QUERY_ENGINE_HH

#include <map>

#include "query/folds.hh"
#include "query/query.hh"
#include "query/table.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace query
{

/**
 * The compiled `filter` stages of a query: resolves token patterns
 * against the dictionary once, then decides accept/reject per event.
 * Token sets compile to a 64 Ki bitmap (one load + mask per test)
 * and stream-name glob results are cached in a flat per-stream-id
 * table, so a chain is stateful (not const) but a few loads per
 * event. Each shard of the sharded executor compiles its own chain —
 * chains are never shared across threads.
 */
class FilterChain
{
  public:
    FilterChain(const Query &query,
                const trace::EventDictionary &dict);

    /** Does @p ev pass every filter stage? */
    bool accepts(const trace::TraceEvent &ev);

    /** The query has no filter stages (everything passes). */
    bool
    empty() const
    {
        return filters.empty();
    }

    /**
     * Fused decode + filter over a raw record block (from
     * trace::TraceReader::nextRawBlock()): each record is decoded
     * into a register-resident event, tested, and only survivors are
     * written to @p out (which must hold @p n events). Rejected
     * records never touch a batch array, which is what pushes the
     * filter+count pipeline past the plain decode-then-filter
     * throughput. Survivor order is the record order, so the fold
     * sees exactly the sequence the per-event path accepts.
     * @return the number of surviving records.
     */
    std::size_t filterDecodeBatch(const unsigned char *raw,
                                  std::size_t n,
                                  trace::TraceEvent *out);

  private:
    /** One compiled `filter` stage. */
    struct CompiledFilter
    {
        bool hasTokenFilter = false;
        /** Accepted-token bitmap, 65536 bits (empty if no filter). */
        std::vector<std::uint64_t> tokenBits;
        std::vector<std::string> streamPatterns;
        /** Lazy glob-vs-stream-name results, flat per stream id
         *  (-1 unknown / 0 reject / 1 accept); ids past the flat
         *  range fall back to the map. */
        std::vector<std::int8_t> streamCache;
        std::map<unsigned, bool> streamMatchBig;
        bool hasFrom = false;
        bool hasTo = false;
        sim::Tick from = 0;
        sim::Tick to = 0;
        bool hasParam = false;
        std::uint32_t paramLo = 0;
        std::uint32_t paramHi = 0;

        bool accepts(const trace::TraceEvent &ev,
                     const trace::EventDictionary &dict);
        bool streamAccepted(unsigned stream,
                            const trace::EventDictionary &dict);
    };

    const trace::EventDictionary &dictionary;
    std::vector<CompiledFilter> filters;
};

/**
 * The fold context a query implies: dictionary, window spec, the
 * narrowest explicit time range across the filter stages, and the
 * trace-end close time. Every execution path derives its context
 * through this one function.
 */
FoldContext makeFoldContext(const Query &query,
                            const trace::EventDictionary &dict,
                            sim::Tick trace_end);

/** Run a query over an in-memory trace (one shard). */
Table runQuery(const std::vector<trace::TraceEvent> &events,
               const trace::EventDictionary &dict, const Query &query,
               sim::Tick trace_end = 0);

/**
 * Run a query over a saved trace file in a single streaming pass
 * (one shard, no full-trace vector).
 * @return false with @p error set if the file is unreadable or
 *         truncated.
 */
bool runQueryFile(const std::string &path,
                  const trace::EventDictionary &dict,
                  const Query &query, Table &out, std::string &error,
                  sim::Tick trace_end = 0);

} // namespace query
} // namespace supmon

#endif // QUERY_ENGINE_HH
