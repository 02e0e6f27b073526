/**
 * @file
 * Sharded query execution, the one executor every query runs
 * through: split a trace into contiguous per-thread record ranges,
 * run the filter chain and a shard fold over each range
 * concurrently, and absorb the partials in shard order into the
 * query's ordered merger (query::FoldMerger). Shard 0 drains into the
 * merger after every block as it folds, so it holds only one block's
 * partials; the other shards keep theirs until the merge.
 *
 * The result is *bit-exact* — the same doubles, not approximately
 * equal — for every shard count: runQuery() and runQueryFile() are
 * the one-shard form. The cross-check tests
 * (tests/query/test_crosscheck.cpp,
 * tests/parallel/test_sharded_query.cpp,
 * tests/parallel/test_property_sharded.cpp) lock this contract, the
 * last against a per-event reference as well.
 */

#ifndef QUERY_SHARDED_HH
#define QUERY_SHARDED_HH

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
 * Run @p query over an in-memory trace on up to @p jobs threads.
 * Result is bit-exact with runQuery() (one shard) for any
 * @p jobs >= 1.
 */
Table runQuerySharded(const std::vector<trace::TraceEvent> &events,
                      const trace::EventDictionary &dict,
                      const Query &query, unsigned jobs,
                      sim::Tick trace_end = 0);

/**
 * Run @p query over a saved trace file on up to @p jobs threads, each
 * shard streaming its own contiguous record range through its own
 * trace::TraceReader. Result is bit-exact with runQueryFile() (one
 * shard) for any @p jobs >= 1.
 * @return false with @p error set if the file is unreadable or
 *         truncated (the lowest-numbered failing shard's error wins).
 * @param seed_out when non-null, receives the run seed recorded in
 *        the trace header (0 for version-1 files) once the header
 *        has validated — the reproducibility handle tracequery's
 *        JSON output surfaces next to the results.
 */
bool runQueryFileSharded(const std::string &path,
                         const trace::EventDictionary &dict,
                         const Query &query, unsigned jobs, Table &out,
                         std::string &error, sim::Tick trace_end = 0,
                         std::uint64_t *seed_out = nullptr);

} // namespace query
} // namespace supmon

#endif // QUERY_SHARDED_HH
