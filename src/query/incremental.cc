#include "incremental.hh"

#include <algorithm>

namespace supmon
{
namespace query
{

IncrementalEngine::IncrementalEngine(
    const Query &query, const trace::EventDictionary &dict,
    RowCallback on_rows, sim::Tick trace_end)
    : context(makeFoldContext(query, dict, trace_end)),
      chain(query, dict), head(makeShardFold(query.fold, context)),
      merger(makeFoldMerger(query.fold, context)),
      onRows(std::move(on_rows))
{
}

void
IncrementalEngine::onEvent(const trace::TraceEvent &ev)
{
    onBatch(&ev, 1);
}

void
IncrementalEngine::onBatch(const trace::TraceEvent *events,
                           std::size_t n)
{
    const trace::TraceEvent *survivors = events;
    std::size_t kept = n;
    if (!chain.empty()) {
        accepted.clear();
        for (std::size_t i = 0; i < n; ++i) {
            if (chain.accepts(events[i]))
                accepted.push_back(events[i]);
        }
        survivors = accepted.data();
        kept = accepted.size();
    }
    head->onBatch(survivors, kept);
    merger->drain(*head);
    if (kept == 0 || !onRows || !merger->previewsWindows())
        return;
    sim::Tick latest = 0;
    for (std::size_t i = 0; i < kept; ++i)
        latest = std::max(latest, survivors[i].timestamp);
    merger->previewWindows(latest, *head, onRows);
}

Table
IncrementalEngine::finish()
{
    merger->absorb(*head);
    return merger->finish();
}

} // namespace query
} // namespace supmon
