/**
 * @file
 * A minimal per-event reference for every query fold, the oracle the
 * sharded executor is compared against. It shares only the filter
 * stages (query::FilterChain) and the Table type with src/query: state
 * intervals come from trace::walkStateIntervals (the ActivityMap
 * machine), and each fold accumulates in event order in plain maps.
 */

#ifndef TESTS_QUERY_REFERENCE_QUERY_HH
#define TESTS_QUERY_REFERENCE_QUERY_HH

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "query/engine.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/activity.hh"

namespace supmon
{
namespace test
{

/** The table query::runQuery() must produce for @p q over @p events. */
inline query::Table
referenceQuery(const std::vector<trace::TraceEvent> &events,
               const trace::EventDictionary &dict, const query::Query &q,
               sim::Tick trace_end = 0)
{
    using query::Value;
    query::FilterChain chain(q, dict);
    std::vector<trace::TraceEvent> in;
    for (const trace::TraceEvent &ev : events) {
        if (chain.accepts(ev))
            in.push_back(ev);
    }
    // The evaluation range is the narrowest explicit from/to.
    std::optional<sim::Tick> from;
    std::optional<sim::Tick> to;
    for (const query::FilterSpec &f : q.filters) {
        if (f.hasFrom)
            from = std::max(from.value_or(f.from), f.from);
        if (f.hasTo)
            to = std::min(to.value_or(f.to), f.to);
    }
    const auto clamped = [&](sim::Tick b, sim::Tick e) -> sim::Tick {
        const sim::Tick lo = from ? std::max(b, *from) : b;
        const sim::Tick hi = to ? std::min(e, *to) : e;
        return hi > lo ? hi - lo : 0;
    };
    // Window k spans [start(k), start(k) + size); the origin is
    // `from`, else the first accepted event.
    const bool windowed = q.window.has_value();
    const sim::Tick size = windowed ? q.window->size : 1;
    const sim::Tick step = windowed ? q.window->step : 1;
    const sim::Tick origin =
        from ? *from : in.empty() ? 0 : in.front().timestamp;
    const auto start = [&](std::int64_t k) {
        return origin + static_cast<sim::Tick>(k) * step;
    };
    /** First window that has not ended by @p t (t >= origin). */
    const auto firstOpenAt = [&](sim::Tick t) -> std::int64_t {
        return t < origin + size ? 0 : (t - origin - size) / step + 1;
    };
    const auto windowMs = [&](std::int64_t k) {
        return Value::number(sim::toMilliseconds(start(k)));
    };
    const auto streamName = [&](unsigned s) {
        return Value::str(dict.streamName(s));
    };
    const auto ms = [](double ticks) { return Value::number(ticks * 1e-6); };
    const query::FoldSpec &fold = q.fold;
    query::Table table;

    if (fold.kind == query::FoldKind::Count) {
        std::map<std::tuple<std::int64_t, unsigned, std::uint16_t>,
                 std::uint64_t>
            counts;
        for (const trace::TraceEvent &ev : in) {
            if (!windowed) {
                ++counts[{0, ev.stream, ev.token}];
                continue;
            }
            for (std::int64_t k = firstOpenAt(ev.timestamp);
                 start(k) <= ev.timestamp; ++k)
                ++counts[{k, ev.stream, ev.token}];
        }
        if (windowed)
            table.columns.push_back("window_ms");
        table.columns.insert(table.columns.end(),
                             {"stream", "event", "count"});
        for (const auto &[key, n] : counts) {
            const auto &[k, stream, token] = key;
            const trace::EventDef *def = dict.find(token);
            std::vector<Value> row;
            if (windowed)
                row.push_back(windowMs(k));
            row.push_back(streamName(stream));
            row.push_back(Value::str(
                def ? def->name : sim::strprintf("0x%04x", token)));
            row.push_back(Value::count(n));
            table.addRow(std::move(row));
        }
        return table;
    }

    if (fold.kind == query::FoldKind::States ||
        fold.kind == query::FoldKind::Utilization) {
        struct Acc
        {
            sim::SummaryStat stat;
            sim::Tick covered = 0;
        };
        std::map<unsigned, std::map<std::string, Acc>> perState;
        std::set<unsigned> streams;
        std::map<std::pair<std::int64_t, unsigned>, sim::Tick> overlap;
        const sim::Tick close = trace::walkStateIntervals(
            in, dict, trace_end,
            [&](unsigned s, const std::string &state, sim::Tick b,
                sim::Tick e) {
                streams.insert(s);
                Acc &acc = perState[s][state];
                acc.stat.push(static_cast<double>(e - b));
                acc.covered += clamped(b, e);
                if (state != fold.state)
                    return;
                if (!windowed) {
                    overlap[{0, s}] += clamped(b, e);
                    return;
                }
                for (std::int64_t k = firstOpenAt(std::max(b, origin));
                     start(k) < e; ++k) {
                    const sim::Tick a = std::max(b, start(k));
                    const sim::Tick z = std::min(e, start(k) + size);
                    if (z > a)
                        overlap[{k, s}] += z - a;
                }
            });
        const sim::Tick t0 = origin;
        const sim::Tick t1 = to ? *to : close;
        const auto share = [&](sim::Tick covered) {
            return Value::number(t1 > t0 ? static_cast<double>(covered) /
                                               static_cast<double>(t1 - t0)
                                         : 0.0);
        };
        if (fold.kind == query::FoldKind::States) {
            table.columns = {"stream",  "state",  "count", "total_ms",
                             "mean_ms", "min_ms", "max_ms", "share"};
            for (const auto &[stream, byState] : perState) {
                for (const std::string &state : dict.statesInOrder()) {
                    const auto it = byState.find(state);
                    if (it == byState.end())
                        continue;
                    const sim::SummaryStat &s = it->second.stat;
                    table.addRow({streamName(stream), Value::str(state),
                                  Value::count(s.count()), ms(s.sum()),
                                  ms(s.mean()), ms(s.min()), ms(s.max()),
                                  share(it->second.covered)});
                }
            }
            return table;
        }
        const auto covered = [&](std::int64_t k, unsigned s) {
            const auto it = overlap.find({k, s});
            return it == overlap.end() ? sim::Tick(0) : it->second;
        };
        if (!windowed) {
            table.columns = {"stream", "state", "utilization"};
            for (unsigned s : streams)
                table.addRow({streamName(s), Value::str(fold.state),
                              share(covered(0, s))});
            return table;
        }
        table.columns = {"window_ms", "stream", "state", "utilization"};
        const auto addRow = [&](std::int64_t k, unsigned s, sim::Tick c) {
            table.addRow({windowMs(k), streamName(s), Value::str(fold.state),
                          Value::number(static_cast<double>(c) /
                                        static_cast<double>(size))});
        };
        // Every window that starts before t1, for every stream, unless
        // that exceeds 200000 rows: then only the covered windows.
        const std::int64_t last =
            t1 > origin ? static_cast<std::int64_t>((t1 - 1 - origin) / step)
                        : -1;
        const auto nStreams = static_cast<std::int64_t>(
            std::max<std::size_t>(streams.size(), 1));
        if (last >= 0 && (last + 1) * nStreams <= 200000) {
            for (std::int64_t k = 0; k <= last; ++k) {
                for (unsigned s : streams)
                    addRow(k, s, covered(k, s));
            }
        } else {
            for (const auto &[key, c] : overlap)
                addRow(key.first, key.second, c);
        }
        return table;
    }

    if (fold.kind == query::FoldKind::Latency) {
        std::map<unsigned, sim::Tick> lastSeen;
        std::map<unsigned, sim::SummaryStat> stats;
        std::map<unsigned, sim::Histogram> hists;
        for (const trace::TraceEvent &ev : in) {
            const auto it = lastSeen.find(ev.stream);
            if (it != lastSeen.end()) {
                const auto gap =
                    static_cast<double>(ev.timestamp - it->second);
                stats[ev.stream].push(gap);
                if (fold.bins)
                    hists.try_emplace(ev.stream, 0.0, fold.histMax, fold.bins)
                        .first->second.push(gap);
            }
            lastSeen[ev.stream] = ev.timestamp;
        }
        if (!fold.bins) {
            table.columns = {"stream", "pairs",  "mean_ms",
                             "min_ms", "max_ms", "stddev_ms"};
            for (const auto &[stream, s] : stats)
                table.addRow({streamName(stream), Value::count(s.count()),
                              ms(s.mean()), ms(s.min()), ms(s.max()),
                              ms(s.stddev())});
            return table;
        }
        table.columns = {"stream", "bin", "lo_ms", "count"};
        for (const auto &[stream, h] : hists) {
            for (std::size_t b = 0; b < h.bins(); ++b)
                table.addRow({streamName(stream),
                              Value::str(std::to_string(b)),
                              ms(h.binLower(b)),
                              Value::count(h.binCount(b))});
            table.addRow({streamName(stream), Value::str("overflow"),
                          Value::number(sim::toMilliseconds(fold.histMax)),
                          Value::count(h.overflow())});
        }
        return table;
    }

    // rtt: begin/end keyed on the parameter; the first begin wins.
    const auto tokenFilter = [&](const std::string &pattern) {
        query::Query tokens;
        tokens.filters.push_back({{}, {pattern}});
        return query::FilterChain(tokens, dict);
    };
    query::FilterChain isBegin = tokenFilter(fold.beginPattern);
    query::FilterChain isEnd = tokenFilter(fold.endPattern);
    std::map<std::uint32_t, sim::Tick> pending;
    sim::SummaryStat rtt;
    std::uint64_t duplicates = 0;
    std::uint64_t unmatchedEnds = 0;
    for (const trace::TraceEvent &ev : in) {
        if (isBegin.accepts(ev)) {
            if (!pending.emplace(ev.param, ev.timestamp).second)
                ++duplicates;
        } else if (isEnd.accepts(ev)) {
            const auto it = pending.find(ev.param);
            if (it == pending.end()) {
                ++unmatchedEnds;
                continue;
            }
            rtt.push(static_cast<double>(ev.timestamp - it->second));
            pending.erase(it);
        }
    }
    table.columns = {"pairs",  "unmatched_begin", "unmatched_end", "mean_ms",
                     "min_ms", "max_ms",          "stddev_ms"};
    table.addRow({Value::count(rtt.count()),
                  Value::count(pending.size() + duplicates),
                  Value::count(unmatchedEnds), ms(rtt.mean()), ms(rtt.min()),
                  ms(rtt.max()), ms(rtt.stddev())});
    return table;
}

} // namespace test
} // namespace supmon

#endif // TESTS_QUERY_REFERENCE_QUERY_HH
