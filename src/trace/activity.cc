#include "activity.hh"

#include <algorithm>
#include <numeric>

#include "sim/logging.hh"

namespace supmon
{
namespace trace
{

namespace
{

struct OpenState
{
    /** The Begin event that entered the state; nullptr if none. */
    const EventDef *def = nullptr;
    sim::Tick since = 0;
};

} // namespace

sim::Tick
walkStateIntervals(const std::vector<TraceEvent> &events,
                   const EventDictionary &dict, sim::Tick trace_end,
                   const IntervalSink &sink)
{
    if (events.empty())
        return 0;

    std::map<unsigned, OpenState> open;
    for (const auto &ev : events) {
        const EventDef *def = dict.find(ev.token);
        if (!def || def->kind != EventKind::Begin)
            continue;
        OpenState &cur = open[ev.stream];
        if (cur.def && ev.timestamp > cur.since)
            sink(ev.stream, cur.def->state, cur.since, ev.timestamp);
        cur.def = def;
        cur.since = ev.timestamp;
    }

    const sim::Tick last = events.back().timestamp;
    const sim::Tick close = trace_end ? std::max(trace_end, last) : last;
    for (const auto &[stream, cur] : open) {
        if (close > cur.since)
            sink(stream, cur.def->state, cur.since, close);
    }
    return close;
}

void
orderIntervals(std::vector<StateInterval> &intervals)
{
    std::stable_sort(intervals.begin(), intervals.end(),
                     [](const StateInterval &a, const StateInterval &b) {
                         if (a.begin != b.begin)
                             return a.begin < b.begin;
                         return a.stream < b.stream;
                     });
}

ActivityMap
ActivityMap::build(const std::vector<TraceEvent> &events,
                   const EventDictionary &dict, sim::Tick trace_end)
{
    ActivityMap map;
    if (events.empty())
        return map;

    map.beginTick = events.front().timestamp;
    map.endTick = walkStateIntervals(
        events, dict, trace_end,
        [&map](unsigned stream, const std::string &state,
               sim::Tick begin, sim::Tick end) {
            map.allIntervals.push_back(
                StateInterval{stream, state, begin, end});
        });
    for (const auto &ev : events) {
        const EventDef *def = dict.find(ev.token);
        if (!def)
            ++map.unknown;
        else if (def->kind == EventKind::Point)
            map.allMarkers.push_back(
                PointMarker{ev.stream, def->name, ev.timestamp,
                            ev.param});
    }

    // Interval list is ordered per stream by construction; order the
    // combined list by (begin, stream) for deterministic output.
    orderIntervals(map.allIntervals);

    for (const auto &iv : map.allIntervals)
        map.streamIds.push_back(iv.stream);
    for (const auto &mk : map.allMarkers)
        map.streamIds.push_back(mk.stream);
    std::sort(map.streamIds.begin(), map.streamIds.end());
    map.streamIds.erase(
        std::unique(map.streamIds.begin(), map.streamIds.end()),
        map.streamIds.end());

    map.byStream.resize(map.allIntervals.size());
    std::iota(map.byStream.begin(), map.byStream.end(), 0);
    std::stable_sort(map.byStream.begin(), map.byStream.end(),
                     [&map](std::size_t a, std::size_t b) {
                         return map.allIntervals[a].stream <
                                map.allIntervals[b].stream;
                     });
    return map;
}

std::span<const std::size_t>
ActivityMap::indicesOf(unsigned stream) const
{
    const auto range = std::ranges::equal_range(
        byStream, stream, {},
        [this](std::size_t i) { return allIntervals[i].stream; });
    return {range.begin(), range.end()};
}

std::vector<StateInterval>
ActivityMap::intervalsOf(unsigned stream) const
{
    std::vector<StateInterval> out;
    for (std::size_t i : indicesOf(stream))
        out.push_back(allIntervals[i]);
    return out;
}

double
ActivityMap::utilization(unsigned stream, const std::string &state,
                         sim::Tick t0, sim::Tick t1) const
{
    if (t1 <= t0)
        return 0.0;
    sim::Tick in_state = 0;
    for (std::size_t i : indicesOf(stream)) {
        const StateInterval &iv = allIntervals[i];
        if (iv.state != state)
            continue;
        const sim::Tick lo = std::max(iv.begin, t0);
        const sim::Tick hi = std::min(iv.end, t1);
        if (hi > lo)
            in_state += hi - lo;
    }
    return static_cast<double>(in_state) /
           static_cast<double>(t1 - t0);
}

double
ActivityMap::meanUtilization(const std::vector<unsigned> &streams,
                             const std::string &state, sim::Tick t0,
                             sim::Tick t1) const
{
    if (streams.empty())
        return 0.0;
    double sum = 0.0;
    for (unsigned s : streams)
        sum += utilization(s, state, t0, t1);
    return sum / static_cast<double>(streams.size());
}

sim::Histogram
ActivityMap::durationHistogram(unsigned stream,
                               const std::string &state,
                               std::size_t bins) const
{
    const auto indices = indicesOf(stream);
    double max_duration = 0.0;
    for (std::size_t i : indices) {
        const StateInterval &iv = allIntervals[i];
        if (iv.state == state) {
            max_duration = std::max(
                max_duration, static_cast<double>(iv.duration()));
        }
    }
    sim::Histogram hist(0.0, max_duration > 0.0 ? max_duration * 1.0001
                                                : 1.0,
                        bins);
    for (std::size_t i : indices) {
        const StateInterval &iv = allIntervals[i];
        if (iv.state == state)
            hist.push(static_cast<double>(iv.duration()));
    }
    return hist;
}

std::map<std::pair<unsigned, std::string>, sim::SummaryStat>
ActivityMap::durationStats() const
{
    std::map<std::pair<unsigned, std::string>, sim::SummaryStat> stats;
    for (const auto &iv : allIntervals) {
        stats[{iv.stream, iv.state}].push(
            static_cast<double>(iv.duration()));
    }
    return stats;
}

} // namespace trace
} // namespace supmon
