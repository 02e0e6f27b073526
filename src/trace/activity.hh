/**
 * @file
 * Activity mapping: turn an event trace into per-stream sequences of
 * state intervals (the data behind Gantt charts and utilization
 * statistics), as SIMPLE's evaluation tools do.
 */

#ifndef TRACE_ACTIVITY_HH
#define TRACE_ACTIVITY_HH

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace trace
{

/** One contiguous stay of a stream in one state. */
struct StateInterval
{
    unsigned stream = 0;
    std::string state;
    sim::Tick begin = 0;
    sim::Tick end = 0;

    sim::Tick
    duration() const
    {
        return end - begin;
    }
};

/** An instantaneous marker from a Point event. */
struct PointMarker
{
    unsigned stream = 0;
    std::string name;
    sim::Tick at = 0;
    std::uint32_t param = 0;
};

/** Receives one state interval: @p stream was in @p state during
 *  [begin, end), with end > begin. */
using IntervalSink =
    std::function<void(unsigned stream, const std::string &state,
                       sim::Tick begin, sim::Tick end)>;

/**
 * The open-state machine behind every state interval of a trace,
 * walked once over a time-ordered trace:
 *  - a Begin event closes its stream's open state into an interval,
 *    but only if the event is strictly later than that state's start,
 *    and opens the state it enters;
 *  - Point events and tokens the dictionary does not define are
 *    skipped;
 *  - after the last event, the states still open close at
 *    max(@p trace_end, last event's time stamp), in ascending stream
 *    order, if that is later than their start.
 *
 * ActivityMap::build collects the intervals; callers that only need
 * sums over them (the run's servant utilization, the activity-sanity
 * rule) consume them here without building a map.
 *
 * @return the time the open states closed at (0 for an empty trace).
 */
sim::Tick walkStateIntervals(const std::vector<TraceEvent> &events,
                             const EventDictionary &dict,
                             sim::Tick trace_end,
                             const IntervalSink &sink);

/**
 * Put @p intervals in the order of ActivityMap::intervals(): by begin,
 * then by stream, keeping the given order among equal keys.
 */
void orderIntervals(std::vector<StateInterval> &intervals);

class ActivityMap
{
  public:
    /**
     * Build the activity map from a time-ordered trace.
     * @param trace_end close any still-open state at this time
     *        (defaults to the last event's timestamp).
     */
    static ActivityMap build(const std::vector<TraceEvent> &events,
                             const EventDictionary &dict,
                             sim::Tick trace_end = 0);

    const std::vector<StateInterval> &
    intervals() const
    {
        return allIntervals;
    }

    const std::vector<PointMarker> &
    markers() const
    {
        return allMarkers;
    }

    /** Streams that produced at least one interval or marker. */
    const std::vector<unsigned> &
    streams() const
    {
        return streamIds;
    }

    /** Intervals of one stream, in time order. */
    std::vector<StateInterval> intervalsOf(unsigned stream) const;

    /**
     * Fraction of [t0, t1) that @p stream spent in @p state.
     */
    double utilization(unsigned stream, const std::string &state,
                       sim::Tick t0, sim::Tick t1) const;

    /**
     * Mean utilization of a state over several streams (e.g. the
     * "servant utilization" of the paper's Figures 8-10).
     */
    double meanUtilization(const std::vector<unsigned> &streams,
                           const std::string &state, sim::Tick t0,
                           sim::Tick t1) const;

    /** Duration statistics of every (stream, state) pair. */
    std::map<std::pair<unsigned, std::string>, sim::SummaryStat>
    durationStats() const;

    /**
     * Histogram of the durations of @p state on @p stream (SIMPLE's
     * statistical analysis). Bin range defaults to [0, max duration).
     */
    sim::Histogram durationHistogram(unsigned stream,
                                     const std::string &state,
                                     std::size_t bins = 20) const;

    /** Tokens in the trace that the dictionary does not define. */
    std::uint64_t
    unknownTokens() const
    {
        return unknown;
    }

    sim::Tick
    traceBegin() const
    {
        return beginTick;
    }

    sim::Tick
    traceEnd() const
    {
        return endTick;
    }

  private:
    /** Positions in allIntervals of @p stream's intervals, in time
     *  order. */
    std::span<const std::size_t> indicesOf(unsigned stream) const;

    std::vector<StateInterval> allIntervals;
    std::vector<PointMarker> allMarkers;
    std::vector<unsigned> streamIds;
    /** Positions in allIntervals ordered by stream, each stream's
     *  range in time order: the per-stream index. */
    std::vector<std::size_t> byStream;
    std::uint64_t unknown = 0;
    sim::Tick beginTick = 0;
    sim::Tick endTick = 0;
};

} // namespace trace
} // namespace supmon

#endif // TRACE_ACTIVITY_HH
