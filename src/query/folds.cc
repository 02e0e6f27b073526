#include "folds.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>

#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/io.hh"

namespace supmon
{
namespace query
{

namespace
{

std::string
tokenName(const trace::EventDictionary &dict, std::uint16_t token)
{
    const trace::EventDef *def = dict.find(token);
    return def ? def->name : sim::strprintf("0x%04x", token);
}

/** Per-stream slots are flat-indexed below this stream id; rarer
 *  (hostile) ids above it fall back to an ordered map. */
constexpr unsigned flatStreamLimit = 1u << 16;

/** Ensure the compiled table exists (normally shared via the
 *  context; compiled locally for a bare context). */
std::shared_ptr<const StateTable>
stateTableFor(const FoldContext &ctx)
{
    if (ctx.stateTable)
        return ctx.stateTable;
    return StateTable::compile(*ctx.dict);
}

/**
 * Per-stream slots: flat-indexed below flatStreamLimit (grown
 * geometrically), an ordered map for the rarer, hostile ids above.
 */
template <typename T>
class StreamSlots
{
  public:
    T &
    operator[](unsigned stream)
    {
        if (stream >= flatStreamLimit)
            return overflow[stream];
        if (stream >= flat.size())
            flat.resize(std::min<std::size_t>(
                std::max<std::size_t>(stream + 1, flat.size() * 2),
                flatStreamLimit));
        return flat[stream];
    }

    /** Visit (stream, slot) for every slot, streams ascending. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (unsigned s = 0; s < flat.size(); ++s)
            f(s, flat[s]);
        for (const auto &kv : overflow)
            f(kv.first, kv.second);
    }

  private:
    std::vector<T> flat;
    std::map<unsigned, T> overflow;
};

/** Tick window bucketing: the one implementation behind the windowed
 *  folds and their live preview. */
struct Windower
{
    WindowSpec spec;
    sim::Tick origin = 0;
    bool originSet = false;

    void
    anchor(sim::Tick t)
    {
        if (!originSet) {
            origin = t;
            originSet = true;
        }
    }

    /** Largest window index whose start lies before @p end_time. */
    std::int64_t
    lastIndexBefore(sim::Tick end_time) const
    {
        if (!originSet || end_time <= origin)
            return -1;
        return static_cast<std::int64_t>((end_time - 1 - origin) /
                                         spec.step);
    }

    /**
     * Window index range [lo, hi] covering instant @p t.
     * @return false for instants before the origin (possible only
     *         with a non-time-ordered trace).
     */
    bool
    indicesOf(sim::Tick t, std::int64_t &lo, std::int64_t &hi) const
    {
        if (t < origin)
            return false;
        hi = static_cast<std::int64_t>((t - origin) / spec.step);
        lo = t >= origin + spec.size
                 ? static_cast<std::int64_t>(
                       (t - origin - spec.size) / spec.step + 1)
                 : 0;
        return true;
    }

    /** Number of windows that ended at or before @p t. */
    std::int64_t
    endedBy(sim::Tick t) const
    {
        if (!originSet || t < origin || t - origin < spec.size)
            return 0;
        return static_cast<std::int64_t>(
                   (t - origin - spec.size) / spec.step) +
               1;
    }

    sim::Tick
    startOf(std::int64_t k) const
    {
        return origin + static_cast<sim::Tick>(k) * spec.step;
    }
};

bool
fixedWindows(const FoldContext &ctx)
{
    return ctx.window && ctx.window->step == ctx.window->size;
}

// ========================================================= shard folds

/** Minimal accepted-event tuple for origin-dependent replay. */
struct MiniEvent
{
    sim::Tick ts;
    unsigned stream;
    std::uint16_t token;
};

/** Cap arena / replay-buffer preallocation (records). */
constexpr std::uint64_t reserveCapRecords = 1u << 20;

/**
 * Open-addressing (stream, token) -> count table: the unwindowed
 * count hot path. Keys pack as (stream << 16) | token (< 2^48, so
 * the all-ones empty sentinel is never a real key); power-of-two
 * capacity, linear probing, growth at 3/4 load. No allocation per
 * event — the table doubles rarely and the probe loop is a couple of
 * loads.
 */
class CountTable
{
  public:
    CountTable()
    {
        keys.assign(capacity, emptyKey);
        vals.assign(capacity, 0);
    }

    void
    increment(std::uint64_t key)
    {
        std::size_t i = probeOf(key);
        if (keys[i] == emptyKey) {
            if ((used + 1) * 4 > capacity * 3) {
                grow();
                i = probeOf(key);
            }
            keys[i] = key;
            ++used;
        }
        ++vals[i];
    }

    /** Visit every (key, count) pair, in no particular order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < capacity; ++i) {
            if (keys[i] != emptyKey)
                f(keys[i], vals[i]);
        }
    }

  private:
    static constexpr std::uint64_t emptyKey = ~std::uint64_t(0);

    std::size_t
    probeOf(std::uint64_t key) const
    {
        // Fibonacci-style multiplicative hash onto the table size.
        std::size_t i = static_cast<std::size_t>(
            (key * 0x9E3779B97F4A7C15ull) >> 32) &
            (capacity - 1);
        while (keys[i] != emptyKey && keys[i] != key)
            i = (i + 1) & (capacity - 1);
        return i;
    }

    void
    grow()
    {
        const std::vector<std::uint64_t> oldKeys = std::move(keys);
        const std::vector<std::uint64_t> oldVals = std::move(vals);
        capacity *= 2;
        keys.assign(capacity, emptyKey);
        vals.assign(capacity, 0);
        for (std::size_t i = 0; i < oldKeys.size(); ++i) {
            if (oldKeys[i] == emptyKey)
                continue;
            const std::size_t j = probeOf(oldKeys[i]);
            keys[j] = oldKeys[i];
            vals[j] = oldVals[i];
        }
    }

    std::size_t capacity = 1024;
    std::size_t used = 0;
    std::vector<std::uint64_t> keys;
    std::vector<std::uint64_t> vals;
};

class CountShard : public ShardFold
{
  public:
    explicit CountShard(const FoldContext &ctx)
        : windowed(ctx.window.has_value())
    {
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        // Windowed counting buckets against the *global* first
        // accepted event, unknowable inside one shard — buffer the
        // three needed fields and bucket at merge time. Unwindowed
        // counts are plain integers and merge by addition.
        if (windowed)
            buffer.push_back({ev.timestamp, ev.stream, ev.token});
        else
            counts.increment(packKey(ev.stream, ev.token));
    }

    void
    onBatch(const trace::TraceEvent *events, std::size_t n) override
    {
        if (windowed) {
            for (std::size_t i = 0; i < n; ++i)
                buffer.push_back({events[i].timestamp,
                                  events[i].stream,
                                  events[i].token});
            return;
        }
        for (std::size_t i = 0; i < n; ++i)
            counts.increment(
                packKey(events[i].stream, events[i].token));
    }

    void
    onRawBatch(const unsigned char *raw, std::size_t n) override
    {
        // Fused decode + count: the record never leaves registers.
        trace::TraceEvent ev;
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            if (windowed)
                buffer.push_back({ev.timestamp, ev.stream, ev.token});
            else
                counts.increment(packKey(ev.stream, ev.token));
        }
    }

    void
    reserveHint(std::uint64_t records) override
    {
        if (windowed)
            buffer.reserve(static_cast<std::size_t>(
                std::min(records, reserveCapRecords)));
    }

    static std::uint64_t
    packKey(unsigned stream, std::uint16_t token)
    {
        return (static_cast<std::uint64_t>(stream) << 16) | token;
    }

    bool windowed;
    CountTable counts;
    /** Windowed: accepted events since the last drain. */
    std::vector<MiniEvent> buffer;
};

/**
 * Shared by `states` and `utilization`: the open-state machine of
 * trace::ActivityMap::build() over the shard's slice, with the
 * boundary state explicit — closed intervals in emission order, the
 * first Begin per stream (which closes the *previous* shard's open
 * state at merge time), and the still-open state per stream.
 */
class StateShard : public ShardFold
{
  public:
    explicit StateShard(std::shared_ptr<const StateTable> state_table)
        : table(std::move(state_table))
    {
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        onBatch(&ev, 1);
    }

    void
    onBatch(const trace::TraceEvent *events, std::size_t n) override
    {
        if (n == 0)
            return;
        // First/last timestamps move to block granularity; events
        // arrive in trace order, so the block's last event is the
        // running last.
        if (!sawEvent) {
            sawEvent = true;
            firstTs = events[0].timestamp;
        }
        lastTs = events[n - 1].timestamp;
        const std::uint16_t *token_state = table->tokenState.data();
        for (std::size_t i = 0; i < n; ++i)
            track(events[i], token_state);
    }

    void
    onRawBatch(const unsigned char *raw, std::size_t n) override
    {
        if (n == 0)
            return;
        // Fused decode + state machine: each record decodes into one
        // register-resident event and is consumed immediately,
        // skipping the staging batch array entirely.
        const std::uint16_t *token_state = table->tokenState.data();
        trace::TraceEvent ev;
        for (std::size_t i = 0; i < n;
             ++i, raw += trace::TraceReader::recordBytes) {
            trace::TraceReader::decodeRecord(raw, ev);
            if (!sawEvent) {
                sawEvent = true;
                firstTs = ev.timestamp;
            }
            track(ev, token_state);
        }
        lastTs = ev.timestamp;
    }

    void
    reserveHint(std::uint64_t records) override
    {
        intervals.reserve(static_cast<std::size_t>(
            std::min(records, reserveCapRecords)));
    }

    /** Sentinel duration: the interval's end/stream live in the next
     *  `wide` record (huge durations and >16-bit stream ids). */
    static constexpr std::uint32_t wideDur = 0xffffffffu;

    /**
     * Closed interval of the shard's slice: 16 POD bytes in an
     * arena, not a string-keyed map entry. The merger replays the
     * arena (one streaming pass) into its accumulator, so its byte
     * size is merge-stage memory traffic — hence the packed duration
     * with a rare wide-record escape instead of two full ticks.
     */
    struct Interval
    {
        sim::Tick begin;
        /** end - begin, or wideDur (see `wide`). */
        std::uint32_t dur;
        std::uint16_t stream;
        std::uint16_t sid;
    };

    /** Escape record for intervals wideDur cannot represent; one per
     *  sentinel arena entry, in arena order. */
    struct WideInterval
    {
        sim::Tick end;
        std::uint32_t stream;
    };

    /** A stream's first accepted Begin in this shard. */
    struct FirstBegin
    {
        unsigned stream;
        sim::Tick at;
    };

    /** Visit still-open (stream, sid, since), streams ascending. */
    template <typename F>
    void
    forEachOpen(F &&f) const
    {
        open.forEach([&f](unsigned stream, const OpenSlot &slot) {
            if (slot.isOpen)
                f(stream, slot.sid, slot.since);
        });
    }

    std::shared_ptr<const StateTable> table;
    /** Closed intervals since the last drain, in emission order. */
    std::vector<Interval> intervals;
    std::vector<WideInterval> wide;
    /** First Begins since the last drain, in event order. */
    std::vector<FirstBegin> firstBegins;
    bool sawEvent = false;
    sim::Tick firstTs = 0;
    sim::Tick lastTs = 0;

  private:
    /** The per-event state machine with the token table hoisted out
     *  (the batch loop loads it once, not per event). */
    void
    track(const trace::TraceEvent &ev,
          const std::uint16_t *token_state)
    {
        const std::uint16_t sid = token_state[ev.token];
        if (sid == StateTable::noState)
            return;
        OpenSlot &cur = open[ev.stream];
        if (!cur.isOpen) {
            // isOpen never resets, so this is the genuinely first
            // accepted Begin of the stream.
            firstBegins.push_back({ev.stream, ev.timestamp});
        } else if (ev.timestamp > cur.since) {
            pushInterval(ev.stream, cur.sid, cur.since,
                         ev.timestamp);
        }
        cur.sid = sid;
        cur.since = ev.timestamp;
        cur.isOpen = true;
    }

    void
    pushInterval(unsigned stream, std::uint16_t sid, sim::Tick b,
                 sim::Tick e)
    {
        const sim::Tick d = e - b;
        if (stream < flatStreamLimit && d < wideDur) {
            intervals.push_back({b, static_cast<std::uint32_t>(d),
                                 static_cast<std::uint16_t>(stream),
                                 sid});
            return;
        }
        intervals.push_back({b, wideDur, 0, sid});
        wide.push_back({e, stream});
    }

    /** Boundary state of one stream. */
    struct OpenSlot
    {
        sim::Tick since = 0;
        std::uint16_t sid = 0;
        bool isOpen = false;
    };

    StreamSlots<OpenSlot> open;
};

class LatencyShard : public ShardFold
{
  public:
    void
    onEvent(const trace::TraceEvent &ev) override
    {
        Last &last = lastSeen[ev.stream];
        steps.push_back({last.seen ? ev.timestamp - last.at
                                   : ev.timestamp,
                         ev.stream, !last.seen});
        last = {ev.timestamp, true};
    }

    /** One event: the exact tick gap since its stream's previous
     *  event or, for the stream's first event in the shard
     *  (`first`), its timestamp. */
    struct Step
    {
        sim::Tick ticks;
        unsigned stream;
        bool first;
    };

    /** A stream's last timestamp so far. */
    struct Last
    {
        sim::Tick at = 0;
        bool seen = false;
    };

    /** Steps since the last drain, in event order. */
    std::vector<Step> steps;
    StreamSlots<Last> lastSeen;
};

class RttShard : public ShardFold
{
  public:
    RttShard(const FoldSpec &spec, const FoldContext &ctx)
    {
        for (std::uint16_t t :
             resolveTokenPattern(spec.beginPattern, *ctx.dict))
            relevant.insert(t);
        for (std::uint16_t t :
             resolveTokenPattern(spec.endPattern, *ctx.dict))
            relevant.insert(t);
    }

    void
    onEvent(const trace::TraceEvent &ev) override
    {
        // Begin/end pairing is keyed on the parameter with
        // first-begin-wins semantics across the whole trace — a
        // local match can differ from the global one (the matching
        // begin may live in an earlier shard). Buffer the relevant
        // events and replay the pairing serially at merge time.
        if (relevant.count(ev.token))
            buffer.push_back({ev.timestamp, ev.param, ev.token});
    }

    struct MiniRtt
    {
        sim::Tick ts;
        std::uint32_t param;
        std::uint16_t token;
    };

    std::set<std::uint16_t> relevant;
    /** Relevant events since the last drain. */
    std::vector<MiniRtt> buffer;
};

// ============================================================= mergers
//
// One merger per fold kind, holding the kind's accumulator. Shards
// and mergers come from matching factories for the same spec, so the
// downcasts below are exact.

class CountMerger : public FoldMerger
{
  public:
    explicit CountMerger(const FoldContext &ctx) : context(ctx)
    {
        if (context.window) {
            windower.spec = *context.window;
            if (context.hasFrom)
                windower.anchor(context.from);
        }
    }

    void
    drain(ShardFold &head) override
    {
        auto &s = static_cast<CountShard &>(head);
        for (const MiniEvent &m : s.buffer)
            add(m);
        s.buffer.clear();
    }

    void
    absorb(ShardFold &head) override
    {
        drain(head);
        static_cast<CountShard &>(head).counts.forEach(
            [this](std::uint64_t key, std::uint64_t n) {
                counts[{0, static_cast<unsigned>(key >> 16),
                        static_cast<std::uint16_t>(key & 0xffff)}] += n;
            });
    }

    Table
    finish() override
    {
        Table table;
        table.columns = columns();
        for (auto it = counts.begin(); it != counts.end(); ++it)
            addRow(table, it);
        return table;
    }

    bool
    previewsWindows() const override
    {
        return fixedWindows(context);
    }

    void
    previewWindows(sim::Tick now, const ShardFold &head,
                   const RowSink &sink) override
    {
        (void)head;
        const std::int64_t ended = windower.endedBy(now);
        while (nextWindow < ended) {
            // Jump straight to the next window that holds counts.
            auto it = counts.lower_bound({nextWindow, 0, 0});
            if (it == counts.end() || std::get<0>(it->first) >= ended) {
                nextWindow = ended;
                return;
            }
            const std::int64_t k = std::get<0>(it->first);
            Table rows;
            rows.columns = columns();
            for (; it != counts.end() && std::get<0>(it->first) == k;
                 ++it)
                addRow(rows, it);
            sink(rows);
            nextWindow = k + 1;
        }
    }

  private:
    using Key = std::tuple<std::int64_t, unsigned, std::uint16_t>;

    void
    add(const MiniEvent &m)
    {
        windower.anchor(m.ts);
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        if (!windower.indicesOf(m.ts, lo, hi))
            return;
        for (std::int64_t k = lo; k <= hi; ++k)
            ++counts[{k, m.stream, m.token}];
    }

    std::vector<std::string>
    columns() const
    {
        std::vector<std::string> out;
        if (context.window)
            out.push_back("window_ms");
        out.insert(out.end(), {"stream", "event", "count"});
        return out;
    }

    void
    addRow(Table &table,
           std::map<Key, std::uint64_t>::const_iterator it) const
    {
        const auto &[window, stream, token] = it->first;
        std::vector<Value> row;
        if (context.window) {
            row.push_back(Value::number(
                sim::toMilliseconds(windower.startOf(window))));
        }
        row.push_back(Value::str(context.dict->streamName(stream)));
        row.push_back(Value::str(tokenName(*context.dict, token)));
        row.push_back(Value::count(it->second));
        table.addRow(std::move(row));
    }

    FoldContext context;
    Windower windower;
    std::map<Key, std::uint64_t> counts;
    /** Live preview: first window not yet previewed. */
    std::int64_t nextWindow = 0;
};

/**
 * The order rule of the state-based mergers. Replays the head shard's
 * closed intervals through an emit callback; a state still open at a
 * shard's end is carried and closes at the next shard's first Begin
 * of its stream, before that shard's intervals replay. That keeps
 * every per-(stream, state) push in serial order, which is all that
 * matters: statistics are keyed per (stream, state), and integer
 * overlap sums are order-free. Also tracks the global first and last
 * accepted event, which fix the evaluation range and window origin.
 */
class StateStitch
{
  public:
    template <typename Emit>
    void
    drain(StateShard &s, Emit &&emit)
    {
        if (s.sawEvent) {
            if (!any) {
                any = true;
                firstTs = s.firstTs;
            }
            lastTs = s.lastTs;
        }
        for (const StateShard::FirstBegin &fb : s.firstBegins) {
            auto it = carry.find(fb.stream);
            if (it == carry.end())
                continue;
            if (fb.at > it->second.since)
                emit(fb.stream, it->second.sid, it->second.since, fb.at);
            carry.erase(it);
        }
        s.firstBegins.clear();
        // Streaming replay of the arena; wide records (rare) are
        // consumed in step with their sentinel entries.
        std::size_t w = 0;
        for (const auto &iv : s.intervals) {
            if (iv.dur != StateShard::wideDur) {
                emit(iv.stream, iv.sid, iv.begin, iv.begin + iv.dur);
            } else {
                const StateShard::WideInterval &wd = s.wide[w++];
                emit(wd.stream, iv.sid, iv.begin, wd.end);
            }
        }
        s.intervals.clear();
        s.wide.clear();
    }

    void
    carryOpen(const StateShard &s)
    {
        s.forEachOpen(
            [this](unsigned stream, std::uint16_t sid, sim::Tick since) {
                carry[stream] = Carry{since, sid};
            });
    }

    /** End of trace: close what is still carried at max(trace_end,
     *  last event), in ascending stream order; returns that time. */
    template <typename Emit>
    sim::Tick
    close(sim::Tick trace_end, Emit &&emit)
    {
        const sim::Tick endTs =
            trace_end ? std::max(trace_end, lastTs) : lastTs;
        for (const auto &kv : carry) {
            if (endTs > kv.second.since)
                emit(kv.first, kv.second.sid, kv.second.since, endTs);
        }
        carry.clear();
        return endTs;
    }

    bool any = false;
    sim::Tick firstTs = 0;
    sim::Tick lastTs = 0;

  private:
    struct Carry
    {
        sim::Tick since;
        std::uint16_t sid;
    };
    std::map<unsigned, Carry> carry;
};

/**
 * The `states` merger: a flat `streams x states` array of
 * accumulators (one multiply-indexed slot per key, map overflow past
 * the flat limit), fed the stitched interval stream in serial
 * per-key order. Rows come out streams ascending, states in id =
 * statesInOrder() order.
 */
class StatesMerger : public FoldMerger
{
  public:
    explicit StatesMerger(const FoldContext &ctx)
        : context(ctx), table(stateTableFor(ctx)),
          nStates(table->states.size())
    {
    }

    void
    drain(ShardFold &head) override
    {
        stitch.drain(static_cast<StateShard &>(head),
                     [this](auto... iv) { add(iv...); });
    }

    void
    absorb(ShardFold &head) override
    {
        drain(head);
        stitch.carryOpen(static_cast<StateShard &>(head));
    }

    Table
    finish() override
    {
        const sim::Tick endTs = stitch.close(
            context.traceEnd, [this](auto... iv) { add(iv...); });
        const sim::Tick t0 =
            context.hasFrom ? context.from : stitch.firstTs;
        const sim::Tick t1 = context.hasTo ? context.to : endTs;
        Table out;
        out.columns = {"stream",  "state",  "count",
                       "total_ms", "mean_ms", "min_ms",
                       "max_ms",  "share"};
        const unsigned flatStreams = static_cast<unsigned>(
            nStates ? flat.size() / nStates : 0);
        for (unsigned s = 0; s < flatStreams; ++s) {
            for (std::size_t sid = 0; sid < nStates; ++sid)
                addRow(out, s, sid, flat[s * nStates + sid], t0, t1);
        }
        for (const auto &kv : overflow) {
            // Composite keys iterate stream-major, state-minor —
            // the same row order as the flat part.
            addRow(out, static_cast<unsigned>(kv.first / nStates),
                   static_cast<std::size_t>(kv.first % nStates),
                   kv.second, t0, t1);
        }
        return out;
    }

  private:
    struct Slot
    {
        sim::SummaryStat stat;
        sim::Tick covered = 0;
    };

    void
    add(unsigned stream, std::uint16_t sid, sim::Tick begin,
        sim::Tick end)
    {
        Slot &slot = slotFor(stream, sid);
        slot.stat.push(static_cast<double>(end - begin));
        // Overlap with the evaluation range, clamped per interval.
        const sim::Tick lo =
            context.hasFrom ? std::max(begin, context.from) : begin;
        const sim::Tick hi =
            context.hasTo ? std::min(end, context.to) : end;
        if (hi > lo)
            slot.covered += hi - lo;
    }

    Slot &
    slotFor(unsigned stream, std::uint16_t sid)
    {
        if (stream >= flatStreamLimit)
            return overflow[static_cast<std::uint64_t>(stream) *
                                nStates +
                            sid];
        const std::size_t index = stream * nStates + sid;
        if (index >= flat.size()) {
            flat.resize(std::min<std::size_t>(
                std::max<std::size_t>((stream + 1) * nStates,
                                      flat.size() * 2),
                static_cast<std::size_t>(flatStreamLimit) *
                    nStates));
        }
        return flat[index];
    }

    void
    addRow(Table &out, unsigned stream, std::size_t sid,
           const Slot &slot, sim::Tick t0, sim::Tick t1) const
    {
        if (slot.stat.count() == 0)
            return;
        const double share =
            t1 > t0 ? static_cast<double>(slot.covered) /
                          static_cast<double>(t1 - t0)
                    : 0.0;
        out.addRow({Value::str(context.dict->streamName(stream)),
                    Value::str(table->states[sid]),
                    Value::count(slot.stat.count()),
                    Value::number(slot.stat.sum() * 1e-6),
                    Value::number(slot.stat.mean() * 1e-6),
                    Value::number(slot.stat.min() * 1e-6),
                    Value::number(slot.stat.max() * 1e-6),
                    Value::number(share)});
    }

    FoldContext context;
    std::shared_ptr<const StateTable> table;
    std::size_t nStates;
    StateStitch stitch;
    std::vector<Slot> flat;
    std::map<std::uint64_t, Slot> overflow;
};

class UtilizationMerger : public FoldMerger
{
  public:
    UtilizationMerger(const FoldSpec &spec, const FoldContext &ctx)
        : context(ctx), state(spec.state),
          targetSid(stateTableFor(ctx)->idOf(state))
    {
        if (context.window) {
            windower.spec = *context.window;
            if (context.hasFrom)
                windower.anchor(context.from);
        }
    }

    void
    drain(ShardFold &head) override
    {
        auto &s = static_cast<StateShard &>(head);
        // The window origin is the first accepted event (unless the
        // constructor anchored it at `from`): set it before any
        // interval replays. Shards drain in order, so the first one
        // with events anchors.
        if (context.window && s.sawEvent)
            windower.anchor(s.firstTs);
        stitch.drain(s, [this](auto... iv) { add(iv...); });
    }

    void
    absorb(ShardFold &head) override
    {
        drain(head);
        stitch.carryOpen(static_cast<StateShard &>(head));
    }

    Table
    finish() override
    {
        const sim::Tick endTs = stitch.close(
            context.traceEnd, [this](auto... iv) { add(iv...); });
        const sim::Tick t0 =
            context.hasFrom ? context.from : stitch.firstTs;
        const sim::Tick t1 = context.hasTo ? context.to : endTs;

        Table table;
        if (!context.window) {
            table.columns = {"stream", "state", "utilization"};
            for (unsigned stream : streams) {
                sim::Tick covered = 0;
                if (auto it = overlap.find({0, stream});
                    it != overlap.end())
                    covered = it->second;
                const double u =
                    t1 > t0 ? static_cast<double>(covered) /
                                  static_cast<double>(t1 - t0)
                            : 0.0;
                table.addRow(
                    {Value::str(context.dict->streamName(stream)),
                     Value::str(state), Value::number(u)});
            }
            return table;
        }

        table.columns = columns();
        const std::int64_t last = windower.lastIndexBefore(t1);
        // Dense rows (a value for every window) unless that would
        // explode; tiny windows over a long trace fall back to the
        // windows that actually saw the state.
        const bool dense =
            last >= 0 &&
            (last + 1) * static_cast<std::int64_t>(
                             std::max<std::size_t>(streams.size(), 1)) <=
                200000;
        if (dense) {
            for (std::int64_t k = 0; k <= last; ++k) {
                for (unsigned stream : streams) {
                    sim::Tick covered = 0;
                    if (auto it = overlap.find({k, stream});
                        it != overlap.end())
                        covered = it->second;
                    addWindowRow(table, k, stream, covered);
                }
            }
        } else {
            for (const auto &kv : overlap)
                addWindowRow(table, kv.first.first, kv.first.second,
                             kv.second);
        }
        return table;
    }

    bool
    previewsWindows() const override
    {
        return fixedWindows(context);
    }

    void
    previewWindows(sim::Tick now, const ShardFold &head,
                   const RowSink &sink) override
    {
        const std::int64_t ended = windower.endedBy(now);
        if (nextWindow >= ended)
            return;
        // The target states still open, streams ascending, and the
        // first window any of them covers: from there on, every
        // window up to `now` has a row.
        std::vector<std::pair<unsigned, sim::Tick>> open;
        std::int64_t firstOpen = std::numeric_limits<std::int64_t>::max();
        static_cast<const StateShard &>(head).forEachOpen(
            [&](unsigned stream, std::uint16_t sid, sim::Tick since) {
                if (sid != targetSid)
                    return;
                open.emplace_back(stream, since);
                std::int64_t lo = 0;
                std::int64_t hi = 0;
                firstOpen = std::min(
                    firstOpen, windower.indicesOf(since, lo, hi) ? hi : 0);
            });
        while (nextWindow < ended) {
            // The next window with rows; empty ones are skipped.
            auto it = overlap.lower_bound({nextWindow, 0});
            const std::int64_t k = std::min(
                std::max(firstOpen, nextWindow),
                it == overlap.end() ? std::numeric_limits<std::int64_t>::max()
                                    : it->first.first);
            if (k >= ended) {
                nextWindow = ended;
                return;
            }
            // Merge the closed overlap of window k with the open
            // states' credit up to its end, streams ascending.
            const sim::Tick wlo = windower.startOf(k);
            const sim::Tick whi = wlo + windower.spec.size;
            Table rows;
            rows.columns = columns();
            std::size_t i = 0;
            for (;;) {
                while (i < open.size() && open[i].second >= whi)
                    ++i;
                const bool closed =
                    it != overlap.end() && it->first.first == k;
                if (!closed && i == open.size())
                    break;
                const unsigned stream =
                    !closed ? open[i].first
                    : i == open.size()
                        ? it->first.second
                        : std::min(it->first.second, open[i].first);
                sim::Tick covered = 0;
                if (closed && it->first.second == stream)
                    covered += (it++)->second;
                if (i < open.size() && open[i].first == stream)
                    covered += whi - std::max(open[i++].second, wlo);
                addWindowRow(rows, k, stream, covered);
            }
            sink(rows);
            nextWindow = k + 1;
        }
    }

  private:
    static std::vector<std::string>
    columns()
    {
        return {"window_ms", "stream", "state", "utilization"};
    }

    void
    addWindowRow(Table &table, std::int64_t k, unsigned stream,
                 sim::Tick covered) const
    {
        table.addRow(
            {Value::number(sim::toMilliseconds(windower.startOf(k))),
             Value::str(context.dict->streamName(stream)),
             Value::str(state),
             Value::number(static_cast<double>(covered) /
                           static_cast<double>(windower.spec.size))});
    }

    void
    add(unsigned stream, std::uint16_t sid, sim::Tick begin,
        sim::Tick end)
    {
        streams.insert(stream);
        // An unknown target state compiles to noState, which no
        // interval carries: zero utilization rows.
        if (sid != targetSid)
            return;
        if (!context.window) {
            const sim::Tick lo = context.hasFrom
                                     ? std::max(begin, context.from)
                                     : begin;
            const sim::Tick hi =
                context.hasTo ? std::min(end, context.to) : end;
            if (hi > lo)
                overlap[{0, stream}] += hi - lo;
            return;
        }
        const sim::Tick b = std::max(begin, windower.origin);
        if (end <= b)
            return;
        std::int64_t lo = 0;
        std::int64_t hi = 0;
        if (!windower.indicesOf(b, lo, hi))
            return;
        const std::int64_t lastTouched =
            windower.lastIndexBefore(end);
        for (std::int64_t k = lo; k <= lastTouched; ++k) {
            const sim::Tick wlo = windower.startOf(k);
            const sim::Tick whi = wlo + windower.spec.size;
            const sim::Tick a = std::max(begin, wlo);
            const sim::Tick z = std::min(end, whi);
            if (z > a)
                overlap[{k, stream}] += z - a;
        }
    }

    FoldContext context;
    std::string state;
    std::uint16_t targetSid;
    StateStitch stitch;
    Windower windower;
    std::set<unsigned> streams;
    std::map<std::pair<std::int64_t, unsigned>, sim::Tick> overlap;
    /** Live preview: first window not yet previewed. */
    std::int64_t nextWindow = 0;
};

class LatencyMerger : public FoldMerger
{
  public:
    LatencyMerger(const FoldSpec &spec, const FoldContext &ctx)
        : context(ctx), bins(spec.bins), histMax(spec.histMax)
    {
    }

    void
    drain(ShardFold &head) override
    {
        auto &s = static_cast<LatencyShard &>(head);
        for (const LatencyShard::Step &step : s.steps) {
            if (!step.first) {
                push(step.stream, step.ticks);
                continue;
            }
            // The gap across a shard edge: from the stream's last
            // event in an earlier shard, if any.
            if (auto it = carryLast.find(step.stream);
                it != carryLast.end())
                push(step.stream, step.ticks - it->second);
        }
        s.steps.clear();
    }

    void
    absorb(ShardFold &head) override
    {
        drain(head);
        static_cast<LatencyShard &>(head).lastSeen.forEach(
            [this](unsigned stream, const LatencyShard::Last &last) {
                if (last.seen)
                    carryLast[stream] = last.at;
            });
    }

    Table
    finish() override
    {
        Table table;
        if (!bins) {
            table.columns = {"stream", "pairs",  "mean_ms",
                             "min_ms", "max_ms", "stddev_ms"};
        } else {
            table.columns = {"stream", "bin", "lo_ms", "count"};
        }
        gaps.forEach([&](unsigned stream, const Gaps &g) {
            const sim::SummaryStat &s = g.stat;
            if (s.count() == 0)
                return;
            const std::string name = context.dict->streamName(stream);
            if (!bins) {
                table.addRow({Value::str(name), Value::count(s.count()),
                              Value::number(s.mean() * 1e-6),
                              Value::number(s.min() * 1e-6),
                              Value::number(s.max() * 1e-6),
                              Value::number(s.stddev() * 1e-6)});
                return;
            }
            const sim::Histogram &h = *g.hist;
            for (std::size_t b = 0; b < h.bins(); ++b) {
                table.addRow({Value::str(name),
                              Value::str(std::to_string(b)),
                              Value::number(h.binLower(b) * 1e-6),
                              Value::count(h.binCount(b))});
            }
            table.addRow(
                {Value::str(name), Value::str("overflow"),
                 Value::number(sim::toMilliseconds(histMax)),
                 Value::count(h.overflow())});
        });
        return table;
    }

  private:
    /** One inter-event gap (an exact tick difference, so the serial
     *  replay order reproduces the serial doubles bit for bit). */
    void
    push(unsigned stream, sim::Tick gapTicks)
    {
        const double gap = static_cast<double>(gapTicks);
        Gaps &g = gaps[stream];
        g.stat.push(gap);
        if (bins) {
            if (!g.hist)
                g.hist.emplace(0.0, static_cast<double>(histMax), bins);
            g.hist->push(gap);
        }
    }

    /** One stream's gaps; the histogram exists once a gap arrives
     *  and bins are asked for. */
    struct Gaps
    {
        sim::SummaryStat stat;
        std::optional<sim::Histogram> hist;
    };

    FoldContext context;
    std::size_t bins = 0;
    sim::Tick histMax = 0;
    /** Each stream's last timestamp in the shards absorbed so far. */
    std::map<unsigned, sim::Tick> carryLast;
    StreamSlots<Gaps> gaps;
};

class RttMerger : public FoldMerger
{
  public:
    RttMerger(const FoldSpec &spec, const FoldContext &ctx)
    {
        for (std::uint16_t t :
             resolveTokenPattern(spec.beginPattern, *ctx.dict))
            beginTokens.insert(t);
        for (std::uint16_t t :
             resolveTokenPattern(spec.endPattern, *ctx.dict))
            endTokens.insert(t);
    }

    void
    drain(ShardFold &head) override
    {
        auto &s = static_cast<RttShard &>(head);
        for (const RttShard::MiniRtt &m : s.buffer)
            add(m);
        s.buffer.clear();
    }

    void
    absorb(ShardFold &head) override
    {
        drain(head);
    }

    Table
    finish() override
    {
        Table table;
        table.columns = {"pairs",   "unmatched_begin",
                         "unmatched_end", "mean_ms", "min_ms",
                         "max_ms",  "stddev_ms"};
        table.addRow(
            {Value::count(stats.count()),
             Value::count(pending.size() + duplicateBegins),
             Value::count(unmatchedEnds),
             Value::number(stats.mean() * 1e-6),
             Value::number(stats.min() * 1e-6),
             Value::number(stats.max() * 1e-6),
             Value::number(stats.stddev() * 1e-6)});
        return table;
    }

  private:
    void
    add(const RttShard::MiniRtt &m)
    {
        if (beginTokens.count(m.token)) {
            // Key on the parameter (the job id in the ray tracer's
            // protocol); the first begin wins.
            if (!pending.emplace(m.param, m.ts).second)
                ++duplicateBegins;
        } else if (endTokens.count(m.token)) {
            auto it = pending.find(m.param);
            if (it == pending.end()) {
                ++unmatchedEnds;
                return;
            }
            stats.push(static_cast<double>(m.ts - it->second));
            pending.erase(it);
        }
    }

    std::set<std::uint16_t> beginTokens;
    std::set<std::uint16_t> endTokens;
    std::map<std::uint32_t, sim::Tick> pending;
    sim::SummaryStat stats;
    std::uint64_t duplicateBegins = 0;
    std::uint64_t unmatchedEnds = 0;
};

} // namespace

std::uint16_t
StateTable::idOf(const std::string &state) const
{
    auto it = ids.find(state);
    return it == ids.end() ? noState : it->second;
}

std::shared_ptr<const StateTable>
StateTable::compile(const trace::EventDictionary &dict)
{
    auto table = std::make_shared<StateTable>();
    table->states = dict.statesInOrder();
    for (std::size_t i = 0; i < table->states.size(); ++i) {
        table->ids.emplace(table->states[i],
                           static_cast<std::uint16_t>(i));
    }
    table->tokenState.assign(65536, noState);
    // Every Begin definition's state is in statesInOrder() by
    // construction, so no Begin token maps to noState.
    for (const auto &def : dict.definitions()) {
        if (def.kind == trace::EventKind::Begin)
            table->tokenState[def.token] = table->idOf(def.state);
    }
    return table;
}

std::vector<std::uint16_t>
resolveTokenPattern(const std::string &pattern,
                    const trace::EventDictionary &dict)
{
    std::vector<std::uint16_t> tokens;
    if (pattern.empty())
        return tokens;
    const bool hex = pattern.size() > 2 && pattern[0] == '0' &&
                     (pattern[1] == 'x' || pattern[1] == 'X');
    const bool digits =
        !hex && std::all_of(pattern.begin(), pattern.end(), [](char c) {
            return std::isdigit(static_cast<unsigned char>(c));
        });
    if (hex || digits) {
        char *end = nullptr;
        const unsigned long value =
            std::strtoul(pattern.c_str(), &end, hex ? 16 : 10);
        if (end && *end == '\0' && value <= 0xffff)
            tokens.push_back(static_cast<std::uint16_t>(value));
        return tokens;
    }
    for (const auto &def : dict.definitions()) {
        // Match the display name ("Work Begin") and the enum-style
        // identifier ("evWorkBegin") the instrumentation uses.
        std::string ident = "ev";
        for (char c : def.name) {
            if (c != ' ')
                ident += c;
        }
        if (globMatch(pattern, def.name) || globMatch(pattern, ident))
            tokens.push_back(def.token);
    }
    return tokens;
}

void
ShardFold::onRawBatch(const unsigned char *raw, std::size_t n)
{
    // Generic raw path: decode per record, forward per event. The
    // hot fold kinds override this with a fused loop.
    trace::TraceEvent ev;
    for (std::size_t i = 0; i < n;
         ++i, raw += trace::TraceReader::recordBytes) {
        trace::TraceReader::decodeRecord(raw, ev);
        onEvent(ev);
    }
}

std::unique_ptr<ShardFold>
makeShardFold(const FoldSpec &spec, const FoldContext &ctx)
{
    switch (spec.kind) {
      case FoldKind::States:
      case FoldKind::Utilization:
        return std::make_unique<StateShard>(stateTableFor(ctx));
      case FoldKind::Latency:
        return std::make_unique<LatencyShard>();
      case FoldKind::Rtt:
        return std::make_unique<RttShard>(spec, ctx);
      case FoldKind::Count:
        break;
    }
    return std::make_unique<CountShard>(ctx);
}

std::unique_ptr<FoldMerger>
makeFoldMerger(const FoldSpec &spec, const FoldContext &ctx)
{
    switch (spec.kind) {
      case FoldKind::States:
        return std::make_unique<StatesMerger>(ctx);
      case FoldKind::Utilization:
        return std::make_unique<UtilizationMerger>(spec, ctx);
      case FoldKind::Latency:
        return std::make_unique<LatencyMerger>(spec, ctx);
      case FoldKind::Rtt:
        return std::make_unique<RttMerger>(spec, ctx);
      case FoldKind::Count:
        break;
    }
    return std::make_unique<CountMerger>(ctx);
}

} // namespace query
} // namespace supmon
