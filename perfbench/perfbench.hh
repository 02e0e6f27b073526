/**
 * @file
 * The repository benchmark: three workloads (record, query, live)
 * driven through the monitoring libraries' public calls, with every
 * output checked and every layer call wrapped in a span.
 *
 * main.cc owns the run protocol (set-up samples, the timed loop, the
 * end-to-end metrics); each workload_*.cc implements one Workload;
 * spans.cc holds the in-memory span recorder, the per-layer ledger
 * and the self-trace writer. See NOTES.md for why each workload and
 * metric exists.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "query/table.hh"
#include "trace/event.hh"

namespace pb
{

/** Command-line settings of one benchmark run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Small inputs, for the benchmark's own tests. */
    bool tiny = false;
    /** Test hook: damage one output ("smtr", "table" or "archive")
     *  so the tests can show the checks count it as failed. */
    std::string corrupt;
};

/** Scratch directory for archives, sockets and the self-trace,
 *  relative to the checkout root the benchmark runs in (relative
 *  keeps the Unix socket path short). */
const std::string workDir = ".bench_work";

/** Scenario seed whose digests are committed (tests/golden). */
constexpr std::uint64_t defaultSeed = 1;

/** Sample list with the order statistics the report needs. */
class Samples
{
  public:
    void
    add(double v)
    {
        values.push_back(v);
    }

    std::size_t
    size() const
    {
        return values.size();
    }

    /** Linear-interpolated quantile, q in [0, 1]; 0 when empty. */
    double quantile(double q) const;

    double
    median() const
    {
        return quantile(0.5);
    }

  private:
    std::vector<double> values;
};

/** One named measurement; samples = how many values it summarizes. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
};

/** What a run hands back: operation counts, failures, metrics. */
struct Result
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Reasons of failed checks (first few are printed). */
    std::vector<std::string> failures;
    /** Checks of the benchmark itself (not operations) that failed. */
    bool internalError = false;
    std::vector<Metric> metrics;

    void
    metric(const std::string &name, double value,
           const std::string &unit, std::size_t samples = 1)
    {
        metrics.push_back(Metric{name, value, unit, samples});
    }

    /** Median of @p s, with its sample count. */
    void
    metric(const std::string &name, const Samples &s,
           const std::string &unit)
    {
        metric(name, s.median(), unit, s.size());
    }

    /** Count @p ops operations as failed because of @p why. */
    void fail(const std::string &why, std::uint64_t ops = 1);
};

/** Nanoseconds on the steady clock since the process started. */
std::int64_t nowNs();
/** Last-level (L3) cache size of this host in bytes; 0 if unknown. */
std::uint64_t l3Bytes();
/** User + system CPU seconds of the whole process. */
double processCpuSeconds();
/** CPU seconds of the calling thread. */
double threadCpuSeconds();

/**
 * Times the measured part of one set-up or repetition: wall and
 * process CPU accumulate only between resume() and pause(), so a
 * workload pauses the clock around its checks. Each running stretch
 * is one step (a scenario, a request, a session) and a
 * "bench.region" span, the root of the ledger.
 */
class RepClock
{
  public:
    /** @param ledger open bench.region spans (timed repetitions);
     *         false for set-up, which stays out of the ledger. */
    RepClock(std::uint32_t rep, bool ledger)
        : repIndex(rep), inLedger(ledger)
    {
    }

    void resume();
    void pause();

    double wallSeconds() const;

    /** Wall and CPU seconds of each step, in order. */
    const std::vector<double> &
    stepWall() const
    {
        return wall;
    }

    const std::vector<double> &
    stepCpu() const
    {
        return cpu;
    }

  private:
    std::uint32_t repIndex;
    bool inLedger;
    bool running = false;
    std::int64_t startNs = 0;
    double startCpu = 0.0;
    std::vector<double> wall;
    std::vector<double> cpu;
    int region = -1;
};

/**
 * RAII span around one call into a layer. The name is
 * "<layer>.<call>", a string literal; the layer prefix must be one of
 * the module names in spans.cc. Free when tracing is off.
 */
class Span
{
  public:
    explicit Span(const char *name);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index;
};

/** Turn span recording on or off (per repetition). */
void setTracing(bool on);
/** Tag the calling thread's next spans with request @p id. */
void setRequest(std::uint32_t id);

/**
 * Turn the recorded spans into per-layer metrics: "<name>_ms" per
 * span name (median over repetitions of the per-repetition total),
 * each layer's self time and bench.unattributed_ms per repetition.
 * Then write the timed spans as a self-trace (.smtr, one stream per
 * thread, one class-6 Begin token per layer) to @p smtr_path and
 * check that a `states` query over it reproduces the in-memory
 * self times exactly.
 */
void reportSpans(const std::string &smtr_path, Result &result);

/** One workload: set-up, timed repetitions, traced-run extras. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the state the repetitions need; the time @p clock
     *  runs is one set-up sample. Called several times. */
    virtual void setup(RepClock &clock, Result &result) = 0;

    /** One timed repetition. @return events it processed. */
    virtual std::uint64_t rep(RepClock &clock, Result &result) = 0;

    /** Workload-specific results every run prints. */
    virtual void
    summary(Result &)
    {
    }

    /** Calibrations and counters for the traced run. */
    virtual void
    layers(Result &)
    {
    }
};

std::unique_ptr<Workload> makeRecordWorkload(const Options &opts);
std::unique_ptr<Workload> makeQueryWorkload(const Options &opts);
std::unique_ptr<Workload> makeLiveWorkload(const Options &opts);

/**
 * A base trace repeated in time: tile k is the base with every
 * timestamp shifted by k * period, so streams and states carry over
 * and the result is still time-ordered.
 */
struct TiledTrace
{
    std::vector<supmon::trace::TraceEvent> base;
    std::uint64_t period = 0;
    std::uint64_t tiles = 0;

    /** Repeat @p events (time-ordered, non-empty) @p n times. */
    static TiledTrace of(std::vector<supmon::trace::TraceEvent> events,
                         std::uint64_t n);

    std::uint64_t
    size() const
    {
        return base.size() * tiles;
    }

    /** Tile @p k: the base shifted by k periods. */
    std::vector<supmon::trace::TraceEvent>
    tile(std::uint64_t k) const
    {
        std::vector<supmon::trace::TraceEvent> events = base;
        for (supmon::trace::TraceEvent &ev : events)
            ev.timestamp += k * period;
        return events;
    }

    /** Call @p fn on every event of the tiled sequence, in order. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::uint64_t k = 0; k < tiles; ++k) {
            for (supmon::trace::TraceEvent ev : base) {
                ev.timestamp += k * period;
                fn(ev);
            }
        }
    }
};

/** Test hook: flip one byte of the first record of a .smtr file. */
void corruptFirstRecord(const std::string &path);

/** FNV-1a over every cell of @p table (text, integer, exact double). */
std::uint64_t tableDigest(const supmon::query::Table &table);

/** 16-digit hex of a digest. */
std::string hex(std::uint64_t v);

} // namespace pb

#endif // PERFBENCH_PERFBENCH_HH
