/**
 * @file
 * Query engine throughput: stream a saved 1M-event trace through
 * filter+fold pipelines in a single pass and report events/second.
 *
 * The trace is generated deterministically (seeded), written with
 * saveTrace(), and then only ever touched through the incremental
 * TraceReader — the trace is never resident in memory during the
 * timed runs, which is the whole point of the streaming engine.
 *
 * Each pipeline shape is timed through runQueryFile (the `serial`
 * rows: the sharded executor with one shard, as the CLI runs by
 * default) and through runQueryFileSharded at 1, 2 and 4 jobs
 * (256 KiB pread blocks, fused decode+filter, arena folds — see
 * ARCHITECTURE.md §11). The jobs=4 scaling and jobs=4-vs-serial
 * ratios are reported as context only; they gate nothing, because
 * the usable core count of the host bounds them, not the code.
 * `--check` against the committed BENCH_query.json is the
 * regression line.
 *
 * Results go to stdout (banner format) and to BENCH_query.json in
 * the working directory; `--check [baseline.json]` compares against
 * a committed baseline instead of writing (>30% throughput drop on
 * any row fails).
 */

#include <chrono>
#include <cstdio>

#include "bench_common.hh"
#include "query/engine.hh"
#include "query/sharded.hh"
#include "sim/random.hh"
#include "trace/io.hh"

using namespace supmon;

namespace
{

constexpr std::uint64_t eventCount = 1000000;
constexpr std::uint16_t tokWork = 1;
constexpr std::uint16_t tokWait = 2;
constexpr std::uint16_t tokSend = 3;
constexpr int repeats = 3; // best-of to damp scheduler noise

trace::EventDictionary
benchDictionary()
{
    trace::EventDictionary dict;
    dict.defineBegin(tokWork, "Work Begin", "WORK");
    dict.defineBegin(tokWait, "Wait Begin", "WAIT");
    dict.definePoint(tokSend, "Job Send");
    for (unsigned s = 0; s < 32; ++s)
        dict.nameStream(s, sim::strprintf("SERVANT %u", s));
    return dict;
}

bool
writeBenchTrace(const std::string &path)
{
    sim::Random rng(20260805);
    std::vector<trace::TraceEvent> events;
    events.reserve(eventCount);
    sim::Tick ts = 0;
    for (std::uint64_t i = 0; i < eventCount; ++i) {
        ts += rng.uniformInt(10, 2000);
        trace::TraceEvent ev;
        ev.timestamp = ts;
        ev.stream = static_cast<unsigned>(rng.uniformInt(0, 31));
        ev.token = static_cast<std::uint16_t>(
            rng.uniformInt(tokWork, tokSend));
        ev.param = static_cast<std::uint32_t>(rng.uniformInt(0, 999));
        events.push_back(ev);
    }
    return trace::saveTrace(path, events);
}

/**
 * Best-of-N timed passes; returns events/second (0 on failure).
 * jobs == 0 streams through runQueryFile; jobs >= 1 uses the
 * sharded executor.
 */
double
timeQuery(const std::string &path,
          const trace::EventDictionary &dict, const char *text,
          unsigned jobs = 0)
{
    const auto parsed = query::parseQuery(text);
    if (!parsed.ok) {
        std::fprintf(stderr, "query error: %s\n",
                     parsed.error.c_str());
        return 0.0;
    }
    double best = 0.0;
    for (int r = 0; r < repeats; ++r) {
        const auto start = std::chrono::steady_clock::now();
        query::Table table;
        std::string error;
        const bool ok =
            jobs == 0 ? query::runQueryFile(path, dict, parsed.query,
                                            table, error)
                      : query::runQueryFileSharded(path, dict,
                                                   parsed.query, jobs,
                                                   table, error);
        if (!ok) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 0.0;
        }
        const std::chrono::duration<double> elapsed =
            std::chrono::steady_clock::now() - start;
        if (table.rows.empty()) {
            std::fprintf(stderr, "query '%s' produced no rows\n",
                         text);
            return 0.0;
        }
        best = std::max(best, static_cast<double>(eventCount) /
                                  elapsed.count());
    }
    return best;
}

std::string
eps(double value)
{
    return sim::strprintf("%.1f Mevents/s", value * 1e-6);
}

/**
 * Time one pipeline through the sharded executor at 1, 2 and 4
 * jobs, and record the rows, the jobs4-vs-jobs1 scaling ratio and
 * the jobs4-vs-@p serialRate ratio.
 * @return false if a run failed.
 */
bool
shardedSweep(const std::string &path,
             const trace::EventDictionary &dict, const char *text,
             const char *id, double serialRate,
             bench::JsonReport &report)
{
    bool ok = true;
    double jobs1 = 0.0;
    double jobs4 = 0.0;
    for (unsigned jobs : {1u, 2u, 4u}) {
        const double rate = timeQuery(path, dict, text, jobs);
        if (rate <= 0.0)
            ok = false;
        if (jobs == 1)
            jobs1 = rate;
        if (jobs == 4)
            jobs4 = rate;
        bench::paperRow(
            sim::strprintf("%s, sharded --jobs %u", id, jobs).c_str(),
            "-", eps(rate));
        report.add(
            sim::strprintf("%s_sharded_jobs%u_events_per_sec", id,
                           jobs),
            rate);
    }
    const double scaling = jobs1 > 0.0 ? jobs4 / jobs1 : 0.0;
    const double vsSerial = serialRate > 0.0 ? jobs4 / serialRate
                                             : 0.0;
    report.add(sim::strprintf("%s_scaling_jobs4_vs_jobs1", id),
               scaling);
    report.add(sim::strprintf("%s_sharded_jobs4_vs_serial", id),
               vsSerial);
    bench::paperRow(
        sim::strprintf("%s sharded jobs=4 vs serial", id).c_str(),
        "-", sim::strprintf("%.2fx", vsSerial));
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::setQuiet(true);
    std::string baselinePath;
    const bool checkMode = bench::parseCheckArg(
        argc, argv, "BENCH_query.json", baselinePath);
    bench::banner("Query engine",
                  "streaming filter+fold throughput over a 1M-event "
                  "trace file");

    const std::string path = "/tmp/supmon_bench_query.smtr";
    if (!writeBenchTrace(path)) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }

    const struct
    {
        const char *id;
        const char *text;
    } cases[] = {
        {"filter_count", "filter stream=servant* token=evWork* | "
                         "count"},
        {"states", "states"},
        {"windowed_utilization",
         "window 100us | utilization state=WORK"},
        {"rtt", "rtt begin=evJobSend end=evWorkBegin"},
    };

    bench::JsonReport report("BENCH_query.json");
    report.add("events", eventCount);
    const auto dict = benchDictionary();
    int status = 0;
    double serialStates = 0.0;
    double serialFilterCount = 0.0;
    for (const auto &c : cases) {
        const double rate = timeQuery(path, dict, c.text);
        if (rate <= 0.0)
            status = 1;
        if (std::strcmp(c.id, "states") == 0)
            serialStates = rate;
        if (std::strcmp(c.id, "filter_count") == 0)
            serialFilterCount = rate;
        bench::paperRow(c.text, "-", eps(rate));
        report.add(std::string(c.id) + "_events_per_sec", rate);
    }

    // The same pipelines through the sharded executor: the merge is
    // bit-exact for every job count, so the only difference is the
    // wall clock.
    std::printf("\n");
    if (!shardedSweep(path, dict, "states", "states", serialStates,
                      report))
        status = 1;
    std::printf("\n");
    if (!shardedSweep(path, dict,
                      "filter stream=servant* token=evWork* | count",
                      "filter_count", serialFilterCount, report))
        status = 1;
    std::printf("\n");
    if (checkMode) {
        if (!bench::checkAgainstBaseline(report, baselinePath))
            status = 1;
    } else if (!report.write()) {
        std::fprintf(stderr, "cannot write BENCH_query.json\n");
        status = 1;
    }
    std::remove(path.c_str());
    return status;
}
