/**
 * @file
 * The `query` workload: one closed-loop analyst over a large archive.
 *
 * Set-up runs scaled-100x and tiles its trace in time until the
 * archive is larger than the host's L3 (by a tenth, so it cannot stay
 * cache-resident): about 5 M events over 5.6 k streams. One
 * repetition is one request of each kind, each sent only after the
 * previous answer was rendered the way tracequery prints it. Six
 * kinds run through query::runQueryFileSharded; `follow` reads the
 * same events framed as the daemon forwards them through
 * live::FrameReader into query::IncrementalEngine, as
 * `tracequery --follow` does. The reader, fold, merge, table and
 * incremental layers do all the work; the simulator only runs in
 * set-up. The kinds separate reader-bound cost (count), fold-state
 * cost (states, latency) and output-bound cost (window, follow).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <thread>

#include <fcntl.h>
#include <unistd.h>

#include "live/tokens.hh"
#include "live/wire.hh"
#include "perfbench.hh"
#include "query/incremental.hh"
#include "query/sharded.hh"
#include "sim/logging.hh"
#include "trace/activity.hh"
#include "trace/io.hh"
#include "validate/scenarios.hh"

namespace pb
{

namespace
{

using namespace supmon;

struct Kind
{
    const char *name;
    /** Span around the call, "query.<name>". */
    const char *span;
    /** Query text; the follow kind runs the window query live. */
    const char *text;
};

const Kind kinds[] = {
    {"count", "query.count", "filter token=evWork* | count"},
    {"states", "query.states", "states"},
    {"utilization", "query.utilization",
     "filter stream=servant* | utilization"},
    {"window", "query.window",
     "filter stream=servant?1* | window 10s | utilization"},
    {"latency", "query.latency", "latency"},
    {"rtt", "query.rtt", "rtt begin=evJobSend end=evWorkBegin"},
    {"follow", "query.follow",
     "filter stream=servant?1* | window 10s | utilization"},
};
constexpr std::size_t kindCount = std::size(kinds);
constexpr std::size_t windowKind = 3;
constexpr std::size_t followKind = 6;

/** Tile count of the reference archive (105 MiB L3); the recorded
 *  table digests hold for it at the default seed. */
constexpr std::uint64_t referenceTiles = 70;
/** Table digests at the default seed and referenceTiles. */
const std::map<std::string, std::uint64_t> referenceDigests = {
    {"count", 0x46da0252b56d55bfull},
    {"window", 0x5dad3cf595e12b06ull},
    {"latency", 0xca703058d01d1506ull},
    {"rtt", 0x5c8e2272dbdcf3afull},
};

/** Events per Events frame: the daemon forwards one collector
 *  delivery chunk (512 events) per frame. */
constexpr std::size_t frameEvents = 512;

/** Wait until @p path is on disk, so write-back of the set-up's
 *  files does not run into the timed repetitions. */
void
flushToDisk(const std::string &path)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        ::fdatasync(fd);
        ::close(fd);
    }
}

/** Expected `states` row, from trace::ActivityMap. */
struct StatesRow
{
    std::uint64_t count = 0;
    double total = 0.0;
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    double share = 0.0;
};

class QueryWorkload : public Workload
{
  public:
    explicit QueryWorkload(const Options &options)
        : opts(options),
          archivePath(workDir + "/query-archive.smtr"),
          framesPath(workDir + "/query-follow.frames"),
          jobs(std::min(2u, std::max(1u,
                                     std::thread::hardware_concurrency())))
    {
        for (std::size_t k = 0; k < kindCount; ++k) {
            const auto parsed = query::parseQuery(kinds[k].text);
            if (!parsed.ok) {
                std::fprintf(stderr, "perfbench: bad query '%s': %s\n",
                             kinds[k].text, parsed.error.c_str());
                std::abort();
            }
            queries[k] = parsed.query;
        }
    }

    ~QueryWorkload() override
    {
        std::remove(archivePath.c_str());
        std::remove(framesPath.c_str());
    }

    void
    setup(RepClock &clock, Result &result) override
    {
        const validate::Scenario *scenario = validate::findScenario(
            opts.tiny ? "scaled-10x" : "scaled-100x");
        validate::Scenario sc = *scenario;
        sc.config.seed = opts.seed;

        clock.resume();
        par::RunResult res;
        {
            Span span("partracer.run");
            res = validate::runScenario(sc);
        }
        const std::uint64_t tileBytes =
            res.events.size() * trace::TraceReader::recordBytes;
        const std::uint64_t l3 = l3Bytes() ? l3Bytes() : 128ull << 20;
        const std::uint64_t tiles =
            opts.tiny ? 2
                      : std::max<std::uint64_t>(
                            2, static_cast<std::uint64_t>(std::ceil(
                                   1.1 * static_cast<double>(l3) /
                                   static_cast<double>(tileBytes))));
        dict = res.dictionary;
        live::addLiveTokens(dict);
        archive = TiledTrace::of(std::move(res.events), tiles);
        bool saved = false;
        {
            Span span("trace.save");
            trace::TraceWriter writer(archivePath, sc.config.seed);
            for (std::uint64_t k = 0; k < tiles && writer.ok(); ++k) {
                const auto events = archive.tile(k);
                writer.append(events.data(), events.size());
            }
            saved = writer.finish();
        }
        // Opening is timed here as set-up; trace.open_ms comes from
        // the calibration in layers().
        const bool opened = [&] {
            trace::SharedTraceFile file(archivePath);
            return file.ok() && file.recordCount() == archive.size();
        }();
        clock.pause();
        flushToDisk(archivePath);
        if (!saved || !opened) {
            result.internalError = true;
            result.failures.push_back("query archive: cannot write or "
                                      "reopen " + archivePath);
        }
        if (expectStates.empty()) {
            writeFrames(sc.config.seed);
            flushToDisk(framesPath);
            computeOracle();
            std::printf("query archive: %llu tiles, %llu events, %.1f MB, "
                        "%zu streams\n",
                        static_cast<unsigned long long>(tiles),
                        static_cast<unsigned long long>(archive.size()),
                        static_cast<double>(archive.size() *
                                            trace::TraceReader::recordBytes) /
                            1e6,
                        streamCount);
        }
    }

    std::uint64_t
    rep(RepClock &clock, Result &result) override
    {
        for (std::size_t k = 0; k < kindCount; ++k) {
            setRequest(++requests);
            query::Table table;
            std::string error;
            clock.resume();
            const bool ok = k == followKind ? follow(table)
                                            : batch(k, table, error);
            clock.pause();
            latencySeconds[k] += clock.stepWall().back();
            ++served[k];
            ++result.attempted;
            rows[k] = table.rows.size();
            if (opts.corrupt == "table" && !corrupted && k == 1 &&
                !table.rows.empty()) {
                corrupted = true;
                table.rows[0][2].integer += 1;
            }
            const std::string why =
                ok ? check(k, table) : "query failed: " + error;
            if (!why.empty())
                result.fail(std::string(kinds[k].name) + ": " + why);
        }
        return archive.size() * kindCount;
    }

    /** Per kind: archive events x requests / summed latency. */
    void
    summary(Result &result) override
    {
        std::printf("table digests:");
        for (const auto &[kind, digest] : firstDigest)
            std::printf(" %s=%s", kind.c_str(), hex(digest).c_str());
        std::printf("\nrendered text: %.1f MB per repetition\n",
                    static_cast<double>(renderedBytes) * 1e-6 /
                        static_cast<double>(std::max<std::size_t>(
                            served[0], 1)));
        for (std::size_t k = 0; k < kindCount; ++k) {
            const std::string kind = kinds[k].name;
            result.metric("query." + kind + "_events_per_s",
                          latencySeconds[k] > 0.0
                              ? static_cast<double>(archive.size()) *
                                    static_cast<double>(served[k]) /
                                    latencySeconds[k]
                              : 0.0,
                          "events/s", served[k]);
            result.metric("query." + kind + "_rows",
                          static_cast<double>(rows[k]), "count",
                          served[k]);
        }
    }

    void
    layers(Result &result) override
    {
        // Calibrations over the same archive.
        Samples openMs;
        for (int i = 0; i < 20; ++i) {
            const std::int64_t t0 = nowNs();
            trace::SharedTraceFile file(archivePath);
            openMs.add(static_cast<double>(nowNs() - t0) * 1e-6);
        }
        result.metric("trace.open_ms", openMs, "ms");

        Samples scanNs;
        // Decoded fields fold into an atomic sink so the decode
        // cannot be optimized away.
        static std::atomic<std::uint64_t> scanSink{0};
        std::uint64_t sink = 0;
        for (int i = 0; i < 3; ++i) {
            const std::int64_t t0 = nowNs();
            trace::TraceReader reader(archivePath);
            const unsigned char *block = nullptr;
            std::uint64_t n = 0;
            while (const std::size_t got = reader.nextRawBlock(block)) {
                for (std::size_t r = 0; r < got; ++r) {
                    trace::TraceEvent ev;
                    trace::TraceReader::decodeRecord(
                        block + r * trace::TraceReader::recordBytes, ev);
                    sink ^= ev.timestamp + ev.token;
                }
                n += got;
            }
            if (n > 0)
                scanNs.add(static_cast<double>(nowNs() - t0) /
                           static_cast<double>(n));
        }
        scanSink.store(sink, std::memory_order_relaxed);
        result.metric("trace.scan_ns_per_event", scanNs, "ns");

        // Sharded scaling of one fold-bound kind at jobs 1 and 2.
        Samples at[2];
        for (int i = 0; i < 3; ++i) {
            for (unsigned j = 1; j <= 2; ++j) {
                query::Table table;
                std::string error;
                const std::int64_t t0 = nowNs();
                query::runQueryFileSharded(archivePath, dict, queries[1],
                                           j, table, error);
                at[j - 1].add(static_cast<double>(nowNs() - t0));
            }
        }
        result.metric("parallel.states_jobs2_vs_jobs1",
                      at[1].median() > 0.0
                          ? at[0].median() / at[1].median()
                          : 0.0,
                      "ratio", 3);
    }

  private:
    bool
    batch(std::size_t k, query::Table &table, std::string &error)
    {
        bool ok = false;
        {
            Span span(kinds[k].span);
            ok = query::runQueryFileSharded(archivePath, dict, queries[k],
                                            jobs, table, error);
        }
        Span span("query.render");
        renderedBytes += table.render(query::OutputFormat::Text).size();
        return ok;
    }

    /** `tracequery --follow` over the framed archive. */
    bool
    follow(query::Table &table)
    {
        Span request(kinds[followKind].span);
        const int fd = ::open(framesPath.c_str(), O_RDONLY);
        if (fd < 0)
            return false;
        const auto onRows = [this](const query::Table &partial) {
            Span span("query.render");
            renderedBytes +=
                partial.render(query::OutputFormat::Text).size();
        };
        query::IncrementalEngine engine(queries[followKind], dict,
                                        onRows);
        live::FrameReader reader(fd);
        live::Frame frame;
        bool done = false;
        while (!done) {
            bool got = false;
            {
                Span span("live.decode");
                got = reader.next(frame);
            }
            if (!got)
                break;
            if (frame.type == live::FrameType::Events) {
                Span span("query.incremental");
                engine.onBatch(frame.events.data(), frame.events.size());
            }
            done = frame.type == live::FrameType::Bye;
        }
        ::close(fd);
        {
            Span span("query.incremental");
            table = engine.finish();
        }
        Span span("query.render");
        renderedBytes += table.render(query::OutputFormat::Text).size();
        return done;
    }

    /** The daemon's subscriber framing: Hello, Events..., Bye. */
    void
    writeFrames(std::uint64_t seed)
    {
        std::FILE *f = std::fopen(framesPath.c_str(), "wb");
        if (!f)
            return;
        std::vector<unsigned char> bytes;
        live::encodeHello(bytes, "bench", seed);
        std::vector<trace::TraceEvent> chunk;
        const auto flushChunk = [&] {
            live::encodeEvents(bytes, chunk.data(), chunk.size());
            chunk.clear();
            std::fwrite(bytes.data(), 1, bytes.size(), f);
            bytes.clear();
        };
        archive.forEach([&](const trace::TraceEvent &ev) {
            chunk.push_back(ev);
            if (chunk.size() == frameEvents)
                flushChunk();
        });
        if (!chunk.empty())
            flushChunk();
        live::encodeBye(bytes);
        std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
    }

    /**
     * The `states` and `utilization` answers from trace::ActivityMap
     * over the archive. The state machine runs per stream, so the map
     * is built one stream at a time (ActivityMap's lookups scan every
     * interval), over the archive-wide begin and close times.
     */
    void
    computeOracle()
    {
        const sim::Tick shift = (archive.tiles - 1) * archive.period;
        const sim::Tick first = archive.base.front().timestamp;
        const sim::Tick last = archive.base.back().timestamp + shift;
        std::map<unsigned, std::vector<trace::TraceEvent>> byStream;
        bool anyServant = false;
        sim::Tick servantFirst = 0;
        sim::Tick servantLast = 0;
        for (const trace::TraceEvent &ev : archive.base) {
            byStream[ev.stream].push_back(ev);
            if (isServant(ev.stream)) {
                if (!anyServant)
                    servantFirst = ev.timestamp;
                servantLast = ev.timestamp + shift;
                anyServant = true;
            }
        }
        streamCount = byStream.size();

        for (const auto &[stream, base] : byStream) {
            std::vector<trace::TraceEvent> events;
            events.reserve(base.size() * archive.tiles);
            for (std::uint64_t k = 0; k < archive.tiles; ++k) {
                for (trace::TraceEvent ev : base) {
                    ev.timestamp += k * archive.period;
                    events.push_back(ev);
                }
            }
            const std::string name = dict.streamName(stream);
            const auto map = trace::ActivityMap::build(events, dict, last);
            for (const auto &[key, s] : map.durationStats()) {
                StatesRow row;
                row.count = s.count();
                row.total = s.sum() * 1e-6;
                row.mean = s.mean() * 1e-6;
                row.min = s.min() * 1e-6;
                row.max = s.max() * 1e-6;
                row.share = map.utilization(stream, key.second, first, last);
                expectStates[{name, key.second}] = row;
            }
            // The utilization query's filter keeps servant streams
            // only, so its range is the servant events' range.
            if (isServant(stream)) {
                const auto servants =
                    trace::ActivityMap::build(events, dict, servantLast);
                expectUtilization[name] = servants.utilization(
                    stream, "WORK", servantFirst, servantLast);
            }
        }
    }

    bool
    isServant(unsigned stream) const
    {
        return query::globMatch("servant*", dict.streamName(stream));
    }

    /** Every check of one response; "" when it passes. */
    std::string
    check(std::size_t k, const query::Table &table)
    {
        if (k == 1) {
            if (table.rows.size() != expectStates.size())
                return sim::strprintf("%zu rows, trace::ActivityMap has %zu",
                                      table.rows.size(),
                                      expectStates.size());
            for (const auto &row : table.rows) {
                const auto it =
                    expectStates.find({row[0].text, row[1].text});
                const StatesRow *e =
                    it == expectStates.end() ? nullptr : &it->second;
                if (!e || row[2].integer != e->count ||
                    row[3].real != e->total || row[4].real != e->mean ||
                    row[5].real != e->min || row[6].real != e->max ||
                    row[7].real != e->share)
                    return row[0].text + "/" + row[1].text +
                           " differs from trace::ActivityMap";
            }
            return "";
        }
        if (k == 2) {
            if (table.rows.size() != expectUtilization.size())
                return sim::strprintf("%zu rows, trace::ActivityMap has %zu",
                                      table.rows.size(),
                                      expectUtilization.size());
            for (const auto &row : table.rows) {
                const auto it = expectUtilization.find(row[0].text);
                if (it == expectUtilization.end() ||
                    row[2].real != it->second)
                    return row[0].text + " differs from trace::ActivityMap";
            }
            return "";
        }
        const std::uint64_t digest = tableDigest(table);
        if (k == followKind) {
            const auto batch = firstDigest.find(kinds[windowKind].name);
            if (batch == firstDigest.end() || batch->second != digest)
                return "final table " + hex(digest) +
                       " differs from the batch window table";
            return "";
        }
        const auto first = firstDigest.emplace(kinds[k].name, digest).first;
        if (first->second != digest)
            return "table " + hex(digest) + " != first response " +
                   hex(first->second);
        const auto ref = referenceDigests.find(kinds[k].name);
        if (opts.seed == defaultSeed && !opts.tiny &&
            archive.tiles == referenceTiles && ref != referenceDigests.end() &&
            ref->second != digest)
            return "table " + hex(digest) + " != recorded " +
                   hex(ref->second);
        return "";
    }

    Options opts;
    std::string archivePath;
    std::string framesPath;
    unsigned jobs;
    query::Query queries[kindCount];
    trace::EventDictionary dict;
    TiledTrace archive;
    std::size_t streamCount = 0;
    std::map<std::pair<std::string, std::string>, StatesRow> expectStates;
    std::map<std::string, double> expectUtilization;
    std::map<std::string, std::uint64_t> firstDigest;
    std::uint32_t requests = 0;
    double latencySeconds[kindCount] = {};
    std::size_t served[kindCount] = {};
    std::size_t rows[kindCount] = {};
    std::uint64_t renderedBytes = 0;
    bool corrupted = false;
};

} // namespace

std::unique_ptr<Workload>
makeQueryWorkload(const Options &opts)
{
    return std::make_unique<QueryWorkload>(opts);
}

} // namespace pb
