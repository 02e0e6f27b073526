/**
 * @file
 * The benchmark's span recorder, per-layer ledger and self-trace.
 *
 * Spans are kept in memory (one mutex-guarded vector; a run records
 * thousands, not millions) and turned into metrics once the run ends.
 * The self-trace applies the paper's event -> state -> statistics
 * method to the benchmark itself: every timed span becomes a class-6
 * Begin event of its layer, the parent's state is re-entered when a
 * child ends, and a `states` query over the file must give back the
 * self times computed here from the spans.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "perfbench.hh"
#include "query/sharded.hh"
#include "sim/logging.hh"
#include "trace/dictionary.hh"
#include "trace/io.hh"

namespace pb
{

namespace
{

/**
 * Layers in data-flow order: the repository's modules, plus "bench"
 * for time inside a timed region that no layer span covers. Layer i
 * enters the self-trace as Begin token selfTokenBase + i.
 */
constexpr const char *layerNames[] = {
    "sim",   "suprenum", "raytracer", "partracer", "hybrid", "zm4",
    "trace", "validate", "query",     "parallel",  "live",   "bench"};
constexpr std::size_t layerCount = std::size(layerNames);
constexpr std::uint8_t benchLayer = layerCount - 1;

/** Class 6 (high token byte) is the self-trace range. */
constexpr std::uint16_t selfTokenBase = 0x0601;
/** State between timed regions (set-up, checks): not in the ledger. */
constexpr std::uint16_t untimedToken = 0x06ff;

constexpr const char *regionName = "bench.region";

std::uint8_t
layerOf(const char *name)
{
    const char *dot = std::strchr(name, '.');
    const std::size_t len =
        dot ? static_cast<std::size_t>(dot - name) : std::strlen(name);
    for (std::size_t i = 0; i < layerCount; ++i) {
        if (std::strlen(layerNames[i]) == len &&
            std::strncmp(layerNames[i], name, len) == 0)
            return static_cast<std::uint8_t>(i);
    }
    std::fprintf(stderr, "perfbench: span '%s' names no layer\n", name);
    std::abort();
}

struct SpanRecord
{
    const char *name;
    std::uint8_t layer;
    std::uint8_t thread;
    /** Has a bench.region ancestor: part of the ledger. */
    bool timed;
    std::int32_t parent;
    std::uint32_t rep;
    std::uint32_t request;
    std::int64_t begin;
    std::int64_t end;
};

std::atomic<bool> tracingOn{false};
std::atomic<unsigned> threadCount{0};
std::mutex spansMutex;
std::vector<SpanRecord> spans;

thread_local int tlsThread = -1;
thread_local std::uint32_t tlsRequest = 0;
thread_local std::vector<int> tlsOpen;

const std::int64_t epochNs =
    std::chrono::steady_clock::now().time_since_epoch().count();

int
openSpan(const char *name, std::uint32_t rep)
{
    if (!tracingOn.load(std::memory_order_relaxed))
        return -1;
    if (tlsThread < 0)
        tlsThread = static_cast<int>(threadCount.fetch_add(1));
    SpanRecord rec{};
    rec.name = name;
    rec.layer = layerOf(name);
    rec.thread = static_cast<std::uint8_t>(tlsThread);
    rec.parent = tlsOpen.empty() ? -1 : tlsOpen.back();
    rec.request = tlsRequest;
    rec.rep = rep;
    const std::lock_guard<std::mutex> lock(spansMutex);
    if (rec.parent >= 0) {
        const SpanRecord &parent = spans[rec.parent];
        rec.timed = parent.timed;
        rec.rep = parent.rep;
    } else {
        rec.timed = std::strcmp(name, regionName) == 0;
    }
    rec.begin = nowNs();
    spans.push_back(rec);
    const int index = static_cast<int>(spans.size() - 1);
    tlsOpen.push_back(index);
    return index;
}

void
closeSpan(int index)
{
    if (index < 0)
        return;
    const std::int64_t end = nowNs();
    {
        const std::lock_guard<std::mutex> lock(spansMutex);
        spans[index].end = end;
    }
    if (!tlsOpen.empty() && tlsOpen.back() == index)
        tlsOpen.pop_back();
}

/** Exact per-(thread, layer) self time of the timed spans, in ns. */
std::map<std::pair<unsigned, unsigned>, std::int64_t>
selfTimes(const std::vector<SpanRecord> &all)
{
    std::vector<std::int64_t> childNs(all.size(), 0);
    for (const SpanRecord &s : all) {
        if (s.timed && s.parent >= 0)
            childNs[s.parent] += s.end - s.begin;
    }
    std::map<std::pair<unsigned, unsigned>, std::int64_t> self;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        if (s.timed)
            self[{s.thread, s.layer}] += s.end - s.begin - childNs[i];
    }
    return self;
}

/**
 * The timed spans as state events: a span's start enters its layer's
 * state, its end re-enters the parent's (or "untimed" after a
 * region). Events are stably time-sorted across threads.
 */
std::vector<supmon::trace::TraceEvent>
selfTraceEvents(const std::vector<SpanRecord> &all)
{
    std::vector<supmon::trace::TraceEvent> events;
    std::map<unsigned, std::vector<int>> open;
    const auto emit = [&events](std::int64_t t, std::uint16_t token,
                                unsigned stream, std::uint32_t param) {
        supmon::trace::TraceEvent ev;
        ev.timestamp = static_cast<supmon::sim::Tick>(t);
        ev.token = token;
        ev.stream = stream;
        ev.param = param;
        events.push_back(ev);
    };
    const auto closeTop = [&](std::vector<int> &stack) {
        const SpanRecord &s = all[stack.back()];
        stack.pop_back();
        const std::uint16_t next =
            stack.empty() ? untimedToken
                          : selfTokenBase + all[stack.back()].layer;
        emit(s.end, next, s.thread, s.request);
    };
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord &s = all[i];
        if (!s.timed)
            continue;
        std::vector<int> &stack = open[s.thread];
        while (!stack.empty() && stack.back() != s.parent)
            closeTop(stack);
        emit(s.begin, selfTokenBase + s.layer, s.thread, s.request);
        stack.push_back(static_cast<int>(i));
    }
    for (auto &kv : open) {
        while (!kv.second.empty())
            closeTop(kv.second);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const auto &a, const auto &b) {
                         return a.timestamp < b.timestamp;
                     });
    return events;
}

supmon::trace::EventDictionary
selfDictionary(unsigned threads)
{
    supmon::trace::EventDictionary dict;
    for (std::size_t i = 0; i < layerCount; ++i) {
        dict.defineBegin(static_cast<std::uint16_t>(selfTokenBase + i),
                         std::string(layerNames[i]) + " begin",
                         layerNames[i]);
    }
    dict.defineBegin(untimedToken, "untimed begin", "untimed");
    for (unsigned t = 0; t < threads; ++t)
        dict.nameStream(t, "thread " + std::to_string(t));
    return dict;
}

/** Write the self-trace and check a `states` query reproduces the
 *  in-memory self times (same doubles: both sum whole nanoseconds). */
void
checkSelfTrace(const std::vector<SpanRecord> &all,
               const std::map<std::pair<unsigned, unsigned>,
                              std::int64_t> &self,
               const std::string &path, Result &result)
{
    const auto events = selfTraceEvents(all);
    if (!supmon::trace::saveTrace(path, events)) {
        result.internalError = true;
        result.failures.push_back("self-trace: cannot write " + path);
        return;
    }
    unsigned threads = 0;
    for (const SpanRecord &s : all)
        threads = std::max(threads, static_cast<unsigned>(s.thread) + 1);
    const auto dict = selfDictionary(threads);

    supmon::query::Query states;
    states.fold.kind = supmon::query::FoldKind::States;
    supmon::query::Table table;
    std::string error;
    const unsigned jobs =
        std::min(2u, std::max(1u, std::thread::hardware_concurrency()));
    if (!supmon::query::runQueryFileSharded(path, dict, states, jobs,
                                            table, error)) {
        result.internalError = true;
        result.failures.push_back("self-trace query: " + error);
        return;
    }

    std::size_t matched = 0;
    bool equal = true;
    for (const auto &row : table.rows) {
        if (row[1].text == "untimed")
            continue;
        unsigned stream = 0;
        std::sscanf(row[0].text.c_str(), "thread %u", &stream);
        unsigned layer = 0;
        while (layer < layerCount && row[1].text != layerNames[layer])
            ++layer;
        const auto it = self.find({stream, layer});
        if (it == self.end() ||
            row[3].real != static_cast<double>(it->second) * 1e-6) {
            equal = false;
            result.failures.push_back(supmon::sim::strprintf(
                "self-trace: %s/%s total %.17g ms, spans say %.17g ms",
                row[0].text.c_str(), row[1].text.c_str(), row[3].real,
                it == self.end()
                    ? -1.0
                    : static_cast<double>(it->second) * 1e-6));
            continue;
        }
        ++matched;
    }
    if (!equal || matched != self.size()) {
        result.internalError = true;
        result.failures.push_back(supmon::sim::strprintf(
            "self-trace: %zu of %zu (thread, layer) self times "
            "reproduced by the states query",
            matched, self.size()));
        return;
    }
    std::printf("self-trace: %zu events -> %s; the states query "
                "reproduces all %zu (thread, layer) self times\n",
                events.size(), path.c_str(), matched);
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::steady_clock::now().time_since_epoch().count() -
           epochNs;
}

double
processCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

void
setTracing(bool on)
{
    tracingOn.store(on, std::memory_order_relaxed);
}

void
setRequest(std::uint32_t id)
{
    tlsRequest = id;
}

Span::Span(const char *name) : index(openSpan(name, 0))
{
}

Span::~Span()
{
    closeSpan(index);
}

void
RepClock::resume()
{
    if (running)
        return;
    running = true;
    if (inLedger)
        region = openSpan(regionName, repIndex);
    startCpu = processCpuSeconds();
    startNs = nowNs();
}

void
RepClock::pause()
{
    if (!running)
        return;
    wall.push_back(static_cast<double>(nowNs() - startNs) * 1e-9);
    cpu.push_back(processCpuSeconds() - startCpu);
    closeSpan(region);
    region = -1;
    running = false;
}

double
RepClock::wallSeconds() const
{
    double total = 0.0;
    for (double w : wall)
        total += w;
    return total;
}

void
reportSpans(const std::string &smtr_path, Result &result)
{
    std::vector<SpanRecord> all;
    {
        const std::lock_guard<std::mutex> lock(spansMutex);
        all = spans;
    }
    std::set<std::uint32_t> reps;
    for (const SpanRecord &s : all) {
        if (s.timed)
            reps.insert(s.rep);
    }
    if (reps.empty())
        return;

    // Per call: median over traced repetitions of the repetition's
    // total; calls outside timed regions (set-up) count per call.
    std::map<std::string, std::map<std::uint32_t, double>> timedMs;
    std::map<std::string, Samples> untimedMs;
    for (const SpanRecord &s : all) {
        if (std::strcmp(s.name, regionName) == 0)
            continue;
        const double ms = static_cast<double>(s.end - s.begin) * 1e-6;
        if (s.timed)
            timedMs[s.name][s.rep] += ms;
        else
            untimedMs[s.name].add(ms);
    }
    for (const auto &kv : timedMs) {
        Samples perRep;
        for (std::uint32_t rep : reps) {
            const auto it = kv.second.find(rep);
            perRep.add(it == kv.second.end() ? 0.0 : it->second);
        }
        result.metric(kv.first + "_ms", perRep, "ms");
    }
    for (const auto &kv : untimedMs) {
        if (!timedMs.count(kv.first))
            result.metric(kv.first + "_ms", kv.second, "ms");
    }

    // The ledger: self time per layer per repetition; the regions'
    // own self time is the unattributed rest, so the layers plus
    // bench.unattributed_ms add up to bench.wall_ms.
    const auto self = selfTimes(all);
    std::vector<std::int64_t> layerNs(layerCount, 0);
    for (const auto &kv : self)
        layerNs[kv.first.second] += kv.second;
    std::int64_t wallNs = 0;
    for (const SpanRecord &s : all) {
        if (s.timed && s.parent < 0)
            wallNs += s.end - s.begin;
    }
    const double perRep = 1e-6 / static_cast<double>(reps.size());
    result.metric("bench.wall_ms", static_cast<double>(wallNs) * perRep,
                  "ms", reps.size());
    result.metric("bench.unattributed_ms",
                  static_cast<double>(layerNs[benchLayer]) * perRep, "ms",
                  reps.size());
    std::printf("ledger per repetition: wall %.3f ms =",
                static_cast<double>(wallNs) * perRep);
    for (std::size_t l = 0; l < benchLayer; ++l) {
        bool used = false;
        for (const auto &kv : self)
            used = used || kv.first.second == l;
        if (!used)
            continue;
        result.metric(std::string(layerNames[l]) + ".self_ms",
                      static_cast<double>(layerNs[l]) * perRep, "ms",
                      reps.size());
        std::printf(" %s %.3f +", layerNames[l],
                    static_cast<double>(layerNs[l]) * perRep);
    }
    std::printf(" unattributed %.3f\n",
                static_cast<double>(layerNs[benchLayer]) * perRep);

    checkSelfTrace(all, self, smtr_path, result);
}

} // namespace pb
