/**
 * @file
 * perfbench - the repository benchmark.
 *
 * Usage:
 *   perfbench --workload record|query|live [--seed N] [--seconds S]
 *             [--trace 0|1] [--tiny] [--corrupt smtr|table|archive]
 *
 * Runs from the checkout root: golden digests come from tests/golden,
 * scratch files go to .bench_work.
 *
 * One run: a host probe, the workload's set-up five times (the median
 * is setup_s), then repetitions until --seconds have passed.
 * events_per_s and cpu_ns_per_event come from each step's fastest
 * run (see Repetitions). Every repetition's outputs are checked
 * outside the timed part. With --trace 1 every other repetition records spans, and the
 * run reports the per-layer ledger, the self-trace cross-check and
 * the tracing overhead (traced against untraced repetitions of the
 * same run). The last stdout line is one JSON object with every
 * metric measured; perfbench/run.py builds the binary and reduces
 * that line to the metrics BENCHMARK.json declares.
 *
 * Exit status: 0 when the run completed (failed checks are reported
 * in the JSON, not in the status), 2 on usage errors.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include <malloc.h>
#include <sys/stat.h>
#include <unistd.h>

#include "perfbench.hh"
#include "sim/logging.hh"

namespace pb
{

double
Samples::quantile(double q) const
{
    if (values.empty())
        return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (sorted[hi] - sorted[lo]) *
                            (pos - static_cast<double>(lo));
}

void
Result::fail(const std::string &why, std::uint64_t ops)
{
    failed += ops;
    if (failures.size() < 20)
        failures.push_back(why);
}

TiledTrace
TiledTrace::of(std::vector<supmon::trace::TraceEvent> events,
               std::uint64_t n)
{
    TiledTrace tiled;
    // One tick past the span keeps tile k+1 strictly after tile k.
    tiled.period =
        events.back().timestamp - events.front().timestamp + 1;
    tiled.base = std::move(events);
    tiled.tiles = n;
    return tiled;
}

void
corruptFirstRecord(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r+b");
    if (!f)
        return;
    // The 24-byte v2 header, then the first record's param field.
    constexpr long offset = 24 + 10;
    std::fseek(f, offset, SEEK_SET);
    const int byte = std::fgetc(f);
    std::fseek(f, offset, SEEK_SET);
    std::fputc(byte ^ 0xff, f);
    std::fclose(f);
}

std::uint64_t
tableDigest(const supmon::query::Table &table)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void *data, std::size_t n) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= bytes[i];
            h *= 0x100000001b3ull;
        }
    };
    for (const std::string &c : table.columns)
        mix(c.data(), c.size() + 1);
    for (const auto &row : table.rows) {
        for (const supmon::query::Value &v : row) {
            mix(v.text.data(), v.text.size() + 1);
            mix(&v.integer, sizeof(v.integer));
            mix(&v.real, sizeof(v.real));
        }
    }
    return h;
}

std::string
hex(std::uint64_t v)
{
    return supmon::sim::strprintf("%016llx",
                                  static_cast<unsigned long long>(v));
}

std::uint64_t
l3Bytes()
{
    const long size = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    return size > 0 ? static_cast<std::uint64_t>(size) : 0;
}

namespace
{

constexpr unsigned setupReps = 5;

/** A fixed CPU-bound kernel: a dependent xorshift chain. */
std::uint64_t
spin(std::uint64_t n)
{
    std::uint64_t x = 0x9e3779b97f4a7c15ull + n;
    for (std::uint64_t i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/**
 * Cores this process can actually use right now: the kernel's time
 * on one thread against the same kernel on every hardware thread at
 * once (median of three probes). Host load moves it, so every result
 * carries it.
 */
double
effectiveCores(unsigned nproc)
{
    constexpr std::uint64_t work = 1ull << 24;
    // Results land here so the kernel cannot be optimized away.
    std::atomic<std::uint64_t> sink{0};
    Samples probes;
    for (int r = 0; r < 3; ++r) {
        std::int64_t t0 = nowNs();
        sink ^= spin(work);
        const double one = static_cast<double>(nowNs() - t0);

        t0 = nowNs();
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < nproc; ++i)
            threads.emplace_back([&sink] { sink ^= spin(work); });
        for (std::thread &t : threads)
            t.join();
        const double all = static_cast<double>(nowNs() - t0);
        probes.add(static_cast<double>(nproc) * one / all);
    }
    return probes.median();
}

/** The timed repetitions of one kind (traced or untraced). */
struct Repetitions
{
    /** Per repetition: wall and CPU seconds of each step. */
    std::vector<std::vector<double>> wall;
    std::vector<std::vector<double>> cpu;
    /** Events of one repetition (the same in every one). */
    std::uint64_t events = 0;

    void
    add(const RepClock &clock, std::uint64_t n)
    {
        events = n;
        wall.push_back(clock.stepWall());
        cpu.push_back(clock.stepCpu());
    }

    /**
     * A repetition's time built from each step's fastest run.
     * Interference from other tenants of the host only ever slows a
     * step, and comes in phases of tens of seconds, so the fastest
     * run of each step is the steadiest estimate of the program's
     * own cost (see NOTES.md).
     */
    static double
    fastest(const std::vector<std::vector<double>> &reps)
    {
        double total = 0.0;
        for (std::size_t step = 0; step < reps.front().size(); ++step) {
            double best = reps.front()[step];
            for (const auto &rep : reps)
                best = std::min(best, rep[step]);
            total += best;
        }
        return total;
    }

    double
    eventsPerSecond() const
    {
        return wall.empty() ? 0.0
                            : static_cast<double>(events) / fastest(wall);
    }

    double
    cpuNsPerEvent() const
    {
        return wall.empty() ? 0.0
                            : fastest(cpu) * 1e9 /
                                  static_cast<double>(events);
    }
};

/** Restart the VmHWM peak at the current resident size. */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    const bool wrote = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && wrote;
}

/** Peak resident set (VmHWM) in MiB; 0 if unreadable. */
double
peakRssMib()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (!f)
        return 0.0;
    char line[256];
    double kib = 0.0;
    while (std::fgets(line, sizeof(line), f)) {
        if (std::strncmp(line, "VmHWM:", 6) == 0)
            kib = std::atof(line + 6);
    }
    std::fclose(f);
    return kib / 1024.0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload record|query|live "
                 "[--seed N] [--seconds S] [--trace 0|1] [--tiny]\n"
                 "                 [--corrupt smtr|table|archive]\n");
    return 2;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool hasValue = i + 1 < argc;
        if (arg == "--workload" && hasValue) {
            opts.workload = argv[++i];
        } else if (arg == "--seed" && hasValue) {
            opts.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--seconds" && hasValue) {
            opts.seconds = std::atof(argv[++i]);
        } else if (arg == "--trace" && hasValue) {
            opts.trace = std::string(argv[++i]) != "0";
        } else if (arg == "--tiny") {
            opts.tiny = true;
        } else if (arg == "--corrupt" && hasValue) {
            opts.corrupt = argv[++i];
        } else {
            return false;
        }
    }
    const bool knownCorruption = opts.corrupt.empty() ||
                                 opts.corrupt == "smtr" ||
                                 opts.corrupt == "table" ||
                                 opts.corrupt == "archive";
    return opts.seconds > 0.0 && knownCorruption &&
           (opts.workload == "record" || opts.workload == "query" ||
            opts.workload == "live");
}

void
printJson(const Result &result)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                result.failed == 0 && !result.internalError ? "true"
                                                            : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed));
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"samples\": %zu}",
                    i ? ", " : "", m.name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    }
    std::printf("}}\n");
}

} // namespace

int
run(const Options &opts)
{
    supmon::sim::setQuiet(true);
    ::mkdir(workDir.c_str(), 0755);

    std::unique_ptr<Workload> workload =
        opts.workload == "record" ? makeRecordWorkload(opts)
        : opts.workload == "query" ? makeQueryWorkload(opts)
                                   : makeLiveWorkload(opts);
    Result result;

    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    const double cores = effectiveCores(nproc);
    std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d%s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, opts.tiny ? " tiny" : "");
    std::printf("host: nproc=%u l3_mib=%.1f compiler=%s build=%s "
                "effective_cores=%.2f\n",
                nproc, static_cast<double>(l3Bytes()) / 1048576.0,
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, cores);
    std::fflush(stdout);

    Samples setup;
    setTracing(opts.trace);
    for (unsigned i = 0; i < setupReps; ++i) {
        RepClock clock(0, false);
        workload->setup(clock, result);
        setup.add(clock.wallSeconds());
    }
    setTracing(false);

    // The peak covers the timed region only, from a trimmed heap: the
    // set-up and its oracles are not the workload's footprint.
    ::malloc_trim(0);
    const bool peakReset = resetPeakRss();
    Repetitions reps[2];
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(opts.seconds * 1e9);
    // A traced run alternates traced and untraced repetitions, so the
    // tracing overhead is measured within one process.
    const std::uint32_t minReps = opts.trace ? 4 : 3;
    for (std::uint32_t rep = 0;; ++rep) {
        const bool traced = opts.trace && rep % 2 == 0;
        setTracing(traced);
        RepClock clock(rep, true);
        const std::uint64_t events = workload->rep(clock, result);
        setTracing(false);
        Repetitions &same = reps[traced];
        if (events > 0 && !same.wall.empty() &&
            (events != same.events ||
             clock.stepWall().size() != same.wall.front().size())) {
            result.internalError = true;
            result.failures.push_back(
                "repetitions differ in events or steps");
        } else if (events > 0) {
            same.add(clock, events);
        }
        if (rep + 1 >= minReps && nowNs() >= deadline)
            break;
    }
    const double peak = peakRssMib();

    result.metric("setup_s", setup, "s");
    result.metric("events_per_s", reps[0].eventsPerSecond(), "events/s",
                  reps[0].wall.size());
    result.metric("cpu_ns_per_event", reps[0].cpuNsPerEvent(), "ns",
                  reps[0].wall.size());
    result.metric("peak_rss_mib", peak, "MiB");
    result.metric("failed_ratio",
                  result.attempted
                      ? static_cast<double>(result.failed) /
                            static_cast<double>(result.attempted)
                      : 1.0,
                  "fraction", result.attempted);
    result.metric("parallel.effective_cores", cores, "cores", 3);
    result.metric("host.nproc", nproc, "cores");
    result.metric("host.l3_mib",
                  static_cast<double>(l3Bytes()) / 1048576.0, "MiB");
    workload->summary(result);
    if (!peakReset)
        std::printf("note: VmHWM reset unavailable; peak_rss_mib "
                    "covers the whole process\n");

    if (opts.trace) {
        workload->layers(result);
        reportSpans(workDir + "/selftrace.smtr", result);
        const double untraced = reps[0].eventsPerSecond();
        const double traced = reps[1].eventsPerSecond();
        result.metric("bench.traced_events_per_s", traced, "events/s",
                      reps[1].wall.size());
        result.metric("bench.tracing_overhead_pct",
                      untraced > 0.0
                          ? 100.0 * (untraced - traced) / untraced
                          : 0.0,
                      "%", reps[0].wall.size() + reps[1].wall.size());
    }

    for (const Metric &m : result.metrics)
        std::printf("  %-34s %16.6g %-9s n=%zu\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.samples);
    for (const std::string &why : result.failures)
        std::printf("FAILED: %s\n", why.c_str());
    printJson(result);
    return 0;
}

} // namespace pb

int
main(int argc, char **argv)
{
    pb::Options opts;
    if (!pb::parseArgs(argc, argv, opts))
        return pb::usage();
    return pb::run(opts);
}
