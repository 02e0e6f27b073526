/**
 * @file
 * The `live` workload: the closed-loop live monitoring chain.
 *
 * One producer thread (this one) publishes realistic events — the
 * scaled-100x trace tiled to about 4 M events — through
 * live::RobustProducer over a Unix socket into an in-process
 * live::LiveService with default settings: journaled archive, block
 * policy, one collector loop. A repetition is timed from the first
 * publish until close() returns with every event acked durable.
 * Under block policy the producer waits on the monitor, so the rate
 * is where live monitoring starts to slow the monitored program. The
 * ring, session, collector, daemon loop, wire and the journaled
 * TraceWriter do the work; the simulator only runs in set-up.
 *
 * Each repetition gets a fresh daemon: a resumable tenant's archive
 * stays open until the daemon stops, and only then is the file
 * complete for the check. There is no daemon-side --follow
 * subscriber: the daemon evicts a subscriber on its first EAGAIN
 * (see NOTES.md).
 */

#include <cstdio>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <thread>

#include <pthread.h>
#include <sys/stat.h>

#include "live/robust.hh"
#include "live/service.hh"
#include "perfbench.hh"
#include "sim/logging.hh"
#include "trace/io.hh"
#include "validate/scenarios.hh"

namespace pb
{

namespace
{

using namespace supmon;

constexpr std::uint64_t targetEvents = 4000000;
/** Events per live.publish span. */
constexpr std::uint64_t publishBatch = 4096;

/** The number after "key": in the daemon's flat stats JSON. */
double
statOf(const std::string &json, const char *key)
{
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = json.find(needle);
    return at == std::string::npos
               ? 0.0
               : std::atof(json.c_str() + at + needle.size());
}

class LiveWorkload : public Workload
{
  public:
    explicit LiveWorkload(const Options &options)
        : opts(options), socketPath(workDir + "/live.sock"),
          archiveDir(workDir + "/live-archive"),
          archivePath(archiveDir + "/bench.smtr")
    {
        ::mkdir(archiveDir.c_str(), 0755);
    }

    ~LiveWorkload() override
    {
        producer.reset();
        stopService();
        std::remove(archivePath.c_str());
        ::rmdir(archiveDir.c_str());
    }

    void
    setup(RepClock &clock, Result &result) override
    {
        // Tear down the previous set-up sample's daemon first.
        if (producer)
            producer->close();
        producer.reset();
        stopService();
        std::remove(archivePath.c_str());

        validate::Scenario sc = *validate::findScenario(
            opts.tiny ? "scaled-10x" : "scaled-100x");
        sc.config.seed = opts.seed;
        clock.resume();
        par::RunResult res;
        {
            Span span("partracer.run");
            res = validate::runScenario(sc);
        }
        const std::uint64_t base = res.events.size();
        stream = TiledTrace::of(
            std::move(res.events),
            opts.tiny ? 2 : (targetEvents + base - 1) / base);
        connect(result);
        clock.pause();
    }

    std::uint64_t
    rep(RepClock &clock, Result &result) override
    {
        if (!producer)
            connect(result);
        if (!producer)
            return 0;
        const std::uint64_t n = stream.size();
        clockid_t loopClock;
        const bool haveLoopClock =
            ::pthread_getcpuclockid(loopThread.native_handle(),
                                    &loopClock) == 0;
        const double proc0 = processCpuSeconds();
        const double prod0 = threadCpuSeconds();
        const double loop0 = haveLoopClock ? cpuOf(loopClock) : 0.0;

        clock.resume();
        std::optional<Span> batch;
        std::uint64_t inBatch = 0;
        stream.forEach([&](const trace::TraceEvent &ev) {
            if (!batch)
                batch.emplace("live.publish");
            producer->publish(ev);
            if (++inBatch == publishBatch) {
                batch.reset();
                inBatch = 0;
            }
        });
        batch.reset();
        bool closed = false;
        {
            Span span("live.close");
            closed = producer->close();
        }
        clock.pause();

        const double producerCpu = threadCpuSeconds() - prod0;
        const double loopCpu =
            haveLoopClock ? cpuOf(loopClock) - loop0 : 0.0;
        const double processCpu = processCpuSeconds() - proc0;
        const live::RobustMetrics m = producer->metrics();
        const std::string stats = service->statsJson();
        producer.reset();
        stopService();

        cpu[0].add(producerCpu);
        cpu[1].add(loopCpu);
        cpu[2].add(processCpu - producerCpu - loopCpu);
        for (std::size_t s = 0; s < std::size(statKeys); ++s)
            serviceStats[s].add(statOf(stats, statKeys[s]));
        serviceStats[std::size(statKeys)].add(
            statOf(stats, "idle_cycles") * 1000.0 /
            static_cast<double>(n));
        acked.add(static_cast<double>(m.acked));
        reconnects.add(static_cast<double>(m.reconnects));
        replayed.add(static_cast<double>(m.replayed));
        spilled.add(static_cast<double>(m.spilled));

        if (opts.corrupt == "archive" && !corrupted) {
            corrupted = true;
            corruptFirstRecord(archivePath);
        }
        result.attempted += n;
        std::uint64_t bad = 0;
        std::string why = checkArchive(bad);
        if (!closed)
            why += " close() did not see every record acked;";
        if (m.acked < n)
            bad = std::max(bad, n - m.acked);
        if (m.reconnects || m.replayed || m.spilled) {
            why += sim::strprintf(
                " %llu reconnects, %llu replayed, %llu spilled;",
                static_cast<unsigned long long>(m.reconnects),
                static_cast<unsigned long long>(m.replayed),
                static_cast<unsigned long long>(m.spilled));
            bad += m.reconnects + m.replayed + m.spilled;
        }
        if (!closed && bad == 0)
            bad = 1;
        if (bad > 0)
            result.fail("live:" + why, std::min(bad, n));
        std::remove(archivePath.c_str());
        return n;
    }

    void
    layers(Result &result) override
    {
        result.metric("live.producer_cpu_s", cpu[0], "s");
        result.metric("live.loop_cpu_s", cpu[1], "s");
        result.metric("live.collector_cpu_s", cpu[2], "s");
        for (std::size_t s = 0; s < std::size(statKeys); ++s)
            result.metric(std::string("live.") + statKeys[s],
                          serviceStats[s], "count");
        result.metric("live.idle_cycles_per_kev",
                      serviceStats[std::size(statKeys)], "count");
        result.metric("live.acked", acked, "count");
        result.metric("live.reconnects", reconnects, "count");
        result.metric("live.replayed", replayed, "count");
        result.metric("live.spilled", spilled, "count");
    }

  private:
    static double
    cpuOf(clockid_t id)
    {
        timespec ts{};
        ::clock_gettime(id, &ts);
        return static_cast<double>(ts.tv_sec) +
               static_cast<double>(ts.tv_nsec) * 1e-9;
    }

    /** Start a daemon and connect the producer (HelloResume). */
    void
    connect(Result &result)
    {
        if (!service) {
            Span span("live.service_start");
            live::ServiceConfig cfg;
            cfg.socketPath = socketPath;
            cfg.archiveDir = archiveDir;
            service = std::make_unique<live::LiveService>(cfg);
            if (!service->ok()) {
                result.internalError = true;
                result.failures.push_back(service->error());
                service.reset();
                return;
            }
            loopThread = std::thread([this] { service->run(); });
        }
        Span span("live.handshake");
        live::RobustProducerConfig cfg;
        cfg.tenant = "bench";
        cfg.seed = opts.seed;
        const std::string path = socketPath;
        cfg.connect = [path] { return live::connectUnix(path); };
        producer = std::make_unique<live::RobustProducer>(cfg);
        if (!producer->connected()) {
            result.internalError = true;
            result.failures.push_back("live: producer cannot connect to " +
                                      socketPath);
            producer.reset();
        }
    }

    /** Drain-and-flush the daemon; its archives are then complete. */
    void
    stopService()
    {
        if (!service)
            return;
        service->requestStop();
        loopThread.join();
        service.reset();
    }

    /** The archive must hold exactly the published records, in
     *  order. @p bad receives the number that do not. */
    std::string
    checkArchive(std::uint64_t &bad) const
    {
        trace::TraceReader reader(archivePath);
        if (!reader.ok()) {
            bad = stream.size();
            return " archive unreadable: " + reader.error() + ";";
        }
        std::uint64_t i = 0;
        std::uint64_t mismatched = 0;
        trace::TraceEvent got;
        stream.forEach([&](const trace::TraceEvent &want) {
            if (!reader.next(got) || !(got == want))
                ++mismatched;
            ++i;
        });
        const std::uint64_t extra = reader.declaredCount() > i
                                        ? reader.declaredCount() - i
                                        : 0;
        bad = mismatched + extra;
        if (bad == 0 && reader.seed() == opts.seed)
            return "";
        return sim::strprintf(" archive: %llu of %llu records differ, "
                              "%llu extra, seed %llu;",
                              static_cast<unsigned long long>(mismatched),
                              static_cast<unsigned long long>(i),
                              static_cast<unsigned long long>(extra),
                              static_cast<unsigned long long>(
                                  reader.seed()));
    }

    static constexpr const char *statKeys[] = {
        "producer_stalls", "collector_stalls", "ring_high_water",
        "buffer_high_water", "frames_decoded", "acks_sent",
        "idle_cycles"};

    Options opts;
    std::string socketPath;
    std::string archiveDir;
    std::string archivePath;
    TiledTrace stream;
    std::unique_ptr<live::LiveService> service;
    std::unique_ptr<live::RobustProducer> producer;
    std::thread loopThread;
    Samples cpu[3];
    Samples serviceStats[std::size(statKeys) + 1];
    Samples acked;
    Samples reconnects;
    Samples replayed;
    Samples spilled;
    bool corrupted = false;
};

} // namespace

std::unique_ptr<Workload>
makeLiveWorkload(const Options &opts)
{
    return std::make_unique<LiveWorkload>(opts);
}

} // namespace pb
