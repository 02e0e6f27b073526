/**
 * @file
 * The `record` workload: the paper's measurement chain, end to end.
 *
 * One repetition (a "pass") runs every registered scenario serially —
 * the four golden ones and both scaled machines, 1 to 700 servants
 * and three protocol versions — through validate::runScenario (DES
 * kernel, LWP scheduler, ray computation, hybrid_mon, ZM4 recording,
 * CEC merge), validate::digestOf, validate::validateRun and
 * trace::saveTrace, then computes the phase-window servant
 * utilization with query::runQuery, as `tracequery --scenario
 * --phase` does. The simulator-side layers do nearly all the work;
 * the reader, sharded-query and live layers do none.
 */

#include <cstdio>
#include <map>
#include <optional>

#include "partracer/runner.hh"
#include "perfbench.hh"
#include "query/engine.hh"
#include "raytracer/render.hh"
#include "raytracer/scenes.hh"
#include "sim/logging.hh"
#include "trace/activity.hh"
#include "trace/io.hh"
#include "validate/golden.hh"
#include "validate/scenarios.hh"

namespace pb
{

namespace
{

using namespace supmon;

/** Digests of the scaled machines at the default seed; their traces
 *  are too large for tests/golden. */
const std::map<std::string, std::uint64_t> scaledDigests = {
    {"scaled-10x", 0x9ac2b17b74b92439ull},
    {"scaled-100x", 0x5d1c4412349a19efull},
};

/** The phase-window servant utilization of Figure 8. */
query::Query
phaseUtilization(const par::RunResult &res)
{
    query::Query q;
    query::FilterSpec servants;
    servants.streamPatterns.push_back("servant*");
    q.filters.push_back(servants);
    query::FilterSpec phase;
    phase.hasFrom = true;
    phase.from = res.phaseBegin;
    phase.hasTo = true;
    phase.to = res.phaseEnd;
    q.filters.push_back(phase);
    q.fold.kind = query::FoldKind::Utilization;
    q.fold.state = "WORK";
    return q;
}

/** Scene and camera of a run, as par::runRayTracer builds them. */
rt::Scene
sceneOf(const par::RunConfig &cfg)
{
    switch (cfg.scene) {
      case par::SceneKind::FractalPyramid:
        return rt::fractalPyramid(cfg.sceneParam);
      case par::SceneKind::SphereGrid:
        return rt::sphereGrid(cfg.sceneParam);
      case par::SceneKind::Moderate:
        break;
    }
    return rt::moderateScene();
}

rt::Camera::Setup
cameraOf(const par::RunConfig &cfg)
{
    switch (cfg.scene) {
      case par::SceneKind::FractalPyramid:
        return rt::pyramidCamera();
      case par::SceneKind::SphereGrid:
        return rt::sphereGridCamera(cfg.sceneParam);
      case par::SceneKind::Moderate:
        break;
    }
    return rt::moderateCamera();
}

class RecordWorkload : public Workload
{
  public:
    explicit RecordWorkload(const Options &options) : opts(options)
    {
        const auto add = [this](const validate::Scenario &s) {
            validate::Scenario copy = s;
            copy.config.seed = opts.seed;
            scenarios.push_back(copy);
        };
        for (const auto &s : validate::goldenScenarios())
            add(s);
        for (const auto &s : validate::scaledScenarios()) {
            if (!opts.tiny || s.name != "scaled-100x")
                add(s);
        }
    }

    ~RecordWorkload() override
    {
        for (const auto &s : scenarios)
            std::remove(pathOf(s).c_str());
    }

    void
    setup(RepClock &clock, Result &result) override
    {
        // What one scenariorun invocation pays: a whole pass.
        pass(clock, result);
    }

    std::uint64_t
    rep(RepClock &clock, Result &result) override
    {
        return pass(clock, result);
    }

    void
    layers(Result &result) override
    {
        result.metric("partracer.ns_per_sim_event", nsPerSimEvent, "ns");
        result.metric("sim.events", firstCounts.simEvents, "count",
                      passes);
        result.metric("zm4.events_recorded", firstCounts.recorded,
                      "count", passes);
        result.metric("zm4.events_lost", firstCounts.lost, "count",
                      passes);
        result.metric("hybrid.protocol_errors",
                      firstCounts.protocolErrors, "count", passes);

        // Calibration: the pass's images rendered on the host,
        // outside the simulator — the ray-computation share of
        // partracer.run_ms.
        Samples renderMs;
        for (int i = 0; i < 3; ++i) {
            std::int64_t ns = 0;
            for (const auto &s : scenarios) {
                const par::RunConfig &cfg = s.config;
                const rt::Scene scene = sceneOf(cfg);
                const rt::Camera camera(cameraOf(cfg), cfg.imageWidth,
                                        cfg.imageHeight);
                rt::Renderer::Options ro;
                ro.oversampling = cfg.oversampling;
                ro.useBvh = cfg.useBvh;
                const rt::Renderer renderer(scene, camera, ro);
                rt::Image image(cfg.imageWidth, cfg.imageHeight);
                const std::int64_t t0 = nowNs();
                renderer.renderImage(image, cfg.seed);
                ns += nowNs() - t0;
            }
            renderMs.add(static_cast<double>(ns) * 1e-6);
        }
        result.metric("raytracer.render_ms", renderMs, "ms");
    }

  private:
    /** Counts par::RunResult returns; they must repeat exactly. */
    struct Counts
    {
        std::uint64_t simEvents = 0;
        std::uint64_t recorded = 0;
        std::uint64_t lost = 0;
        std::uint64_t protocolErrors = 0;

        bool operator==(const Counts &) const = default;
    };

    std::string
    pathOf(const validate::Scenario &s) const
    {
        return workDir + "/record-" + s.name + ".smtr";
    }

    /** The committed digest of @p s at the default seed, if any. */
    std::optional<std::uint64_t>
    referenceHash(const validate::Scenario &s) const
    {
        if (opts.seed != defaultSeed)
            return std::nullopt;
        if (const auto it = scaledDigests.find(s.name);
            it != scaledDigests.end())
            return it->second;
        const auto golden = validate::loadGolden(
            "tests/golden/" + s.goldenFileName());
        // A missing golden file at the default seed fails the check.
        return golden ? golden->hash : 0;
    }

    std::uint64_t
    pass(RepClock &clock, Result &result)
    {
        std::uint64_t events = 0;
        std::int64_t runNs = 0;
        Counts counts;
        for (const auto &s : scenarios) {
            clock.resume();
            par::RunResult res;
            const std::int64_t t0 = nowNs();
            {
                Span span("partracer.run");
                res = validate::runScenario(s);
            }
            runNs += nowNs() - t0;
            validate::TraceDigest digest;
            {
                Span span("validate.digest");
                digest = validate::digestOf(res.events);
            }
            std::vector<validate::Violation> violations;
            {
                Span span("validate.rules");
                violations = validate::validateRun(res);
            }
            bool saved = false;
            {
                Span span("trace.save");
                saved = trace::saveTrace(pathOf(s), res.events,
                                         s.config.seed);
            }
            query::Table utilization;
            {
                Span span("query.memory");
                utilization = query::runQuery(res.events, res.dictionary,
                                              phaseUtilization(res),
                                              res.phaseEnd);
            }
            clock.pause();

            ++result.attempted;
            const std::string why =
                check(s, res, digest, violations, saved, utilization);
            if (!why.empty())
                result.fail(s.name + ": " + why);
            events += res.events.size();
            counts.simEvents += res.simEventsExecuted;
            counts.recorded += res.eventsRecorded;
            counts.lost += res.eventsLost;
            counts.protocolErrors += res.protocolErrors;
        }
        if (passes++ == 0)
            firstCounts = counts;
        else if (!(counts == firstCounts))
            result.fail("run counters differ between passes");
        if (counts.simEvents > 0)
            nsPerSimEvent.add(static_cast<double>(runNs) /
                              static_cast<double>(counts.simEvents));
        return events;
    }

    /** Every check of one scenario run; "" when all pass. */
    std::string
    check(const validate::Scenario &s, const par::RunResult &res,
          const validate::TraceDigest &digest,
          const std::vector<validate::Violation> &violations,
          bool saved, const query::Table &utilization)
    {
        if (!res.completed)
            return "run did not complete";
        if (res.eventsLost != 0 || res.protocolErrors != 0)
            return sim::strprintf("%llu events lost, %llu protocol errors",
                                  static_cast<unsigned long long>(
                                      res.eventsLost),
                                  static_cast<unsigned long long>(
                                      res.protocolErrors));
        if (!violations.empty())
            return sim::strprintf("%zu validator violations, first: %s",
                                  violations.size(),
                                  violations.front().message.c_str());
        if (const auto ref = referenceHash(s);
            ref && *ref != digest.hash)
            return "digest " + hex(digest.hash) + " != committed " +
                   hex(*ref);
        const auto first = firstDigest.emplace(s.name, digest).first;
        if (!(first->second == digest))
            return "digest " + hex(digest.hash) + " != first pass " +
                   hex(first->second.hash);

        if (!saved)
            return "saveTrace failed";
        if (opts.corrupt == "smtr" && !corrupted) {
            corrupted = true;
            corruptFirstRecord(pathOf(s));
        }
        const auto reloaded = trace::loadTrace(pathOf(s));
        if (!reloaded || !(validate::digestOf(*reloaded) == digest))
            return "saved .smtr does not reload to the run's digest";

        // The query::runQuery utilization against trace::ActivityMap
        // over the phase window, compared as tests/query/
        // test_crosscheck.cpp does: the same doubles.
        std::vector<trace::TraceEvent> phaseEvents;
        for (const auto &ev : res.events) {
            if (ev.timestamp >= res.phaseBegin && ev.timestamp < res.phaseEnd)
                phaseEvents.push_back(ev);
        }
        const auto map = trace::ActivityMap::build(
            phaseEvents, res.dictionary, res.phaseEnd);
        std::map<std::string, unsigned> byName;
        for (unsigned stream : map.streams())
            byName[res.dictionary.streamName(stream)] = stream;
        if (utilization.rows.empty())
            return "phase utilization query returned no rows";
        for (const auto &row : utilization.rows) {
            const auto stream = byName.find(row[0].text);
            if (stream == byName.end() ||
                row[2].real != map.utilization(stream->second, "WORK",
                                               res.phaseBegin,
                                               res.phaseEnd))
                return "phase utilization of " + row[0].text +
                       " differs from trace::ActivityMap";
        }
        return "";
    }

    Options opts;
    std::vector<validate::Scenario> scenarios;
    std::map<std::string, validate::TraceDigest> firstDigest;
    Counts firstCounts;
    std::size_t passes = 0;
    Samples nsPerSimEvent;
    bool corrupted = false;
};

} // namespace

std::unique_ptr<Workload>
makeRecordWorkload(const Options &opts)
{
    return std::make_unique<RecordWorkload>(opts);
}

} // namespace pb
