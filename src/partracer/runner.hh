/**
 * @file
 * One-call experiment runner: build the simulated SUPRENUM partition,
 * attach the ZM4 through the seven-segment interfaces, start master
 * and servants, run to completion, then collect and merge the event
 * traces and compute the paper's metrics.
 *
 * This is the top-level public API most examples and benches use:
 *
 * @code
 * par::RunConfig cfg;
 * cfg.version = par::Version::V2AgentsForward;
 * cfg.applyVersionDefaults();
 * par::RunResult res = par::runRayTracer(cfg);
 * std::cout << res.servantUtilizationMeasured;
 * @endcode
 */

#ifndef PARTRACER_RUNNER_HH
#define PARTRACER_RUNNER_HH

#include <memory>
#include <vector>

#include "faults/injector.hh"
#include "partracer/config.hh"
#include "partracer/events.hh"
#include "partracer/workers.hh"
#include "raytracer/image.hh"
#include "trace/activity.hh"
#include "trace/dictionary.hh"
#include "trace/event.hh"

namespace supmon
{
namespace par
{

struct RunResult
{
    RunConfig config;

    /** Did the application terminate (false = deadlock/timeout)? */
    bool completed = false;

    /** The merged, time-ordered global event trace. */
    std::vector<trace::TraceEvent> events;
    /** Dictionary with the ray tracer's event and stream names. */
    trace::EventDictionary dictionary;

    /** The rendered image (host side). */
    std::unique_ptr<rt::Image> image;

    // ----- metrics of the ray tracing phase ----------------------------
    /** Phase window used for utilization. */
    sim::Tick phaseBegin = 0;
    sim::Tick phaseEnd = 0;
    /** Servant utilization from the *measured* trace (the paper's
     *  number); negative if monitoring was off. Equal, bit for bit,
     *  to activity().meanUtilization(servantStreams, "WORK",
     *  phaseBegin, phaseEnd), computed without building the map. */
    double servantUtilizationMeasured = -1.0;
    /** Ground-truth utilization from host-side bookkeeping. */
    double servantUtilizationActual = 0.0;
    /** Completion time of the whole application. */
    sim::Tick applicationTime = 0;
    /** Simulator events executed over the whole run (scheduler work,
     *  not trace records); the throughput bench's full-machine rate. */
    std::uint64_t simEventsExecuted = 0;

    // ----- protocol statistics -----------------------------------------
    std::uint64_t jobsSent = 0;
    std::uint64_t resultsReceived = 0;
    std::uint64_t writeOps = 0;
    std::size_t pixelQueueHighWater = 0;
    std::size_t missingPixels = 0;
    std::size_t duplicatedPixels = 0;
    /** Agents created on the master node (paper: ~5 for V2). */
    std::size_t masterAgentPoolSize = 0;
    /** Agents created per servant node (V3+). */
    std::vector<std::size_t> servantAgentPoolSizes;
    sim::SummaryStat masterCycleMs;
    sim::SummaryStat rayCostMs;

    // ----- monitoring statistics ----------------------------------------
    std::uint64_t eventsRecorded = 0;
    std::uint64_t eventsLost = 0;
    std::uint64_t protocolErrors = 0;

    // ----- fault injection & recovery ------------------------------------
    /** Messages dropped at delivery because the destination process
     *  had terminated (all nodes, healthy runs included). */
    std::uint64_t messagesDroppedTerminated = 0;
    /** What the injector actually did (all zero without a plan). */
    faults::FaultStats faults;
    /** Recovery actions of the fault-tolerant master. */
    RecoveryStats recovery;

    // ----- OS instrumentation (cfg.instrumentKernel) ---------------------
    /** Total kernel probe events across all nodes. */
    std::uint64_t kernelEvents = 0;
    /** Delay from message delivery to the mailbox process's dispatch
     *  on the servant nodes - the scheduling behaviour behind the
     *  synchronous mailboxes. */
    sim::SummaryStat mailboxSchedulingDelayMs;

    /** Logical streams of the servants (for Gantt rendering). */
    std::vector<unsigned> servantStreams;
    /** Logical stream of the master. */
    unsigned masterStream = 0;

    /** Build the activity map of the merged trace. */
    trace::ActivityMap
    activity() const
    {
        return trace::ActivityMap::build(events, dictionary, phaseEnd);
    }
};

/** Run the configured parallel ray tracer end to end. */
RunResult runRayTracer(const RunConfig &cfg);

} // namespace par
} // namespace supmon

#endif // PARTRACER_RUNNER_HH
