#include "validate/rules.hh"

#include <algorithm>
#include <map>
#include <set>

#include "live/tokens.hh"
#include "partracer/events.hh"
#include "sim/logging.hh"
#include "suprenum/kernel_events.hh"
#include "trace/activity.hh"

namespace supmon
{
namespace validate
{

std::string
formatViolations(const std::vector<Violation> &violations)
{
    std::string out;
    for (const auto &v : violations) {
        out += sim::strprintf("[%s] event %zu: %s\n", v.rule.c_str(),
                              v.eventIndex, v.message.c_str());
    }
    return out;
}

namespace
{

void
report(std::vector<Violation> &out, const Rule &rule,
       std::size_t index, std::string message)
{
    out.push_back(Violation{rule.name(), index, std::move(message)});
}

} // namespace

// ---------------------------------------------------------------------
// stream-monotonic
// ---------------------------------------------------------------------

void
StreamMonotonicRule::check(const std::vector<trace::TraceEvent> &events,
                           std::vector<Violation> &out) const
{
    std::map<unsigned, std::pair<sim::Tick, std::size_t>> last;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &ev = events[i];
        auto it = last.find(ev.stream);
        if (it != last.end() && ev.timestamp < it->second.first) {
            report(out, *this, i,
                   sim::strprintf(
                       "stream %u time stamp %llu is before the "
                       "stream's previous event %zu at %llu",
                       ev.stream,
                       static_cast<unsigned long long>(ev.timestamp),
                       it->second.second,
                       static_cast<unsigned long long>(
                           it->second.first)));
        }
        last[ev.stream] = {ev.timestamp, i};
    }
}

// ---------------------------------------------------------------------
// merge-order
// ---------------------------------------------------------------------

void
MergeOrderRule::check(const std::vector<trace::TraceEvent> &events,
                      std::vector<Violation> &out) const
{
    for (std::size_t i = 1; i < events.size(); ++i) {
        if (events[i].timestamp < events[i - 1].timestamp) {
            report(out, *this, i,
                   sim::strprintf(
                       "global merge order broken: time stamp %llu "
                       "after %llu",
                       static_cast<unsigned long long>(
                           events[i].timestamp),
                       static_cast<unsigned long long>(
                           events[i - 1].timestamp)));
        }
    }
}

// ---------------------------------------------------------------------
// protocol-causality
// ---------------------------------------------------------------------

void
ProtocolCausalityRule::check(
    const std::vector<trace::TraceEvent> &events,
    std::vector<Violation> &out) const
{
    struct Seen
    {
        sim::Tick at = 0;
        std::size_t index = 0;
    };
    std::map<std::uint32_t, Seen> sent;     // evJobSend
    std::map<std::uint32_t, Seen> worked;   // evWorkBegin
    std::map<std::uint32_t, Seen> returned; // evSendResultsBegin

    // Pre-pass: first send of every job. Work events are checked
    // against this rather than the streaming map, so a send that is
    // merely merged later than its work still counts as "sent" - the
    // timestamps decide the verdict, not the merge position.
    std::map<std::uint32_t, Seen> first_send;
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (events[i].token == par::evJobSend &&
            !first_send.count(events[i].param))
            first_send[events[i].param] = {events[i].timestamp, i};
    }

    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &ev = events[i];
        const std::uint32_t job = ev.param;
        switch (ev.token) {
          case par::evJobSend: {
            if (sent.count(job) && !allowRetries) {
                report(out, *this, i,
                       sim::strprintf("job %u sent twice (first at "
                                      "event %zu)",
                                      job, sent[job].index));
            }
            sent[job] = {ev.timestamp, i};
            break;
          }
          case par::evWorkBegin: {
            if (worked.count(job)) {
                if (!allowRetries) {
                    report(out, *this, i,
                           sim::strprintf("job %u worked twice (first "
                                          "at event %zu)",
                                          job, worked[job].index));
                }
                break; // keep the first Work Begin as the reference
            } else if (!first_send.empty() &&
                       !first_send.count(job)) {
                report(out, *this, i,
                       sim::strprintf("job %u worked but never sent",
                                      job));
            } else if (first_send.count(job) &&
                       first_send[job].at > ev.timestamp) {
                report(out, *this, i,
                       sim::strprintf(
                           "job %u Work Begin at %llu precedes its "
                           "Job Send at %llu",
                           job,
                           static_cast<unsigned long long>(
                               ev.timestamp),
                           static_cast<unsigned long long>(
                               first_send[job].at)));
            }
            worked[job] = {ev.timestamp, i};
            break;
          }
          case par::evSendResultsBegin: {
            if (!worked.count(job)) {
                report(out, *this, i,
                       sim::strprintf("results of job %u sent before "
                                      "any Work Begin",
                                      job));
            } else if (worked[job].at > ev.timestamp) {
                report(out, *this, i,
                       sim::strprintf(
                           "job %u Send Results at %llu precedes its "
                           "Work Begin at %llu",
                           job,
                           static_cast<unsigned long long>(
                               ev.timestamp),
                           static_cast<unsigned long long>(
                               worked[job].at)));
            }
            returned[job] = {ev.timestamp, i};
            break;
          }
          case par::evReceiveResultsBegin: {
            if (worked.empty())
                break; // no servant stream in this trace slice
            if (!worked.count(job)) {
                report(out, *this, i,
                       sim::strprintf("results of job %u received "
                                      "but the job was never worked",
                                      job));
            } else if (worked[job].at > ev.timestamp) {
                report(out, *this, i,
                       sim::strprintf(
                           "job %u Receive Results at %llu precedes "
                           "its Work Begin at %llu",
                           job,
                           static_cast<unsigned long long>(
                               ev.timestamp),
                           static_cast<unsigned long long>(
                               worked[job].at)));
            } else if (returned.count(job) &&
                       returned[job].at > ev.timestamp) {
                report(out, *this, i,
                       sim::strprintf(
                           "job %u Receive Results at %llu precedes "
                           "its Send Results at %llu",
                           job,
                           static_cast<unsigned long long>(
                               ev.timestamp),
                           static_cast<unsigned long long>(
                               returned[job].at)));
            }
            break;
          }
          default:
            break;
        }
    }
}

// ---------------------------------------------------------------------
// conservation
// ---------------------------------------------------------------------

void
ConservationRule::check(const std::vector<trace::TraceEvent> &events,
                        std::vector<Violation> &out) const
{
    std::uint64_t job_sends = 0;
    std::uint64_t work_begins = 0;
    std::uint64_t results_received = 0;
    std::uint64_t master_starts = 0;
    std::uint64_t master_dones = 0;
    std::uint64_t servant_starts = 0;
    std::uint64_t servant_dones = 0;
    std::uint64_t pixels_written = 0;
    std::uint64_t send_jobs_begins = 0;
    std::uint64_t send_jobs_ends = 0;
    std::uint64_t write_begins = 0;
    std::uint64_t write_ends = 0;

    for (const auto &ev : events) {
        switch (ev.token) {
          case par::evSendJobsBegin:
            ++send_jobs_begins;
            break;
          case par::evSendJobsEnd:
            ++send_jobs_ends;
            break;
          case par::evWritePixelsEnd:
            ++write_ends;
            break;
          case par::evJobSend:
            ++job_sends;
            break;
          case par::evWorkBegin:
            ++work_begins;
            break;
          case par::evReceiveResultsBegin:
            ++results_received;
            break;
          case par::evMasterStart:
            ++master_starts;
            break;
          case par::evMasterDone:
            ++master_dones;
            break;
          case par::evServantStart:
            ++servant_starts;
            break;
          case par::evServantDone:
            ++servant_dones;
            break;
          case par::evWritePixelsBegin:
            ++write_begins;
            pixels_written += ev.param;
            break;
          default:
            break;
        }
    }

    const std::size_t tail = events.size();
    if ((master_starts != 0 || master_dones != 0) &&
        (master_starts != 1 || master_dones != 1)) {
        report(out, *this, tail,
               sim::strprintf("expected exactly one Master Start and "
                              "one Master Done, found %llu / %llu",
                              static_cast<unsigned long long>(
                                  master_starts),
                              static_cast<unsigned long long>(
                                  master_dones)));
    }
    if (servant_starts != servant_dones) {
        report(out, *this, tail,
               sim::strprintf("%llu servants started but %llu "
                              "finished",
                              static_cast<unsigned long long>(
                                  servant_starts),
                              static_cast<unsigned long long>(
                                  servant_dones)));
    }
    if (send_jobs_begins != send_jobs_ends) {
        report(out, *this, tail,
               sim::strprintf("%llu Send Jobs Begin but %llu Send "
                              "Jobs End markers - an activity was "
                              "left open",
                              static_cast<unsigned long long>(
                                  send_jobs_begins),
                              static_cast<unsigned long long>(
                                  send_jobs_ends)));
    }
    if (write_begins != write_ends) {
        report(out, *this, tail,
               sim::strprintf("%llu Write Pixels Begin but %llu "
                              "Write Pixels End markers - an "
                              "activity was left open",
                              static_cast<unsigned long long>(
                                  write_begins),
                              static_cast<unsigned long long>(
                                  write_ends)));
    }
    if (job_sends > 0 && job_sends != work_begins) {
        report(out, *this, tail,
               sim::strprintf("%llu jobs sent but %llu worked",
                              static_cast<unsigned long long>(
                                  job_sends),
                              static_cast<unsigned long long>(
                                  work_begins)));
    }
    if (work_begins > 0 && results_received > 0 &&
        work_begins != results_received) {
        report(out, *this, tail,
               sim::strprintf("%llu jobs worked but %llu results "
                              "received",
                              static_cast<unsigned long long>(
                                  work_begins),
                              static_cast<unsigned long long>(
                                  results_received)));
    }

    if (expected.jobsSent && work_begins != *expected.jobsSent) {
        report(out, *this, tail,
               sim::strprintf("ground truth sent %llu jobs but the "
                              "trace works %llu",
                              static_cast<unsigned long long>(
                                  *expected.jobsSent),
                              static_cast<unsigned long long>(
                                  work_begins)));
    }
    if (expected.resultsReceived &&
        results_received != *expected.resultsReceived) {
        report(out, *this, tail,
               sim::strprintf("ground truth received %llu results "
                              "but the trace shows %llu",
                              static_cast<unsigned long long>(
                                  *expected.resultsReceived),
                              static_cast<unsigned long long>(
                                  results_received)));
    }
    if (expected.pixelsWritten &&
        pixels_written != *expected.pixelsWritten) {
        report(out, *this, tail,
               sim::strprintf("image has %llu pixels but the trace "
                              "writes %llu",
                              static_cast<unsigned long long>(
                                  *expected.pixelsWritten),
                              static_cast<unsigned long long>(
                                  pixels_written)));
    }
}

// ---------------------------------------------------------------------
// token-dictionary
// ---------------------------------------------------------------------

void
TokenDictionaryRule::check(const std::vector<trace::TraceEvent> &events,
                           std::vector<Violation> &out) const
{
    std::set<std::uint16_t> reported;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const std::uint16_t token = events[i].token;
        if (dict.find(token) || reported.count(token))
            continue;
        reported.insert(token);
        report(out, *this, i,
               sim::strprintf("token 0x%04x is not defined in the "
                              "dictionary",
                              token));
    }
}

// ---------------------------------------------------------------------
// lwp-state-machine
// ---------------------------------------------------------------------

void
LwpStateRule::check(const std::vector<trace::TraceEvent> &events,
                    std::vector<Violation> &out) const
{
    enum class S
    {
        Ready,
        Running,
        Blocked,
        Terminated,
    };

    struct Node
    {
        std::map<std::uint32_t, S> lwps;
        std::optional<std::uint32_t> running;
    };
    std::map<unsigned, Node> nodes;

    auto running_is = [&](Node &node, std::uint32_t lwp) {
        return node.running && *node.running == lwp;
    };

    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &ev = events[i];
        if ((ev.token >> 8) != 7)
            continue; // not a kernel-class token
        Node &node = nodes[ev.stream];
        switch (ev.token) {
          case suprenum::evKernReady: {
            const std::uint32_t lwp = ev.param;
            auto it = node.lwps.find(lwp);
            if (it != node.lwps.end() && it->second == S::Terminated) {
                report(out, *this, i,
                       sim::strprintf("terminated process %u made "
                                      "ready",
                                      lwp));
            } else if (running_is(node, lwp)) {
                report(out, *this, i,
                       sim::strprintf("running process %u made ready "
                                      "without blocking or yielding",
                                      lwp));
            }
            node.lwps[lwp] = S::Ready;
            break;
          }
          case suprenum::evKernDispatch: {
            const std::uint32_t lwp = ev.param;
            if (node.running) {
                report(out, *this, i,
                       sim::strprintf(
                           "process %u dispatched while process %u "
                           "is still running (no time slicing!)",
                           lwp, *node.running));
            }
            auto it = node.lwps.find(lwp);
            if (it == node.lwps.end() || it->second != S::Ready) {
                report(out, *this, i,
                       sim::strprintf("process %u dispatched but was "
                                      "not ready",
                                      lwp));
            }
            node.lwps[lwp] = S::Running;
            node.running = lwp;
            break;
          }
          case suprenum::evKernBlock: {
            const std::uint32_t lwp = ev.param >> 8;
            if (!running_is(node, lwp)) {
                report(out, *this, i,
                       sim::strprintf("process %u blocked but is not "
                                      "the running process",
                                      lwp));
            }
            node.lwps[lwp] = S::Blocked;
            if (running_is(node, lwp))
                node.running.reset();
            break;
          }
          case suprenum::evKernYield: {
            const std::uint32_t lwp = ev.param;
            if (!running_is(node, lwp)) {
                report(out, *this, i,
                       sim::strprintf("process %u yielded but is not "
                                      "the running process",
                                      lwp));
            }
            node.lwps[lwp] = S::Ready;
            if (running_is(node, lwp))
                node.running.reset();
            break;
          }
          case suprenum::evKernSend: {
            const std::uint32_t lwp = ev.param;
            if (!running_is(node, lwp)) {
                report(out, *this, i,
                       sim::strprintf("process %u sent a message but "
                                      "is not the running process",
                                      lwp));
            }
            break;
          }
          case suprenum::evKernDeliver: {
            const std::uint32_t lwp = ev.param;
            auto it = node.lwps.find(lwp);
            if (it != node.lwps.end() && it->second == S::Terminated) {
                report(out, *this, i,
                       sim::strprintf("message delivered to "
                                      "terminated process %u",
                                      lwp));
            }
            break;
          }
          case suprenum::evKernDrop:
            // The legal outcome for a terminated destination: the
            // kernel drops the message at delivery (and says so).
            break;
          case suprenum::evKernExit: {
            const std::uint32_t lwp = ev.param;
            auto it = node.lwps.find(lwp);
            if (it != node.lwps.end() && it->second == S::Terminated) {
                report(out, *this, i,
                       sim::strprintf("process %u exited twice", lwp));
            }
            if (node.running && *node.running != lwp) {
                report(out, *this, i,
                       sim::strprintf("process %u exited while "
                                      "process %u is running",
                                      lwp, *node.running));
            }
            if (running_is(node, lwp))
                node.running.reset();
            node.lwps[lwp] = S::Terminated;
            break;
          }
          default:
            report(out, *this, i,
                   sim::strprintf("unknown kernel token 0x%04x",
                                  ev.token));
            break;
        }
    }
}

// ---------------------------------------------------------------------
// activity-sanity
// ---------------------------------------------------------------------

void
ActivitySanityRule::check(const std::vector<trace::TraceEvent> &events,
                          std::vector<Violation> &out) const
{
    if (events.empty())
        return;
    // The window of trace::ActivityMap::build(events, dict).
    const sim::Tick begin = events.front().timestamp;
    const sim::Tick end = events.back().timestamp;
    const std::size_t tail = events.size();

    // One walk: per-stream state time, and only the intervals that
    // leave the window (every interval has end > begin by
    // construction).
    std::map<unsigned, sim::Tick> busy;
    std::vector<trace::StateInterval> leaving;
    trace::walkStateIntervals(
        events, dict, 0,
        [&](unsigned stream, const std::string &state, sim::Tick from,
            sim::Tick to) {
            busy[stream] += to - from;
            if (from < begin || to > end)
                leaving.push_back(
                    trace::StateInterval{stream, state, from, to});
        });

    trace::orderIntervals(leaving);
    for (const auto &iv : leaving) {
        report(out, *this, tail,
               sim::strprintf("stream %u state '%s' [%llu, %llu) "
                              "leaves the trace window",
                              iv.stream, iv.state.c_str(),
                              static_cast<unsigned long long>(iv.begin),
                              static_cast<unsigned long long>(iv.end)));
    }

    const sim::Tick window = end - begin;
    for (const auto &[stream, total] : busy) {
        if (total > window) {
            report(out, *this, tail,
                   sim::strprintf(
                       "stream %u accumulates %llu ns of state time "
                       "in a %llu ns window (utilization > 1)",
                       stream,
                       static_cast<unsigned long long>(total),
                       static_cast<unsigned long long>(window)));
        }
    }
}

// ---------------------------------------------------------------------
// fault-observation
// ---------------------------------------------------------------------

void
FaultObservationRule::check(const std::vector<trace::TraceEvent> &events,
                            std::vector<Violation> &out) const
{
    std::uint64_t kills = 0, crashes = 0, restarts = 0, drops = 0;
    std::uint64_t corrupts = 0, delays = 0, stalls = 0;
    std::uint64_t corrupt_discards = 0;
    for (const auto &ev : events) {
        switch (ev.token) {
          case par::evFaultCorruptDiscarded:
          case par::evServantCorruptJob:
            ++corrupt_discards;
            break;
          case par::evInjectKill:
            ++kills;
            break;
          case par::evInjectCrash:
            ++crashes;
            break;
          case par::evInjectRestart:
            ++restarts;
            break;
          case par::evInjectDrop:
            ++drops;
            break;
          case par::evInjectCorrupt:
            ++corrupts;
            break;
          case par::evInjectDelay:
            ++delays;
            break;
          case par::evInjectStall:
            ++stalls;
            break;
          default:
            break;
        }
    }

    const std::size_t tail = events.size();
    auto expect = [&](const char *what, std::uint64_t injected,
                      std::uint64_t observed) {
        if (injected != observed) {
            report(out, *this, tail,
                   sim::strprintf("injector reports %llu %s but the "
                                  "trace observes %llu",
                                  static_cast<unsigned long long>(
                                      injected),
                                  what,
                                  static_cast<unsigned long long>(
                                      observed)));
        }
    };
    expect("kills", expected.kills, kills);
    expect("crashes", expected.crashes, crashes);
    expect("restarts", expected.restarts, restarts);
    expect("dropped messages", expected.messagesDropped, drops);
    expect("corrupted messages", expected.messagesCorrupted, corrupts);
    expect("delayed messages", expected.messagesDelayed, delays);
    expect("stalls", expected.stalls, stalls);

    // Checksum failures are observed where the garbled message is
    // *read* (master: Fault Corrupt Discarded; servant: Servant
    // Corrupt Job). A corrupted message can also die unread - lost
    // with a killed receiver or still in flight at the end - so the
    // observations bound the injections from below, never exceed them.
    if (corrupt_discards > expected.messagesCorrupted) {
        report(out, *this, tail,
               sim::strprintf("the trace discards %llu corrupt "
                              "messages but the injector corrupted "
                              "only %llu",
                              static_cast<unsigned long long>(
                                  corrupt_discards),
                              static_cast<unsigned long long>(
                                  expected.messagesCorrupted)));
    }
}

// ---------------------------------------------------------------------
// recovery-consistency
// ---------------------------------------------------------------------

void
RecoveryConsistencyRule::check(
    const std::vector<trace::TraceEvent> &events,
    std::vector<Violation> &out) const
{
    std::map<std::uint32_t, std::size_t> accepted; // job -> event
    std::set<std::uint32_t> retried_here;
    std::set<std::uint32_t> timed_out;      // jobs with a Timeout
    std::set<std::uint32_t> dead_servants;  // Servant Dead params
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto &ev = events[i];
        const std::uint32_t job = ev.param;
        switch (ev.token) {
          case par::evReceiveResultsBegin: {
            auto it = accepted.find(job);
            if (it != accepted.end()) {
                report(out, *this, i,
                       sim::strprintf(
                           "results of job %u accepted twice (first "
                           "at event %zu) - the duplicate was not "
                           "suppressed",
                           job, it->second));
            } else {
                accepted[job] = i;
            }
            break;
          }
          case par::evFaultDuplicateResult: {
            if (!accepted.count(job)) {
                report(out, *this, i,
                       sim::strprintf(
                           "duplicate result of job %u suppressed "
                           "but no results were ever accepted",
                           job));
            }
            break;
          }
          case par::evFaultTimeout:
            timed_out.insert(job);
            break;
          case par::evFaultServantDead: {
            // Dead stays dead (LivenessTracker): a second marker for
            // the same servant means the liveness table regressed.
            if (!dead_servants.insert(job).second) {
                report(out, *this, i,
                       sim::strprintf("servant %u declared dead "
                                      "twice",
                                      job));
            }
            break;
          }
          case par::evFaultRetry: {
            // Every resend has a cause on record: an ack deadline for
            // this very job, or a dead servant whose orphaned jobs
            // are requeued without individual timeout markers.
            if (!timed_out.count(job) && dead_servants.empty()) {
                report(out, *this, i,
                       sim::strprintf(
                           "job %u retried but no Fault Timeout for "
                           "it and no dead servant precede the retry",
                           job));
            }
            retried_here.insert(job);
            break;
          }
          case par::evFaultJobReassigned: {
            if (!retried_here.count(job)) {
                report(out, *this, i,
                       sim::strprintf("job %u reassigned without a "
                                      "retry marker",
                                      job));
            }
            break;
          }
          default:
            break;
        }
    }
}

// ---------------------------------------------------------------------
// job-coverage
// ---------------------------------------------------------------------

void
JobCoverageRule::check(const std::vector<trace::TraceEvent> &events,
                       std::vector<Violation> &out) const
{
    bool master_done = false;
    std::set<std::uint32_t> sent_jobs;
    std::map<std::uint32_t, std::uint64_t> accepted; // job -> count
    std::uint64_t pixels_written = 0;
    for (const auto &ev : events) {
        switch (ev.token) {
          case par::evMasterDone:
            master_done = true;
            break;
          case par::evJobSend:
            sent_jobs.insert(ev.param);
            break;
          case par::evReceiveResultsBegin:
            ++accepted[ev.param];
            break;
          case par::evWritePixelsBegin:
            pixels_written += ev.param;
            break;
          default:
            break;
        }
    }
    if (!master_done)
        return; // the run was abandoned; coverage cannot be expected

    const std::size_t tail = events.size();
    for (std::uint32_t job : sent_jobs) {
        const auto it = accepted.find(job);
        const std::uint64_t n = it == accepted.end() ? 0 : it->second;
        if (n != 1) {
            report(out, *this, tail,
                   sim::strprintf("job %u was sent but its results "
                                  "were accepted %llu times (expected "
                                  "exactly once)",
                                  job,
                                  static_cast<unsigned long long>(n)));
        }
    }
    if (expectedPixels && pixels_written != *expectedPixels) {
        report(out, *this, tail,
               sim::strprintf("the finished run wrote %llu pixels "
                              "but the image has %llu",
                              static_cast<unsigned long long>(
                                  pixels_written),
                              static_cast<unsigned long long>(
                                  *expectedPixels)));
    }
}

// ---------------------------------------------------------------------
// LiveAccountingRule
// ---------------------------------------------------------------------

void
LiveAccountingRule::check(const std::vector<trace::TraceEvent> &events,
                          std::vector<Violation> &out) const
{
    struct Book
    {
        std::uint64_t delivered = 0;
        std::uint64_t producedMarkers = 0;
        std::uint64_t droppedMarkers = 0;
        std::uint64_t spilledMarkers = 0;
        std::uint32_t produced = 0;
        std::uint32_t dropped = 0;
        std::uint32_t spilled = 0;
        std::uint32_t replayed = 0;
        std::size_t markerIndex = 0;
    };
    std::map<unsigned, Book> books;
    for (std::size_t i = 0; i < events.size(); ++i) {
        const trace::TraceEvent &ev = events[i];
        Book &book = books[ev.stream];
        if (!live::isLiveAccountingToken(ev.token)) {
            ++book.delivered;
            continue;
        }
        book.markerIndex = i;
        if (ev.token == live::evLiveProduced) {
            ++book.producedMarkers;
            book.produced = ev.param;
        } else if (ev.token == live::evLiveDropped) {
            ++book.droppedMarkers;
            book.dropped = ev.param;
        } else if (ev.token == live::evLiveSpilled) {
            ++book.spilledMarkers;
            book.spilled = ev.param;
        } else if (ev.token == live::evLiveReplayed) {
            book.replayed = ev.param;
        } else {
            report(out, *this, i,
                   sim::strprintf("unknown live accounting token "
                                  "0x%04x",
                                  static_cast<unsigned>(ev.token)));
        }
    }
    for (const auto &kv : books) {
        const Book &book = kv.second;
        if (book.replayed > book.delivered) {
            report(out, *this, book.markerIndex,
                   sim::strprintf(
                       "stream %u declares %llu replayed events but "
                       "only %llu were delivered",
                       kv.first,
                       static_cast<unsigned long long>(book.replayed),
                       static_cast<unsigned long long>(
                           book.delivered)));
        }
        if (book.producedMarkers == 0 && book.droppedMarkers == 0 &&
            book.spilledMarkers == 0)
            continue; // lossless stream: no books to balance
        if (book.producedMarkers > 1) {
            report(out, *this, book.markerIndex,
                   sim::strprintf("stream %u carries %llu produced "
                                  "markers (expected exactly one)",
                                  kv.first,
                                  static_cast<unsigned long long>(
                                      book.producedMarkers)));
            continue;
        }
        if (book.droppedMarkers > 1) {
            report(out, *this, book.markerIndex,
                   sim::strprintf("stream %u carries %llu dropped "
                                  "markers (expected at most one)",
                                  kv.first,
                                  static_cast<unsigned long long>(
                                      book.droppedMarkers)));
            continue;
        }
        if (book.spilledMarkers > 1) {
            report(out, *this, book.markerIndex,
                   sim::strprintf("stream %u carries %llu spilled "
                                  "markers (expected at most one)",
                                  kv.first,
                                  static_cast<unsigned long long>(
                                      book.spilledMarkers)));
            continue;
        }
        if (book.producedMarkers == 0) {
            report(out, *this, book.markerIndex,
                   sim::strprintf("stream %u declares drops without "
                                  "a produced marker",
                                  kv.first));
            continue;
        }
        // The marker params saturate at 32 bits; a saturated count
        // cannot be balanced exactly and is accepted as-is.
        if (book.produced == 0xffffffffu)
            continue;
        if (book.delivered + book.dropped + book.spilled !=
            book.produced) {
            report(out, *this, book.markerIndex,
                   sim::strprintf(
                       "stream %u books do not balance: %llu "
                       "delivered + %llu dropped + %llu spilled != "
                       "%llu produced",
                       kv.first,
                       static_cast<unsigned long long>(
                           book.delivered),
                       static_cast<unsigned long long>(book.dropped),
                       static_cast<unsigned long long>(book.spilled),
                       static_cast<unsigned long long>(
                           book.produced)));
        }
    }
}

// ---------------------------------------------------------------------
// TraceValidator
// ---------------------------------------------------------------------

TraceValidator
TraceValidator::standard()
{
    TraceValidator v;
    v.addRule(std::make_unique<StreamMonotonicRule>());
    v.addRule(std::make_unique<MergeOrderRule>());
    v.addRule(std::make_unique<ProtocolCausalityRule>());
    v.addRule(std::make_unique<ConservationRule>());
    v.addRule(std::make_unique<LwpStateRule>());
    v.addRule(std::make_unique<LiveAccountingRule>());
    return v;
}

TraceValidator
TraceValidator::forRayTracer(ConservationExpectations expect)
{
    TraceValidator v;
    v.addRule(std::make_unique<StreamMonotonicRule>());
    v.addRule(std::make_unique<MergeOrderRule>());
    v.addRule(std::make_unique<ProtocolCausalityRule>());
    v.addRule(std::make_unique<ConservationRule>(expect));
    v.addRule(std::make_unique<LwpStateRule>());
    v.addRule(std::make_unique<TokenDictionaryRule>(
        par::rayTracerDictionary()));
    v.addRule(std::make_unique<ActivitySanityRule>(
        par::rayTracerDictionary()));
    return v;
}

TraceValidator
TraceValidator::forFaultRun(faults::FaultStats expect_faults,
                            std::optional<std::uint64_t> expected_pixels)
{
    TraceValidator v;
    v.addRule(std::make_unique<StreamMonotonicRule>());
    v.addRule(std::make_unique<MergeOrderRule>());
    v.addRule(std::make_unique<ProtocolCausalityRule>(
        /*allow_retries=*/true));
    v.addRule(std::make_unique<TokenDictionaryRule>(
        par::rayTracerDictionary()));
    v.addRule(std::make_unique<ActivitySanityRule>(
        par::rayTracerDictionary()));
    v.addRule(std::make_unique<FaultObservationRule>(expect_faults));
    v.addRule(std::make_unique<RecoveryConsistencyRule>());
    v.addRule(std::make_unique<JobCoverageRule>(expected_pixels));
    return v;
}

std::vector<Violation>
TraceValidator::validate(
    const std::vector<trace::TraceEvent> &events) const
{
    std::vector<Violation> all;
    for (const auto &rule : rules) {
        std::vector<Violation> found;
        rule->check(events, found);
        if (found.size() > maxViolationsPerRule) {
            const std::size_t dropped =
                found.size() - maxViolationsPerRule;
            found.resize(maxViolationsPerRule);
            found.push_back(Violation{
                rule->name(), events.size(),
                sim::strprintf("(%zu further violations suppressed)",
                               dropped)});
        }
        all.insert(all.end(), found.begin(), found.end());
    }
    return all;
}

} // namespace validate
} // namespace supmon
