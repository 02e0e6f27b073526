/**
 * @file
 * Unit tests for the trace-invariant rules: each rule accepts legal
 * traces, rejects the specific corruption it guards against, and
 * names itself in the diagnostic. The acceptance case for the whole
 * subsystem - a deliberately corrupted (timestamp-swapped) scenario
 * trace is rejected with a rule-named diagnostic - lives here too.
 */

#include <gtest/gtest.h>

#include <memory>

#include "live/tokens.hh"
#include "partracer/events.hh"
#include "sim/logging.hh"
#include "suprenum/kernel_events.hh"
#include "suprenum/machine.hh"
#include "validate/rules.hh"
#include "validate/scenarios.hh"

using namespace supmon;
using trace::TraceEvent;
using validate::TraceValidator;
using validate::Violation;

namespace
{

TraceEvent
ev(sim::Tick ts, std::uint16_t token, std::uint32_t param,
   unsigned stream)
{
    TraceEvent e;
    e.timestamp = ts;
    e.token = token;
    e.param = param;
    e.stream = stream;
    return e;
}

/** All violations produced by a single rule on a trace. */
template <typename RuleT, typename... Args>
std::vector<Violation>
runRule(const std::vector<TraceEvent> &events, Args &&...args)
{
    RuleT rule(std::forward<Args>(args)...);
    std::vector<Violation> out;
    rule.check(events, out);
    return out;
}

bool
mentionsRule(const std::vector<Violation> &violations,
             const std::string &rule)
{
    for (const auto &v : violations) {
        if (v.rule == rule)
            return true;
    }
    return false;
}

} // namespace

// ---------------------------------------------------------------------
// ordering rules
// ---------------------------------------------------------------------

TEST(StreamMonotonicRule, AcceptsPerStreamOrder)
{
    // Globally interleaved but monotonic per stream.
    const std::vector<TraceEvent> events = {
        ev(100, 1, 0, 0), ev(50, 1, 0, 1), ev(200, 1, 0, 0),
        ev(60, 1, 0, 1)};
    EXPECT_TRUE(
        runRule<validate::StreamMonotonicRule>(events).empty());
}

TEST(StreamMonotonicRule, RejectsBackwardsTimestamp)
{
    const std::vector<TraceEvent> events = {
        ev(100, 1, 0, 0), ev(200, 1, 0, 0), ev(150, 1, 0, 0)};
    const auto violations =
        runRule<validate::StreamMonotonicRule>(events);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "stream-monotonic");
    EXPECT_EQ(violations[0].eventIndex, 2u);
}

TEST(MergeOrderRule, RejectsGlobalDisorderAcrossStreams)
{
    // Each stream is monotonic, but the merge interleaving is broken.
    const std::vector<TraceEvent> events = {
        ev(100, 1, 0, 0), ev(50, 1, 0, 1), ev(150, 1, 0, 0)};
    EXPECT_TRUE(
        runRule<validate::StreamMonotonicRule>(events).empty());
    const auto violations = runRule<validate::MergeOrderRule>(events);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_EQ(violations[0].rule, "merge-order");
}

// ---------------------------------------------------------------------
// protocol causality
// ---------------------------------------------------------------------

namespace
{

/** A minimal legal protocol chain for one job. */
std::vector<TraceEvent>
protocolChain(std::uint32_t job, sim::Tick base)
{
    return {ev(base, par::evJobSend, job, 0),
            ev(base + 10, par::evWorkBegin, job, 9),
            ev(base + 20, par::evSendResultsBegin, job, 9),
            ev(base + 30, par::evReceiveResultsBegin, job, 0)};
}

} // namespace

TEST(ProtocolCausalityRule, AcceptsLegalChains)
{
    std::vector<TraceEvent> events = protocolChain(1, 100);
    const auto more = protocolChain(2, 200);
    events.insert(events.end(), more.begin(), more.end());
    EXPECT_TRUE(
        runRule<validate::ProtocolCausalityRule>(events).empty());
}

TEST(ProtocolCausalityRule, RejectsWorkBeforeSend)
{
    const std::vector<TraceEvent> events = {
        ev(100, par::evWorkBegin, 7, 9),
        ev(200, par::evJobSend, 7, 0)};
    const auto violations =
        runRule<validate::ProtocolCausalityRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, "protocol-causality");
    EXPECT_NE(violations[0].message.find("precedes its Job Send"),
              std::string::npos);
}

TEST(ProtocolCausalityRule, RejectsWorkOnJobNobodySent)
{
    std::vector<TraceEvent> events = protocolChain(1, 100);
    events.push_back(ev(400, par::evWorkBegin, 99, 9));
    const auto violations =
        runRule<validate::ProtocolCausalityRule>(events);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].message.find("never sent"),
              std::string::npos);
}

TEST(ProtocolCausalityRule, RejectsUnworkedResult)
{
    std::vector<TraceEvent> events = protocolChain(1, 100);
    events.push_back(ev(500, par::evReceiveResultsBegin, 42, 0));
    const auto violations =
        runRule<validate::ProtocolCausalityRule>(events);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].message.find("never worked"),
              std::string::npos);
}

TEST(ProtocolCausalityRule, RejectsDuplicatedWork)
{
    std::vector<TraceEvent> events = protocolChain(1, 100);
    events.push_back(ev(400, par::evWorkBegin, 1, 17));
    const auto violations =
        runRule<validate::ProtocolCausalityRule>(events);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].message.find("worked twice"),
              std::string::npos);
}

TEST(ProtocolCausalityRule, IgnoresTracesWithoutProtocolTokens)
{
    const std::vector<TraceEvent> events = {ev(1, 0x0999, 0, 0),
                                            ev(2, 0x0999, 1, 1)};
    EXPECT_TRUE(
        runRule<validate::ProtocolCausalityRule>(events).empty());
}

// ---------------------------------------------------------------------
// conservation
// ---------------------------------------------------------------------

namespace
{

std::vector<TraceEvent>
balancedRun()
{
    std::vector<TraceEvent> events;
    events.push_back(ev(10, par::evMasterStart, 0, 0));
    events.push_back(ev(11, par::evServantStart, 0, 9));
    for (std::uint32_t job = 1; job <= 3; ++job) {
        const auto chain = protocolChain(job, 100 * job);
        events.insert(events.end(), chain.begin(), chain.end());
    }
    events.push_back(ev(900, par::evWritePixelsBegin, 3, 0));
    events.push_back(ev(910, par::evWritePixelsEnd, 3, 0));
    events.push_back(ev(950, par::evServantDone, 0, 9));
    events.push_back(ev(999, par::evMasterDone, 0, 0));
    return events;
}

} // namespace

TEST(ConservationRule, AcceptsBalancedRun)
{
    EXPECT_TRUE(
        runRule<validate::ConservationRule>(balancedRun()).empty());
}

TEST(ConservationRule, RejectsLostWork)
{
    auto events = balancedRun();
    // Drop one Work Begin: a sent job was never worked.
    std::erase_if(events, [](const TraceEvent &e) {
        return e.token == par::evWorkBegin && e.param == 2;
    });
    const auto violations =
        runRule<validate::ConservationRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, "conservation");
}

TEST(ConservationRule, RejectsUnfinishedServant)
{
    auto events = balancedRun();
    std::erase_if(events, [](const TraceEvent &e) {
        return e.token == par::evServantDone;
    });
    const auto violations =
        runRule<validate::ConservationRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].message.find("servants started"),
              std::string::npos);
}

TEST(ConservationRule, ChecksGroundTruthExpectations)
{
    validate::ConservationExpectations expect;
    expect.jobsSent = 5; // trace works only 3
    expect.pixelsWritten = 3;
    const auto violations =
        runRule<validate::ConservationRule>(balancedRun(), expect);
    ASSERT_EQ(violations.size(), 1u);
    EXPECT_NE(violations[0].message.find("ground truth sent"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// token dictionary
// ---------------------------------------------------------------------

TEST(TokenDictionaryRule, FlagsUnknownTokensOnce)
{
    const std::vector<TraceEvent> events = {
        ev(1, par::evWorkBegin, 1, 0), ev(2, 0x0f0f, 0, 0),
        ev(3, 0x0f0f, 1, 1)};
    const auto violations = runRule<validate::TokenDictionaryRule>(
        events, par::rayTracerDictionary());
    ASSERT_EQ(violations.size(), 1u); // deduplicated by token
    EXPECT_EQ(violations[0].rule, "token-dictionary");
    EXPECT_NE(violations[0].message.find("0x0f0f"),
              std::string::npos);
}

// ---------------------------------------------------------------------
// LWP state machine
// ---------------------------------------------------------------------

namespace
{

std::uint32_t
blockParam(std::uint32_t lwp, suprenum::BlockReason reason)
{
    return (lwp << 8) | static_cast<std::uint32_t>(reason);
}

} // namespace

TEST(LwpStateRule, AcceptsLegalLifeCycle)
{
    using namespace suprenum;
    const std::vector<TraceEvent> events = {
        ev(1, evKernReady, 1, 0),
        ev(2, evKernDispatch, 1, 0),
        ev(3, evKernSend, 1, 0),
        ev(4, evKernBlock, blockParam(1, BlockReason::Rendezvous), 0),
        ev(5, evKernReady, 2, 0),
        ev(6, evKernDispatch, 2, 0),
        ev(7, evKernYield, 2, 0),
        ev(8, evKernReady, 1, 0),
        ev(9, evKernDispatch, 1, 0),
        ev(10, evKernExit, 1, 0),
        ev(11, evKernDispatch, 2, 0),
        ev(12, evKernExit, 2, 0)};
    const auto violations = runRule<validate::LwpStateRule>(events);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

TEST(LwpStateRule, RejectsPreemptiveDispatch)
{
    using namespace suprenum;
    // Process 2 dispatched while process 1 still runs: the SUPRENUM
    // scheduler has no time slicing, so this can never happen.
    const std::vector<TraceEvent> events = {
        ev(1, evKernReady, 1, 0), ev(2, evKernDispatch, 1, 0),
        ev(3, evKernReady, 2, 0), ev(4, evKernDispatch, 2, 0)};
    const auto violations = runRule<validate::LwpStateRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_EQ(violations[0].rule, "lwp-state-machine");
    EXPECT_NE(violations[0].message.find("no time slicing"),
              std::string::npos);
}

TEST(LwpStateRule, RejectsDispatchWithoutReady)
{
    const std::vector<TraceEvent> events = {
        ev(1, suprenum::evKernDispatch, 1, 0)};
    const auto violations = runRule<validate::LwpStateRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].message.find("not ready"),
              std::string::npos);
}

TEST(LwpStateRule, RejectsBlockOfNonRunningProcess)
{
    using namespace suprenum;
    const std::vector<TraceEvent> events = {
        ev(1, evKernReady, 1, 0), ev(2, evKernDispatch, 1, 0),
        ev(3, evKernBlock, blockParam(2, BlockReason::Receive), 0)};
    const auto violations = runRule<validate::LwpStateRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].message.find("not the running"),
              std::string::npos);
}

TEST(LwpStateRule, AcceptsRealKernelProbeTrace)
{
    // Instrument a real node kernel and validate what it emits: the
    // rule must agree with the scheduler's actual behaviour.
    sim::QuietScope quiet;
    sim::Simulation simul;
    suprenum::MachineParams params;
    params.numClusters = 1;
    params.nodesPerCluster = 4;
    suprenum::Machine machine(simul, params);

    std::vector<TraceEvent> kernel_events;
    machine.nodeByIndex(0).setKernelProbe(
        [&](std::uint16_t token, std::uint32_t param) {
            TraceEvent e;
            e.timestamp = simul.now();
            e.token = token;
            e.param = param;
            e.stream = 0;
            kernel_events.push_back(e);
        },
        0);

    machine.nodeByIndex(0).spawn(
        "peer", [&](suprenum::ProcessEnv env) -> sim::Task {
            for (int i = 0; i < 5; ++i) {
                co_await env.compute(sim::milliseconds(1));
                co_await env.yield();
            }
            co_await env.sleep(sim::milliseconds(3));
        });
    const suprenum::Pid init = machine.nodeByIndex(0).spawn(
        "main", [&](suprenum::ProcessEnv env) -> sim::Task {
            for (int i = 0; i < 5; ++i) {
                co_await env.compute(sim::milliseconds(2));
                co_await env.yield();
            }
            co_await env.sleep(sim::milliseconds(10));
        });
    machine.setInitialProcess(init);
    ASSERT_TRUE(machine.runToCompletion(sim::seconds(5)));

    ASSERT_GT(kernel_events.size(), 20u);
    const auto violations =
        runRule<validate::LwpStateRule>(kernel_events);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

// ---------------------------------------------------------------------
// activity sanity
// ---------------------------------------------------------------------

TEST(ActivitySanityRule, AcceptsWellFormedActivity)
{
    const std::vector<TraceEvent> events = {
        ev(100, par::evWaitForJobBegin, 0, 9),
        ev(200, par::evWorkBegin, 1, 9),
        ev(300, par::evWaitForJobBegin, 0, 9)};
    const auto violations = runRule<validate::ActivitySanityRule>(
        events, par::rayTracerDictionary());
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

TEST(ActivitySanityRule, RejectsIntervalBeforeTheFirstEvent)
{
    // The trace window opens at the first event (200), but stream 7
    // entered WORK at 100: that interval leaves the window, and the
    // stream's state time exceeds the window as a consequence.
    const std::vector<TraceEvent> events = {
        ev(200, par::evWaitForJobBegin, 0, 9),
        ev(100, par::evWorkBegin, 1, 7),
        ev(300, par::evWaitForJobBegin, 0, 7),
        ev(400, par::evWaitForJobBegin, 0, 9)};
    const auto violations = runRule<validate::ActivitySanityRule>(
        events, par::rayTracerDictionary());
    ASSERT_EQ(violations.size(), 2u)
        << validate::formatViolations(violations);
    for (const auto &v : violations) {
        EXPECT_EQ(v.rule, "activity-sanity");
        EXPECT_EQ(v.eventIndex, events.size());
    }
    EXPECT_EQ(violations[0].message,
              "stream 7 state 'WORK' [100, 300) leaves the trace window");
    EXPECT_EQ(violations[1].message,
              "stream 7 accumulates 300 ns of state time in a 200 ns "
              "window (utilization > 1)");
}

TEST(ActivitySanityRule, RejectsBusyTimeBeyondTheWindow)
{
    // Stream 7's clock runs backwards (500 -> 200): its two WORK
    // intervals overlap, each inside the window, but together they
    // hold more state time than the window has.
    const std::vector<TraceEvent> events = {
        ev(100, par::evWorkBegin, 1, 7),
        ev(500, par::evWaitForJobBegin, 0, 7),
        ev(200, par::evWorkBegin, 2, 7),
        ev(600, par::evWaitForJobBegin, 0, 7)};
    const auto violations = runRule<validate::ActivitySanityRule>(
        events, par::rayTracerDictionary());
    ASSERT_EQ(violations.size(), 1u)
        << validate::formatViolations(violations);
    EXPECT_EQ(violations[0].rule, "activity-sanity");
    EXPECT_EQ(violations[0].eventIndex, events.size());
    EXPECT_EQ(violations[0].message,
              "stream 7 accumulates 800 ns of state time in a 500 ns "
              "window (utilization > 1)");
}

TEST(ActivitySanityRule, CappedReportKeepsTheEarliestIntervals)
{
    // Streams 100..1 enter WORK at 900 + s % 10, before the window
    // opens at 950, and leave it at 1000 + s: 100 intervals leave the
    // window, then 100 streams exceed it. The report orders the
    // intervals by (begin, stream), so the validator's cap keeps the
    // streams with the smallest s % 10 first.
    std::vector<TraceEvent> events = {
        ev(950, par::evWaitForJobBegin, 0, 0)};
    for (unsigned s = 100; s >= 1; --s)
        events.push_back(ev(900 + s % 10, par::evWorkBegin, s, s));
    for (unsigned s = 1; s <= 100; ++s)
        events.push_back(ev(1000 + s, par::evWaitForJobBegin, 0, s));

    TraceValidator v;
    v.addRule(std::make_unique<validate::ActivitySanityRule>(
        par::rayTracerDictionary()));
    const auto violations = v.validate(events);

    std::vector<std::string> expected;
    for (unsigned begin = 900; begin < 910; ++begin) {
        for (unsigned s = 1; s <= 100; ++s) {
            if (900 + s % 10 != begin)
                continue;
            expected.push_back(sim::strprintf(
                "stream %u state 'WORK' [%u, %u) leaves the trace "
                "window",
                s, begin, 1000 + s));
        }
    }
    expected.resize(TraceValidator::maxViolationsPerRule);
    expected.push_back("(136 further violations suppressed)");

    ASSERT_EQ(violations.size(), expected.size())
        << validate::formatViolations(violations);
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(violations[i].rule, "activity-sanity");
        EXPECT_EQ(violations[i].eventIndex, events.size());
        EXPECT_EQ(violations[i].message, expected[i]) << "at " << i;
    }
}

// ---------------------------------------------------------------------
// the validator
// ---------------------------------------------------------------------

TEST(TraceValidator, StandardSetAcceptsEmptyTrace)
{
    EXPECT_TRUE(TraceValidator::standard().validate({}).empty());
}

TEST(TraceValidator, CapsPerRuleViolations)
{
    // One stream, timestamps strictly decreasing: every event after
    // the first violates both ordering rules.
    std::vector<TraceEvent> events;
    for (int i = 0; i < 200; ++i)
        events.push_back(ev(1000 - i, 1, 0, 0));
    TraceValidator v;
    v.addRule(std::make_unique<validate::MergeOrderRule>());
    const auto violations = v.validate(events);
    EXPECT_EQ(violations.size(),
              TraceValidator::maxViolationsPerRule + 1);
    EXPECT_NE(violations.back().message.find("suppressed"),
              std::string::npos);
}

TEST(TraceValidator, CorruptedScenarioTraceIsRejected)
{
    // The acceptance case: harvest a real scenario trace, swap two
    // timestamps, and the validator must reject it with a rule-named
    // diagnostic.
    const auto *scenario = validate::findScenario("fig07-mailbox");
    ASSERT_NE(scenario, nullptr);
    auto result = validate::runScenario(*scenario);
    ASSERT_TRUE(result.completed);
    EXPECT_TRUE(validate::validateRun(result).empty());

    // Find two adjacent events with distinct timestamps and swap.
    std::size_t pos = 0;
    for (std::size_t i = 1; i < result.events.size(); ++i) {
        if (result.events[i].timestamp !=
            result.events[i - 1].timestamp) {
            pos = i;
            break;
        }
    }
    ASSERT_GT(pos, 0u);
    std::swap(result.events[pos - 1].timestamp,
              result.events[pos].timestamp);

    const auto violations = validate::validateRun(result);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(mentionsRule(violations, "merge-order"))
        << validate::formatViolations(violations);
    // The diagnostic names the rule that caught the corruption.
    const std::string report = validate::formatViolations(violations);
    EXPECT_NE(report.find("[merge-order]"), std::string::npos);
}

// ---------------------------------------------------------------------
// LiveAccountingRule
// ---------------------------------------------------------------------

namespace
{

TraceEvent
marker(std::uint16_t token, std::uint32_t count, unsigned stream,
       sim::Tick ts = 10000)
{
    return ev(ts, token, count, stream);
}

} // namespace

TEST(LiveAccountingRule, AcceptsBalancedBooksAndLosslessStreams)
{
    // Stream 1 was shed (3 delivered + 2 dropped == 5 produced);
    // stream 2 is lossless and carries no markers at all.
    const std::vector<TraceEvent> events = {
        ev(100, 0x0101, 0, 1),
        ev(150, 0x0101, 0, 2),
        ev(200, 0x0102, 0, 1),
        ev(300, 0x0101, 0, 1),
        marker(live::evLiveProduced, 5, 1),
        marker(live::evLiveDropped, 2, 1),
    };
    const auto violations =
        runRule<validate::LiveAccountingRule>(events);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

TEST(LiveAccountingRule, RejectsBooksThatDoNotBalance)
{
    const std::vector<TraceEvent> events = {
        ev(100, 0x0101, 0, 1),
        ev(200, 0x0101, 0, 1),
        marker(live::evLiveProduced, 5, 1),
        marker(live::evLiveDropped, 1, 1),
    };
    const auto violations =
        runRule<validate::LiveAccountingRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(mentionsRule(violations, "live-accounting"));
    EXPECT_NE(violations[0].message.find("do not balance"),
              std::string::npos);
}

TEST(LiveAccountingRule, RejectsDropsWithoutAProducedMarker)
{
    const std::vector<TraceEvent> events = {
        ev(100, 0x0101, 0, 1),
        marker(live::evLiveDropped, 1, 1),
    };
    const auto violations =
        runRule<validate::LiveAccountingRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].message.find("without a produced"),
              std::string::npos);
}

TEST(LiveAccountingRule, RejectsDuplicateMarkers)
{
    const std::vector<TraceEvent> events = {
        ev(100, 0x0101, 0, 1),
        marker(live::evLiveProduced, 1, 1),
        marker(live::evLiveProduced, 1, 1),
    };
    auto violations = runRule<validate::LiveAccountingRule>(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].message.find("produced markers"),
              std::string::npos);

    const std::vector<TraceEvent> doubleDrop = {
        ev(100, 0x0101, 0, 1),
        marker(live::evLiveProduced, 3, 1),
        marker(live::evLiveDropped, 1, 1),
        marker(live::evLiveDropped, 1, 1),
    };
    violations = runRule<validate::LiveAccountingRule>(doubleDrop);
    ASSERT_FALSE(violations.empty());
    EXPECT_NE(violations[0].message.find("dropped markers"),
              std::string::npos);
}

TEST(LiveAccountingRule, AcceptsSaturatedCounters)
{
    // A u32-saturated produced count cannot be balanced exactly; the
    // rule accepts it rather than inventing a violation.
    const std::vector<TraceEvent> events = {
        ev(100, 0x0101, 0, 1),
        marker(live::evLiveProduced, 0xffffffffu, 1),
        marker(live::evLiveDropped, 17, 1),
    };
    const auto violations =
        runRule<validate::LiveAccountingRule>(events);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);
}

TEST(LiveAccountingRule, StandardValidatorChecksTheBooks)
{
    const std::vector<TraceEvent> events = {
        ev(100, 0x0101, 0, 1),
        marker(live::evLiveProduced, 7, 1),
    };
    const auto violations =
        TraceValidator::standard().validate(events);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(mentionsRule(violations, "live-accounting"))
        << validate::formatViolations(violations);
}
