/**
 * @file
 * IncrementalEngine crosschecks against the batch query pipeline:
 * finish() is always bit-identical to runQuery() on the same stream,
 * fixed-window count partials form an exact prefix of the final
 * table, fixed-window utilization partials reappear verbatim in it,
 * and the finish-only shapes (sliding windows, states, latency, rtt)
 * stream nothing early but still agree at the end. Every query is
 * pushed in batches of 1, 7 and 512 events, which must preview the
 * same row groups in the same order.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/engine.hh"
#include "query/incremental.hh"
#include "validate/scenarios.hh"

using namespace supmon;
using trace::TraceEvent;

namespace
{

constexpr std::uint16_t tokWork = 1;
constexpr std::uint16_t tokIdle = 2;
constexpr std::uint16_t tokSend = 3;

trace::EventDictionary
testDictionary()
{
    trace::EventDictionary dict;
    dict.defineBegin(tokWork, "Work Begin", "WORK");
    dict.defineBegin(tokIdle, "Idle Begin", "IDLE");
    dict.definePoint(tokSend, "Job Send");
    dict.nameStream(0, "SERVANT 0");
    dict.nameStream(1, "SERVANT 1");
    return dict;
}

TraceEvent
ev(sim::Tick ts, std::uint16_t token, unsigned stream)
{
    TraceEvent e;
    e.timestamp = ts;
    e.token = token;
    e.stream = stream;
    return e;
}

/** A deterministic two-servant trace alternating work/idle phases
 *  with point events sprinkled at varying rates per window. */
std::vector<TraceEvent>
syntheticTrace()
{
    std::vector<TraceEvent> events;
    sim::Tick ts = sim::microseconds(50);
    for (int i = 0; i < 400; ++i) {
        const unsigned stream = static_cast<unsigned>(i % 2);
        events.push_back(
            ev(ts, i % 3 == 0 ? tokIdle : tokWork, stream));
        // Bursty point events: none in some windows, many in others.
        if ((i / 7) % 3 != 2)
            for (int k = 0; k <= i % 4; ++k)
                events.push_back(ev(
                    ts + sim::microseconds(static_cast<unsigned>(k)),
                    tokSend, stream));
        // Irregular spacing, including multi-window gaps.
        ts += sim::microseconds(i % 11 == 0 ? 2300 : 140);
    }
    return events;
}

query::Query
mustParse(const std::string &text)
{
    const auto res = query::parseQuery(text);
    EXPECT_TRUE(res.ok) << text << ": " << res.error;
    return res.query;
}

std::string
rowsCsv(const query::Table &table)
{
    // Strip the header line: partial tables repeat it.
    const std::string csv = table.toCsv();
    const std::size_t eol = csv.find('\n');
    return eol == std::string::npos ? std::string()
                                    : csv.substr(eol + 1);
}

/** Concatenate previewed row groups. */
std::string
joined(const std::vector<std::string> &groups)
{
    std::string out;
    for (const std::string &g : groups)
        out += g;
    return out;
}

/** Push @p queryText's events through an IncrementalEngine in
 *  batches of 1, 7 and 512; EXPECT every batch size to preview the
 *  same row groups (CSV rows, no header) and to finish with the
 *  batch table. Returns the final table; @p groups receives the
 *  previewed groups. */
query::Table
crosscheck(const std::vector<TraceEvent> &events,
           const trace::EventDictionary &dict,
           const std::string &queryText,
           std::vector<std::string> &groups, bool expectLive)
{
    const query::Query parsed = mustParse(queryText);
    const query::Table batch = query::runQuery(events, dict, parsed);
    for (const std::size_t size : {1u, 7u, 512u}) {
        std::vector<std::string> emitted;
        query::IncrementalEngine inc(
            parsed, dict, [&emitted](const query::Table &rows) {
                emitted.push_back(rowsCsv(rows));
            });
        EXPECT_EQ(inc.streamsLive(), expectLive) << queryText;
        for (std::size_t at = 0; at < events.size(); at += size) {
            if (size == 1)
                inc.onEvent(events[at]);
            else
                inc.onBatch(events.data() + at,
                            std::min(size, events.size() - at));
        }
        EXPECT_EQ(inc.finish().toCsv(), batch.toCsv())
            << queryText << ", batches of " << size;
        if (size == 1)
            groups = emitted;
        else
            EXPECT_EQ(emitted, groups)
                << queryText << ", batches of " << size;
    }
    return batch;
}

} // namespace

TEST(IncrementalEngine, CountPartialsAreAPrefixOfTheFinalTable)
{
    const auto dict = testDictionary();
    const auto events = syntheticTrace();
    std::vector<std::string> groups;
    const query::Table final_table = crosscheck(
        events, dict, "window 1ms | count", groups, true);

    const std::string partials = joined(groups);
    const std::string finalRows = rowsCsv(final_table);
    EXPECT_FALSE(partials.empty());
    ASSERT_LE(partials.size(), finalRows.size());
    EXPECT_EQ(partials, finalRows.substr(0, partials.size()))
        << "partials are not a prefix of the final table";
}

TEST(IncrementalEngine, FilteredCountStreamsTheSamePrefix)
{
    const auto dict = testDictionary();
    const auto events = syntheticTrace();
    std::vector<std::string> groups;
    const query::Table final_table = crosscheck(
        events, dict,
        "filter stream=servant* token=evJobSend | window 2ms | count",
        groups, true);

    const std::string partials = joined(groups);
    const std::string finalRows = rowsCsv(final_table);
    EXPECT_FALSE(partials.empty());
    EXPECT_EQ(partials, finalRows.substr(0, partials.size()));
}

TEST(IncrementalEngine, UtilizationPartialsReappearInTheFinalTable)
{
    const auto dict = testDictionary();
    const auto events = syntheticTrace();

    std::vector<std::string> groups;
    const query::Table final_table = crosscheck(
        events, dict, "window 2ms | utilization state=WORK", groups,
        true);
    std::vector<std::string> emittedLines;
    const std::string partials = joined(groups);
    for (std::size_t start = 0; start < partials.size();) {
        const std::size_t eol = partials.find('\n', start);
        emittedLines.push_back(partials.substr(start, eol - start));
        start = eol == std::string::npos ? partials.size() : eol + 1;
    }

    // Every emitted row must appear verbatim in the final table.
    EXPECT_FALSE(emittedLines.empty());
    const std::string finalCsv = final_table.toCsv();
    for (const std::string &line : emittedLines)
        EXPECT_NE(finalCsv.find(line), std::string::npos)
            << "emitted row missing from final table: " << line;
}

TEST(IncrementalEngine, FinishOnlyShapesMatchBatchExactly)
{
    const auto dict = testDictionary();
    const auto events = syntheticTrace();
    const char *queries[] = {
        "count",
        "window 10ms slide 2ms | count",
        "states",
        "utilization state=WORK",
        "latency bins=4 max=5ms",
        "rtt begin=evJobSend end=evWorkBegin",
    };
    for (const char *text : queries) {
        std::vector<std::string> groups;
        crosscheck(events, dict, text, groups, false);
        EXPECT_TRUE(groups.empty()) << text;
    }
}

TEST(IncrementalEngine, GoldenScenarioStreamsMatchBatch)
{
    // The real thing: a canonical ray tracer run's merged trace,
    // streamed event-by-event, must reproduce the batch tables.
    const auto *scenario = validate::findScenario("fig07-mailbox");
    ASSERT_NE(scenario, nullptr);
    const auto result = validate::runScenario(*scenario);
    ASSERT_TRUE(result.completed);

    {
        std::vector<std::string> groups;
        const query::Table final_table =
            crosscheck(result.events, result.dictionary,
                       "window 1ms | count", groups, true);
        const std::string partials = joined(groups);
        const std::string finalRows = rowsCsv(final_table);
        EXPECT_FALSE(partials.empty());
        EXPECT_EQ(partials, finalRows.substr(0, partials.size()));
    }
    {
        std::vector<std::string> groups;
        crosscheck(result.events, result.dictionary,
                   "filter stream=servant* | window 1ms | "
                   "utilization state=WORK",
                   groups, true);
    }
}

TEST(IncrementalEngine, EmptyWindowsAcrossAHugeGapAreSkipped)
{
    // WORK closes before a 10^12-tick silence. With 1-tick windows
    // only the windows around the two WORK stays have rows; the
    // preview must jump the empty windows, not walk them.
    const auto dict = testDictionary();
    const sim::Tick gap = 1000000000000ull;
    const std::vector<TraceEvent> events = {
        ev(100, tokWork, 0),       ev(103, tokIdle, 0),
        ev(105, tokSend, 0),       ev(gap + 105, tokWork, 0),
        ev(gap + 107, tokIdle, 0), ev(gap + 110, tokSend, 0)};
    std::vector<std::string> groups;
    const query::Table final_table = crosscheck(
        events, dict, "window 1 | utilization state=WORK", groups, true);

    // One group per WORK tick: [100, 103) and [gap+105, gap+107).
    ASSERT_EQ(groups.size(), 5u);
    EXPECT_EQ(joined(groups), rowsCsv(final_table));
}
