/**
 * @file
 * Rendered-output tests for query::Table. Golden tests pin the exact
 * bytes of the text, CSV and JSON forms of fixed tables (RFC 4180
 * quoting, JSON escapes, printf-style numbers at their edges, short
 * and long rows, alignment and padding). A seeded differential test
 * holds all three writers to the printf reference renderers
 * (reference_render.hh) on random tables, on the tables perfbench's
 * query kinds produce over a golden scenario, and on every partial
 * an IncrementalEngine previews.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "query/engine.hh"
#include "query/incremental.hh"
#include "reference_render.hh"
#include "validate/scenarios.hh"

using namespace supmon;
using query::OutputFormat;
using query::Value;

namespace
{

constexpr OutputFormat allFormats[] = {OutputFormat::Text,
                                       OutputFormat::Csv,
                                       OutputFormat::Json};

const char *
formatName(OutputFormat fmt)
{
    switch (fmt) {
      case OutputFormat::Csv:
        return "csv";
      case OutputFormat::Json:
        return "json";
      case OutputFormat::Text:
        break;
    }
    return "text";
}

/** Quoting and escapes, alignment, a text cell in a numeric column
 *  and a number in a text column, a short and a long row. */
query::Table
mixedTable()
{
    query::Table t;
    t.columns = {"stream", "count", "share", "note"};
    t.addRow({Value::str("SERVANT 0, A"), Value::count(3),
              Value::number(0.5), Value::str("say \"hi\"")});
    t.addRow({Value::str("cr\rlf\n"),
              Value::count(std::numeric_limits<std::uint64_t>::max()),
              Value::number(1e-05), Value::str("back\\slash\ttab")});
    t.addRow({Value::str("ctl\x01\x1f")});
    t.addRow({Value::str("x"), Value::str("-"), Value::number(-0.0),
              Value::count(7), Value::str("extra")});
    return t;
}

/** Reals at the edges of %.6g / %.10g, and the integer extremes. */
query::Table
numbersTable()
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    query::Table t;
    t.columns = {"case", "real", "int"};
    const struct
    {
        const char *name;
        double real;
        std::uint64_t integer;
    } cases[] = {
        {"nan", nan, 0},
        {"-nan", -nan, 1},
        {"inf", inf, 10},
        {"-inf", -inf, 18446744073709551615ull},
        {"zero", 0.0, 42},
        {"-zero", -0.0, 1000000},
        {"1e-05", 1e-05, 9},
        {"1e-04", 1e-04, 99},
        {"third", 1.0 / 3.0, 999},
        {"999999.5", 999999.5, 12345},
        {"1e6", 1e6, 4294967296ull},
        {"big", 123456789.0, 7},
        {"1e21", 1e21, 3},
        {"DBL_MAX", DBL_MAX, 2},
        {"denorm_min", std::numeric_limits<double>::denorm_min(), 5},
    };
    for (const auto &c : cases)
        t.addRow({Value::str(c.name), Value::number(c.real),
                  Value::count(c.integer)});
    return t;
}

query::Table
emptyTable()
{
    query::Table t;
    t.columns = {"stream", "count"};
    return t;
}

} // namespace

TEST(TableRender, MixedTableGoldenBytes)
{
    const query::Table t = mixedTable();
    EXPECT_EQ(t.render(OutputFormat::Text),
              "stream        count                 share  note          \n"
              "SERVANT 0, A                     3    0.5  say \"hi\"      \n"
              "cr\rlf\n"
              "        18446744073709551615  1e-05  back\\slash\ttab\n"
              "ctl\x01\x1f"
              "                                                    \n"
              "x             -                        -0               7\n");
    EXPECT_EQ(t.render(OutputFormat::Csv),
              "stream,count,share,note\n"
              "\"SERVANT 0, A\",3,0.5,\"say \"\"hi\"\"\"\n"
              "\"cr\rlf\n"
              "\",18446744073709551615,1e-05,back\\slash\ttab\n"
              "ctl\x01\x1f,,,\n"
              "x,-,-0,7\n");
    EXPECT_EQ(t.render(OutputFormat::Json),
              "[\n"
              " {\"stream\": \"SERVANT 0, A\", \"count\": 3, "
              "\"share\": 0.5, \"note\": \"say \\\"hi\\\"\"},\n"
              " {\"stream\": \"cr\\rlf\\n\", "
              "\"count\": 18446744073709551615, \"share\": 1e-05, "
              "\"note\": \"back\\\\slash\\ttab\"},\n"
              " {\"stream\": \"ctl\\u0001\\u001f\"},\n"
              " {\"stream\": \"x\", \"count\": \"-\", \"share\": -0, "
              "\"note\": 7}\n"
              "]\n");
}

TEST(TableRender, NumbersGoldenBytes)
{
    const query::Table t = numbersTable();
    EXPECT_EQ(t.render(OutputFormat::Text),
              "case        real          int                 \n"
              "nan                  nan                     0\n"
              "-nan                -nan                     1\n"
              "inf                  inf                    10\n"
              "-inf                -inf  18446744073709551615\n"
              "zero                   0                    42\n"
              "-zero                 -0               1000000\n"
              "1e-05              1e-05                     9\n"
              "1e-04             0.0001                    99\n"
              "third           0.333333                   999\n"
              "999999.5           1e+06                 12345\n"
              "1e6                1e+06            4294967296\n"
              "big          1.23457e+08                     7\n"
              "1e21               1e+21                     3\n"
              "DBL_MAX     1.79769e+308                     2\n"
              "denorm_min  4.94066e-324                     5\n");
    EXPECT_EQ(t.render(OutputFormat::Csv),
              "case,real,int\n"
              "nan,nan,0\n"
              "-nan,-nan,1\n"
              "inf,inf,10\n"
              "-inf,-inf,18446744073709551615\n"
              "zero,0,42\n"
              "-zero,-0,1000000\n"
              "1e-05,1e-05,9\n"
              "1e-04,0.0001,99\n"
              "third,0.3333333333,999\n"
              "999999.5,999999.5,12345\n"
              "1e6,1000000,4294967296\n"
              "big,123456789,7\n"
              "1e21,1e+21,3\n"
              "DBL_MAX,1.797693135e+308,2\n"
              "denorm_min,4.940656458e-324,5\n");
    EXPECT_EQ(t.render(OutputFormat::Json),
              "[\n"
              " {\"case\": \"nan\", \"real\": nan, \"int\": 0},\n"
              " {\"case\": \"-nan\", \"real\": -nan, \"int\": 1},\n"
              " {\"case\": \"inf\", \"real\": inf, \"int\": 10},\n"
              " {\"case\": \"-inf\", \"real\": -inf, "
              "\"int\": 18446744073709551615},\n"
              " {\"case\": \"zero\", \"real\": 0, \"int\": 42},\n"
              " {\"case\": \"-zero\", \"real\": -0, \"int\": 1000000},\n"
              " {\"case\": \"1e-05\", \"real\": 1e-05, \"int\": 9},\n"
              " {\"case\": \"1e-04\", \"real\": 0.0001, \"int\": 99},\n"
              " {\"case\": \"third\", \"real\": 0.3333333333, "
              "\"int\": 999},\n"
              " {\"case\": \"999999.5\", \"real\": 999999.5, "
              "\"int\": 12345},\n"
              " {\"case\": \"1e6\", \"real\": 1000000, "
              "\"int\": 4294967296},\n"
              " {\"case\": \"big\", \"real\": 123456789, \"int\": 7},\n"
              " {\"case\": \"1e21\", \"real\": 1e+21, \"int\": 3},\n"
              " {\"case\": \"DBL_MAX\", \"real\": 1.797693135e+308, "
              "\"int\": 2},\n"
              " {\"case\": \"denorm_min\", \"real\": 4.940656458e-324, "
              "\"int\": 5}\n"
              "]\n");
}

TEST(TableRender, EmptyTableGoldenBytes)
{
    const query::Table t = emptyTable();
    EXPECT_EQ(t.render(OutputFormat::Text), "stream  count\n");
    EXPECT_EQ(t.render(OutputFormat::Csv), "stream,count\n");
    EXPECT_EQ(t.render(OutputFormat::Json), "[\n]\n");
}

namespace
{

/** The line of @p s that holds byte @p pos. */
std::string
lineAt(const std::string &s, std::size_t pos)
{
    // rfind's npos + 1 wraps to 0: the first line.
    const std::size_t begin =
        pos == 0 ? 0 : s.rfind('\n', pos - 1) + 1;
    return s.substr(begin, s.find('\n', begin) - begin);
}

/** Every format of @p t must equal the reference bytes. A mismatch
 *  reports its first differing line: gtest's diff of two whole
 *  outputs is quadratic in their length. */
void
expectReferenceBytes(const query::Table &t, const std::string &what)
{
    for (OutputFormat fmt : allFormats) {
        const std::string got = t.render(fmt);
        const std::string want = test::referenceRender(t, fmt);
        if (got == want)
            continue;
        const std::size_t pos = static_cast<std::size_t>(
            std::mismatch(got.begin(), got.end(), want.begin(),
                          want.end())
                .first -
            got.begin());
        ADD_FAILURE() << what << " (" << formatName(fmt)
                      << "): first difference at byte " << pos
                      << "\n got: " << lineAt(got, pos)
                      << "\nwant: " << lineAt(want, pos);
    }
}

/** Random text over the bytes the writers treat specially (no NUL:
 *  stream and state names cannot hold one). */
std::string
randomText(std::mt19937_64 &rng)
{
    static const char alphabet[] = "abcXYZ019 _.,;\"\\\n\r\t"
                                   "\x01\x08\x1f\x7f\xc3\xa9";
    std::string s(rng() % 18, ' ');
    for (char &c : s)
        c = alphabet[rng() % (sizeof(alphabet) - 1)];
    return s;
}

/** Random reals weighted toward the %.6g / %.10g edges: raw bit
 *  patterns (NaN payloads, subnormals, huge exponents), decimal
 *  values like the folds' millisecond figures, neighbours of powers
 *  of ten and of rounding ties, and the special values. */
double
randomReal(std::mt19937_64 &rng)
{
    static const double specials[] = {
        0.0,
        -0.0,
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        DBL_MAX,
        DBL_MIN,
        std::numeric_limits<double>::denorm_min(),
        999999.5,
        9999999999.5,
        1e21,
        1e-05,
    };
    switch (rng() % 5) {
      case 0: {
        const std::uint64_t bits = rng();
        double d;
        std::memcpy(&d, &bits, sizeof d);
        return d;
      }
      case 1:
        return static_cast<double>(rng() % 100000000) /
               std::pow(10.0, static_cast<double>(rng() % 12));
      case 2: {
        const double p = std::pow(
            10.0, static_cast<double>(static_cast<int>(rng() % 60) - 30));
        const double towards = rng() % 2 ? 0.0 : DBL_MAX;
        return std::nextafter(p, towards);
      }
      case 3: {
        // k.5 * 10^e: ties at six and ten significant digits.
        const double k = static_cast<double>(rng() % 20000000) + 0.5;
        return k * std::pow(10.0, static_cast<double>(
                                      static_cast<int>(rng() % 20) - 14));
      }
      default:
        break;
    }
    return specials[rng() % std::size(specials)];
}

Value
randomValue(std::mt19937_64 &rng)
{
    switch (rng() % 3) {
      case 0:
        return Value::str(randomText(rng));
      case 1:
        return Value::count(rng() % 2 ? rng() : rng() % 1000);
      default:
        break;
    }
    return Value::number(randomReal(rng));
}

const char *const scenarioQueries[] = {
    // perfbench's query kinds (the follow kind runs the window query)
    "filter token=evWork* | count",
    "states",
    "filter stream=servant* | utilization",
    "filter stream=servant?1* | window 10s | utilization",
    "latency",
    "rtt begin=evJobSend end=evWorkBegin",
    // windows sized to the scenario, so they yield many rows
    "window 1ms | count",
    "filter stream=servant* | window 1ms | utilization",
    "window 2ms slide 1ms | utilization state=WORK",
};

query::Query
mustParse(const std::string &text)
{
    const auto res = query::parseQuery(text);
    EXPECT_TRUE(res.ok) << text << ": " << res.error;
    return res.query;
}

} // namespace

TEST(TableRender, RandomTablesMatchReference)
{
    std::mt19937_64 rng(20261017);
    for (int n = 0; n < 3000; ++n) {
        query::Table t;
        t.columns.resize(rng() % 7);
        for (std::string &name : t.columns)
            name = randomText(rng);
        const std::size_t rows = rng() % 12;
        for (std::size_t r = 0; r < rows; ++r) {
            std::vector<Value> row(rng() % (t.columns.size() + 3));
            for (Value &v : row)
                v = randomValue(rng);
            t.addRow(std::move(row));
        }
        expectReferenceBytes(t, "random table " + std::to_string(n));
        if (HasFailure())
            return;
    }
}

TEST(TableRender, RandomRealsMatchPrintf)
{
    std::mt19937_64 rng(7);
    query::Table t;
    t.columns = {"x"};
    for (int n = 0; n < 100000; ++n)
        t.addRow({Value::number(randomReal(rng))});
    expectReferenceBytes(t, "random reals");
}

TEST(TableRender, ScenarioQueryTablesMatchReference)
{
    const auto *scenario = validate::findScenario("fig09-agents");
    ASSERT_NE(scenario, nullptr);
    const par::RunResult run = validate::runScenario(*scenario);
    ASSERT_TRUE(run.completed);
    for (const char *text : scenarioQueries) {
        const query::Table t =
            query::runQuery(run.events, run.dictionary, mustParse(text));
        EXPECT_FALSE(t.rows.empty()) << text;
        expectReferenceBytes(t, text);
    }
}

TEST(TableRender, IncrementalPartialsMatchReference)
{
    const auto *scenario = validate::findScenario("fig09-agents");
    ASSERT_NE(scenario, nullptr);
    const par::RunResult run = validate::runScenario(*scenario);
    ASSERT_TRUE(run.completed);
    std::size_t partials = 0;
    for (const char *text : scenarioQueries) {
        query::IncrementalEngine engine(
            mustParse(text), run.dictionary,
            [&](const query::Table &partial) {
                expectReferenceBytes(partial,
                                     std::string(text) + " partial " +
                                         std::to_string(partials++));
            });
        for (std::size_t at = 0; at < run.events.size(); at += 512)
            engine.onBatch(run.events.data() + at,
                           std::min<std::size_t>(
                               512, run.events.size() - at));
        expectReferenceBytes(engine.finish(),
                             std::string(text) + " final");
    }
    // The 1 ms fixed windows preview hundreds of partials.
    EXPECT_GT(partials, 100u);
}
