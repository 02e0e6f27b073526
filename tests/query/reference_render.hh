/**
 * @file
 * Reference renderers for query::Table, the oracle the shipped
 * text/CSV/JSON writers are compared against byte for byte. They
 * format every cell through printf (`%llu`, `%.6g`, `%.10g`, `%*s`,
 * `%-*s`), build the output in an ostringstream, and escape JSON with
 * their own loop, sharing nothing with src/query/table.cc but
 * trace::csvField and the Table type.
 */

#ifndef TESTS_QUERY_REFERENCE_RENDER_HH
#define TESTS_QUERY_REFERENCE_RENDER_HH

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "query/table.hh"
#include "sim/logging.hh"
#include "trace/report.hh"

namespace supmon
{
namespace test
{

inline std::string
referenceJsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += sim::strprintf("\\u%04x", c);
            else
                out += c;
        }
    }
    return out;
}

/** A cell as the text renderer prints it before padding. */
inline std::string
referenceCellText(const query::Value &v)
{
    switch (v.kind) {
      case query::Value::Kind::Int:
        return sim::strprintf(
            "%llu", static_cast<unsigned long long>(v.integer));
      case query::Value::Kind::Real:
        return sim::strprintf("%.6g", v.real);
      case query::Value::Kind::Text:
        break;
    }
    return v.text;
}

/** What Table::render(OutputFormat::Text) must return. */
inline std::string
referenceText(const query::Table &t)
{
    std::vector<std::size_t> widths(t.columns.size());
    for (std::size_t c = 0; c < t.columns.size(); ++c)
        widths[c] = t.columns[c].size();
    std::vector<std::vector<std::string>> cells;
    for (const auto &row : t.rows) {
        std::vector<std::string> line;
        for (std::size_t c = 0; c < t.columns.size(); ++c) {
            line.push_back(c < row.size() ? referenceCellText(row[c])
                                          : "");
            widths[c] = std::max(widths[c], line.back().size());
        }
        cells.push_back(std::move(line));
    }

    std::ostringstream os;
    auto emit = [&](const std::vector<std::string> &line,
                    const std::vector<query::Value> *row) {
        for (std::size_t c = 0; c < t.columns.size(); ++c) {
            const bool numeric =
                row && c < row->size() &&
                (*row)[c].kind != query::Value::Kind::Text;
            os << sim::strprintf(numeric ? "%*s" : "%-*s",
                                 static_cast<int>(widths[c]),
                                 line[c].c_str());
            os << (c + 1 < t.columns.size() ? "  " : "\n");
        }
    };
    emit(t.columns, nullptr);
    for (std::size_t r = 0; r < cells.size(); ++r)
        emit(cells[r], &t.rows[r]);
    return os.str();
}

/** What Table::render(OutputFormat::Csv) must return. */
inline std::string
referenceCsv(const query::Table &t)
{
    std::ostringstream os;
    for (std::size_t c = 0; c < t.columns.size(); ++c) {
        os << trace::csvField(t.columns[c])
           << (c + 1 < t.columns.size() ? "," : "");
    }
    os << "\n";
    for (const auto &row : t.rows) {
        for (std::size_t c = 0; c < t.columns.size(); ++c) {
            if (c < row.size()) {
                if (row[c].kind == query::Value::Kind::Real)
                    os << sim::strprintf("%.10g", row[c].real);
                else
                    os << trace::csvField(referenceCellText(row[c]));
            }
            os << (c + 1 < t.columns.size() ? "," : "");
        }
        os << "\n";
    }
    return os.str();
}

/** What Table::render(OutputFormat::Json) must return. */
inline std::string
referenceJson(const query::Table &t)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t r = 0; r < t.rows.size(); ++r) {
        os << (r ? ",\n " : "\n ") << "{";
        for (std::size_t c = 0; c < t.columns.size(); ++c) {
            if (c >= t.rows[r].size())
                break;
            const query::Value &v = t.rows[r][c];
            os << (c ? ", " : "") << "\""
               << referenceJsonEscape(t.columns[c]) << "\": ";
            switch (v.kind) {
              case query::Value::Kind::Int:
                os << sim::strprintf(
                    "%llu", static_cast<unsigned long long>(v.integer));
                break;
              case query::Value::Kind::Real:
                os << sim::strprintf("%.10g", v.real);
                break;
              case query::Value::Kind::Text:
                os << "\"" << referenceJsonEscape(v.text) << "\"";
                break;
            }
        }
        os << "}";
    }
    os << "\n]\n";
    return os.str();
}

inline std::string
referenceRender(const query::Table &t, query::OutputFormat fmt)
{
    switch (fmt) {
      case query::OutputFormat::Csv:
        return referenceCsv(t);
      case query::OutputFormat::Json:
        return referenceJson(t);
      case query::OutputFormat::Text:
        break;
    }
    return referenceText(t);
}

} // namespace test
} // namespace supmon

#endif // TESTS_QUERY_REFERENCE_RENDER_HH
