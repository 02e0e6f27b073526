#include "table.hh"

#include <algorithm>
#include <charconv>

#include "trace/report.hh"

namespace supmon
{
namespace query
{

namespace
{

/** Append numeric cell @p v as printf prints it: `%llu` for Int,
 *  `%.<precision>g` for Real. to_chars's integer overload and its
 *  precision overloads are specified as exactly those conversions. */
void
appendNumber(std::string &out, const Value &v, int precision)
{
    // Wide enough for any %llu (20 bytes) or %.10g (17 bytes) output.
    char buf[32];
    const auto res =
        v.kind == Value::Kind::Int
            ? std::to_chars(buf, buf + sizeof buf, v.integer)
            : std::to_chars(buf, buf + sizeof buf, v.real,
                            std::chars_format::general, precision);
    out.append(buf, res.ptr);
}

/** Text cells print reals at %.6g, CSV and JSON at %.10g. */
constexpr int textPrecision = 6;
constexpr int exactPrecision = 10;

/** CSV and JSON reserve this much per value; a short guess only
 *  costs the string's geometric growth. */
constexpr std::size_t cellBytes = 12;

} // namespace

bool
parseOutputFormat(const std::string &name, OutputFormat &fmt)
{
    if (name == "text")
        fmt = OutputFormat::Text;
    else if (name == "csv")
        fmt = OutputFormat::Csv;
    else if (name == "json")
        fmt = OutputFormat::Json;
    else
        return false;
    return true;
}

std::string
Table::toText() const
{
    const std::size_t ncols = columns.size();
    std::vector<std::size_t> widths(ncols);
    for (std::size_t c = 0; c < ncols; ++c)
        widths[c] = columns[c].size();

    // First pass: column widths. Each number is formatted once, into
    // `numbers`, in the order the second pass prints it.
    std::string numbers;
    std::vector<std::uint8_t> numberLengths; // each at most 20
    for (const auto &row : rows) {
        const std::size_t n = std::min(row.size(), ncols);
        for (std::size_t c = 0; c < n; ++c) {
            const Value &v = row[c];
            std::size_t len = v.text.size();
            if (v.kind != Value::Kind::Text) {
                const std::size_t at = numbers.size();
                appendNumber(numbers, v, textPrecision);
                len = numbers.size() - at;
                numberLengths.push_back(static_cast<std::uint8_t>(len));
            }
            widths[c] = std::max(widths[c], len);
        }
    }

    // Every line is as long: the cells padded to their widths, two
    // spaces between them and a newline.
    std::size_t lineLength = ncols ? 2 * ncols - 1 : 0;
    for (std::size_t w : widths)
        lineLength += w;
    std::string out;
    out.reserve(lineLength * (rows.size() + 1));
    const auto endCell = [&](std::size_t c) {
        if (c + 1 < ncols)
            out.append(2, ' ');
        else
            out += '\n';
    };
    // Text cells (and the header) are left-aligned, numbers right.
    const auto putText = [&](const std::string &s, std::size_t c) {
        out += s;
        out.append(widths[c] - s.size(), ' ');
        endCell(c);
    };

    for (std::size_t c = 0; c < ncols; ++c)
        putText(columns[c], c);
    const std::string none;
    const char *number = numbers.data();
    auto length = numberLengths.begin();
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < ncols; ++c) {
            if (c >= row.size() || row[c].kind == Value::Kind::Text) {
                putText(c < row.size() ? row[c].text : none, c);
                continue;
            }
            const std::size_t len = *length++;
            out.append(widths[c] - len, ' ');
            out.append(number, len);
            number += len;
            endCell(c);
        }
    }
    return out;
}

std::string
Table::toCsv() const
{
    const std::size_t ncols = columns.size();
    std::string out;
    out.reserve((rows.size() + 1) * (ncols * (cellBytes + 1)));
    for (std::size_t c = 0; c < ncols; ++c) {
        out += trace::csvField(columns[c]);
        if (c + 1 < ncols)
            out += ',';
    }
    out += '\n';
    for (const auto &row : rows) {
        for (std::size_t c = 0; c < ncols; ++c) {
            if (c < row.size()) {
                if (row[c].kind == Value::Kind::Text)
                    out += trace::csvField(row[c].text);
                else
                    appendNumber(out, row[c], exactPrecision);
            }
            if (c + 1 < ncols)
                out += ',';
        }
        out += '\n';
    }
    return out;
}

std::string
Table::toJson() const
{
    // Each column's `"name": ` prefix, escaped once for every row.
    std::vector<std::string> keys(columns.size());
    std::size_t keyBytes = 0;
    for (std::size_t c = 0; c < columns.size(); ++c) {
        trace::appendJsonString(keys[c], columns[c]);
        keys[c] += ": ";
        keyBytes += keys[c].size() + cellBytes + 2;
    }
    std::string out;
    out.reserve(rows.size() * (keyBytes + 5) + 4);
    out += '[';
    for (std::size_t r = 0; r < rows.size(); ++r) {
        out.append(r ? ",\n {" : "\n {");
        const std::size_t n = std::min(rows[r].size(), keys.size());
        for (std::size_t c = 0; c < n; ++c) {
            const Value &v = rows[r][c];
            if (c)
                out.append(", ");
            out += keys[c];
            if (v.kind == Value::Kind::Text)
                trace::appendJsonString(out, v.text);
            else
                appendNumber(out, v, exactPrecision);
        }
        out += '}';
    }
    out.append("\n]\n");
    return out;
}

std::string
Table::render(OutputFormat fmt) const
{
    switch (fmt) {
      case OutputFormat::Csv:
        return toCsv();
      case OutputFormat::Json:
        return toJson();
      case OutputFormat::Text:
        break;
    }
    return toText();
}

} // namespace query
} // namespace supmon
