#include "finding.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "trace/report.hh"

namespace supmon
{
namespace analysis
{

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

void
sortFindings(std::vector<Finding> &findings)
{
    std::stable_sort(findings.begin(), findings.end(),
                     [](const Finding &a, const Finding &b) {
                         if (a.severity != b.severity)
                             return a.severity > b.severity;
                         if (a.check != b.check)
                             return a.check < b.check;
                         return a.object < b.object;
                     });
}

std::string
formatText(const std::vector<Finding> &findings)
{
    std::ostringstream out;
    for (const auto &f : findings) {
        if (!f.location.empty())
            out << f.location << ": ";
        out << severityName(f.severity) << " [" << f.check << "] "
            << f.object << ": " << f.message << "\n";
    }
    return out.str();
}

std::string
formatJson(const std::vector<Finding> &findings)
{
    std::string out = "[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const auto &f = findings[i];
        out += i ? ",\n {\"check\": " : "\n {\"check\": ";
        trace::appendJsonString(out, f.check);
        out += ", \"severity\": \"";
        out += severityName(f.severity);
        out += "\", \"object\": ";
        trace::appendJsonString(out, f.object);
        out += ", \"location\": ";
        trace::appendJsonString(out, f.location);
        out += ", \"message\": ";
        trace::appendJsonString(out, f.message);
        out += '}';
    }
    out += findings.empty() ? "]\n" : "\n]\n";
    return out;
}

bool
loadBaseline(const std::string &path, std::set<std::string> &keys,
             std::string &error)
{
    std::ifstream in(path);
    if (!in) {
        error = path + ": cannot open baseline file";
        return false;
    }
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        // Trim surrounding whitespace.
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        const auto last = line.find_last_not_of(" \t\r");
        keys.insert(line.substr(first, last - first + 1));
    }
    return true;
}

std::size_t
applyBaseline(std::vector<Finding> &findings,
              const std::set<std::string> &baseline)
{
    const std::size_t before = findings.size();
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&baseline](const Finding &f) {
                                      return baseline.count(f.key()) >
                                             0;
                                  }),
                   findings.end());
    return before - findings.size();
}

int
exitStatus(const std::vector<Finding> &findings)
{
    for (const auto &f : findings) {
        if (f.severity != Severity::Note)
            return 1;
    }
    return 0;
}

} // namespace analysis
} // namespace supmon
