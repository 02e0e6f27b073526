/**
 * @file
 * tracelint - static analysis of the instrumentation, of run
 * configurations, and of the live-ingestion protocol, before any run
 * executes.
 *
 * Four modes:
 *
 *  1. Instrumentation lint over the C++ sources:
 *
 *         tracelint lint [--src DIR] [--json] [--baseline FILE]
 *
 *     Scans every .cc/.hh under DIR (default: src) with the
 *     lightweight lexer, extracts token declarations, emission
 *     sites, dictionary entries and validator mentions, and
 *     cross-checks them (undeclared/unused/undocumented tokens,
 *     dictionary drift, value collisions, unbalanced Begin/End
 *     pairs, validator coverage gaps).
 *
 *  2. Static protocol analysis of a run configuration:
 *
 *         tracelint protocol [--scenario <name>|all]
 *                            [--version N] [--servants N]
 *                            [--window N] [--bundle N]
 *                            [--pixel-queue N] [--fault-tolerant]
 *                            [--json] [--baseline FILE]
 *
 *     Builds the LWP/mailbox communication graph the configuration
 *     would instantiate and checks wait-for cycles, sends without a
 *     declared receiver, queue capacity bounds (the paper's
 *     version 1-3 pixel-queue bug) and degenerate parameters.
 *
 *  3. Model checking of the live/resume wire protocol:
 *
 *         tracelint model [--model <name>] [--list-models]
 *                         [--spec FILE] [--max-states N]
 *                         [--json] [--baseline FILE]
 *
 *     Exhaustively explores a bounded protocol model (default:
 *     "live-resume", the real HelloResume/SeqEvents/Ack/Ping
 *     protocol with sever/restart/dup-resume/ENOSPC chaos) and
 *     reports every invariant violation with its shortest
 *     counterexample. The broken-* fixture models demonstrate each
 *     invariant firing. --spec loads a guarded-command text spec
 *     instead.
 *
 *  4. Concurrency lint over the C++ sources:
 *
 *         tracelint concurrency [--src DIR] [--json]
 *                               [--baseline FILE]
 *
 *     Lock-order cycles over RAII guard sites, one-sided atomic
 *     memory-order pairings, and SPSC ring role mixing per TU.
 *
 * A baseline file (one `check:object` key per line, `#` comments)
 * suppresses known findings, so intentional findings - e.g. version
 * 3's mis-sized pixel queue, or the one TU designed to drive both
 * SPSC ring sides - stay documented without failing CI.
 *
 * Exit status follows the tracecheck/tracequery convention:
 * 0 no findings above Note severity, 1 findings or unreadable
 * input, 2 usage error. --json emits a single object with a header
 * block ({"tracelint": {...}, "findings": [...]}) like tracequery's
 * {"trace": {...}, "rows": ...}.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/concurrency.hh"
#include "analysis/finding.hh"
#include "analysis/lint.hh"
#include "analysis/livemodel.hh"
#include "analysis/model.hh"
#include "analysis/protocol.hh"
#include "trace/report.hh"
#include "validate/scenarios.hh"

using namespace supmon;

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s lint [--src DIR] [--json] [--baseline FILE]\n"
        "       %s protocol [--scenario <name>|all] [--version N]\n"
        "                [--servants N] [--window N] [--bundle N]\n"
        "                [--pixel-queue N] [--fault-tolerant]\n"
        "                [--json] [--baseline FILE]\n"
        "       %s model [--model <name>] [--list-models]\n"
        "                [--spec FILE] [--max-states N]\n"
        "                [--json] [--baseline FILE]\n"
        "       %s concurrency [--src DIR] [--json] "
        "[--baseline FILE]\n",
        argv0, argv0, argv0, argv0);
    return 2;
}

struct Options
{
    std::string mode;
    std::string srcDir = "src";
    std::string baselinePath;
    std::string scenario;
    std::string model = "live-resume";
    std::string specPath;
    bool listModels = false;
    bool json = false;
    unsigned long maxStates = 0;
    bool maxStatesSet = false;
    // protocol-mode configuration overrides
    unsigned version = 1;
    bool versionSet = false;
    unsigned servants = 0;
    bool servantsSet = false;
    unsigned window = 0;
    bool windowSet = false;
    unsigned bundle = 0;
    bool bundleSet = false;
    unsigned long pixelQueue = 0;
    bool pixelQueueSet = false;
    bool faultTolerant = false;
};

/**
 * Apply the baseline (if any), print, and map to the exit code. The
 * JSON form is one object: a "tracelint" header block (mode, the
 * analyzed subject, suppression count, optional extras) followed by
 * the findings array - the same shape tracequery uses.
 */
int
report(std::vector<analysis::Finding> findings, const Options &opt,
       const std::string &subject,
       const std::string &extraHeader = std::string())
{
    std::size_t suppressed = 0;
    if (!opt.baselinePath.empty()) {
        std::set<std::string> keys;
        std::string error;
        if (!analysis::loadBaseline(opt.baselinePath, keys, error)) {
            std::fprintf(stderr, "%s\n", error.c_str());
            return 1;
        }
        suppressed = analysis::applyBaseline(findings, keys);
        if (suppressed > 0 && !opt.json) {
            std::printf("%zu finding(s) suppressed by baseline %s\n",
                        suppressed, opt.baselinePath.c_str());
        }
    }
    if (opt.json) {
        std::string subjectJson;
        trace::appendJsonString(subjectJson, subject);
        std::printf("{\n\"tracelint\": {\"mode\": \"%s\", "
                    "\"subject\": %s, \"suppressed\": %zu%s%s},\n"
                    "\"findings\": %s}\n",
                    opt.mode.c_str(), subjectJson.c_str(),
                    suppressed, extraHeader.empty() ? "" : ", ",
                    extraHeader.c_str(),
                    analysis::formatJson(findings).c_str());
    } else if (findings.empty()) {
        std::printf("OK: no findings\n");
    } else {
        std::printf("%s%zu finding(s)\n",
                    analysis::formatText(findings).c_str(),
                    findings.size());
    }
    return analysis::exitStatus(findings);
}

int
runLint(const Options &opt)
{
    std::vector<analysis::Finding> findings;
    std::string error;
    if (!analysis::lintSourceTree(opt.srcDir, findings, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return report(std::move(findings), opt, opt.srcDir);
}

int
runConcurrency(const Options &opt)
{
    std::vector<analysis::Finding> findings;
    std::string error;
    if (!analysis::lintConcurrencyTree(opt.srcDir, findings, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return report(std::move(findings), opt, opt.srcDir);
}

int
runModel(const Options &opt)
{
    if (opt.listModels) {
        for (const std::string &name : analysis::liveModelNames())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    analysis::ExploreBounds bounds;
    if (opt.maxStatesSet)
        bounds.maxStates = opt.maxStates;

    analysis::ExploreResult result;
    std::vector<analysis::Finding> findings;
    std::string subject;
    if (!opt.specPath.empty()) {
        std::ifstream in(opt.specPath, std::ios::binary);
        if (!in) {
            std::fprintf(stderr, "%s: cannot read\n",
                         opt.specPath.c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        analysis::ModelSpec spec;
        std::string error;
        if (!analysis::parseModelSpec(text.str(), spec, error)) {
            std::fprintf(stderr, "%s: %s\n", opt.specPath.c_str(),
                         error.c_str());
            return 1;
        }
        result = analysis::explore(spec, bounds);
        findings = analysis::violationFindings(spec, result);
        subject = spec.name;
    } else {
        findings =
            analysis::checkLiveModel(opt.model, bounds, &result);
        subject = opt.model;
    }

    if (!opt.json) {
        std::printf("model %s: %zu state(s), %zu transition(s)%s\n",
                    subject.c_str(), result.statesExplored,
                    result.transitionsFired,
                    result.truncated ? " [truncated]" : "");
    }
    std::ostringstream extra;
    extra << "\"states\": " << result.statesExplored
          << ", \"transitions\": " << result.transitionsFired
          << ", \"truncated\": "
          << (result.truncated ? "true" : "false");
    return report(std::move(findings), opt, subject, extra.str());
}

par::RunConfig
configFromOptions(const Options &opt)
{
    par::RunConfig cfg;
    cfg.version = static_cast<par::Version>(opt.version);
    cfg.applyVersionDefaults();
    if (opt.servantsSet)
        cfg.numServants = opt.servants;
    if (opt.windowSet)
        cfg.windowSize = opt.window;
    if (opt.bundleSet)
        cfg.bundleSize = opt.bundle;
    if (opt.pixelQueueSet)
        cfg.pixelQueueLimit = opt.pixelQueue;
    if (opt.faultTolerant)
        cfg.faultTolerant = true;
    return cfg;
}

int
runProtocol(const Options &opt)
{
    if (!opt.scenario.empty()) {
        std::vector<const validate::Scenario *> selected;
        if (opt.scenario == "all") {
            for (const auto &s : validate::goldenScenarios())
                selected.push_back(&s);
        } else if (const auto *s =
                       validate::findScenario(opt.scenario)) {
            selected.push_back(s);
        } else {
            std::fprintf(stderr, "unknown scenario '%s'\n",
                         opt.scenario.c_str());
            return 1;
        }
        if (opt.json) {
            // One valid JSON document even for --scenario all: the
            // findings of every selected scenario in one array.
            std::vector<analysis::Finding> all;
            for (const auto *scenario : selected) {
                auto f =
                    analysis::analyzeRunConfig(scenario->config);
                all.insert(all.end(), f.begin(), f.end());
            }
            return report(std::move(all), opt, opt.scenario);
        }
        int status = 0;
        for (const auto *scenario : selected) {
            std::printf("== %s ==\n", scenario->name.c_str());
            const int s =
                report(analysis::analyzeRunConfig(scenario->config),
                       opt, scenario->name);
            if (s > status)
                status = s;
        }
        return status;
    }

    if (!opt.versionSet && !opt.servantsSet && !opt.windowSet &&
        !opt.bundleSet && !opt.pixelQueueSet && !opt.faultTolerant) {
        std::fprintf(stderr,
                     "protocol mode needs --scenario or at least one "
                     "of --version/--servants/--window/--bundle/"
                     "--pixel-queue/--fault-tolerant\n");
        return 2;
    }
    return report(analysis::analyzeRunConfig(configFromOptions(opt)),
                  opt, "config");
}

bool
parseUnsigned(const char *text, unsigned long &out)
{
    char *end = nullptr;
    out = std::strtoul(text, &end, 10);
    return end != text && *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);

    Options opt;
    opt.mode = argv[1];
    if (opt.mode != "lint" && opt.mode != "protocol" &&
        opt.mode != "model" && opt.mode != "concurrency")
        return usage(argv[0]);

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        unsigned long value = 0;
        if (arg == "--src" && i + 1 < argc) {
            opt.srcDir = argv[++i];
        } else if (arg == "--baseline" && i + 1 < argc) {
            opt.baselinePath = argv[++i];
        } else if (arg == "--scenario" && i + 1 < argc) {
            opt.scenario = argv[++i];
        } else if (arg == "--model" && i + 1 < argc) {
            opt.model = argv[++i];
        } else if (arg == "--spec" && i + 1 < argc) {
            opt.specPath = argv[++i];
        } else if (arg == "--list-models") {
            opt.listModels = true;
        } else if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--fault-tolerant") {
            opt.faultTolerant = true;
        } else if (arg == "--max-states" && i + 1 < argc &&
                   parseUnsigned(argv[++i], value)) {
            opt.maxStates = value;
            opt.maxStatesSet = true;
        } else if (arg == "--version" && i + 1 < argc &&
                   parseUnsigned(argv[++i], value)) {
            if (value < 1 || value > 4) {
                std::fprintf(stderr, "--version must be 1..4\n");
                return 2;
            }
            opt.version = static_cast<unsigned>(value);
            opt.versionSet = true;
        } else if (arg == "--servants" && i + 1 < argc &&
                   parseUnsigned(argv[++i], value)) {
            opt.servants = static_cast<unsigned>(value);
            opt.servantsSet = true;
        } else if (arg == "--window" && i + 1 < argc &&
                   parseUnsigned(argv[++i], value)) {
            opt.window = static_cast<unsigned>(value);
            opt.windowSet = true;
        } else if (arg == "--bundle" && i + 1 < argc &&
                   parseUnsigned(argv[++i], value)) {
            opt.bundle = static_cast<unsigned>(value);
            opt.bundleSet = true;
        } else if (arg == "--pixel-queue" && i + 1 < argc &&
                   parseUnsigned(argv[++i], value)) {
            opt.pixelQueue = value;
            opt.pixelQueueSet = true;
        } else {
            return usage(argv[0]);
        }
    }

    if (opt.mode == "lint")
        return runLint(opt);
    if (opt.mode == "concurrency")
        return runConcurrency(opt);
    if (opt.mode == "model")
        return runModel(opt);
    return runProtocol(opt);
}
