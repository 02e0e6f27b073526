/**
 * @file
 * The run metric of Figures 8-10, pinned: on every registered
 * scenario, the servant utilization a run reports is bit-identical to
 * trace::ActivityMap's mean utilization over the run's phase window,
 * and to the value recorded for that scenario. The scaled machines'
 * trace digests are pinned here as well, since their traces are too
 * large for tests/golden.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "sim/logging.hh"
#include "validate/golden.hh"
#include "validate/rules.hh"
#include "validate/scenarios.hh"

using namespace supmon;

namespace
{

struct Expected
{
    /** servantUtilizationMeasured at the default seed. */
    double servantUtilization;
    /** Trace digest, for the scenarios without a golden file. */
    std::optional<std::uint64_t> digest;
};

const std::map<std::string, Expected> expected = {
    {"fig07-mailbox", {0x1.fdc170a0d7fe3p-1, std::nullopt}},
    {"fig09-agents", {0x1.754e862f6f655p-1, std::nullopt}},
    {"fig10-versions", {0x1.7265ba32442a2p-2, std::nullopt}},
    {"faulty-moderate", {0x1.fee4a46e49b17p-2, std::nullopt}},
    {"scaled-10x", {0x1.eaa618fcecda8p-4, 0x9ac2b17b74b92439ull}},
    {"scaled-100x", {0x1.abc1233f9bc9ap-7, 0x5d1c4412349a19efull}},
};

std::vector<std::string>
scenarioNames()
{
    std::vector<std::string> names;
    for (const auto &s : validate::goldenScenarios())
        names.push_back(s.name);
    for (const auto &s : validate::scaledScenarios())
        names.push_back(s.name);
    return names;
}

} // namespace

class RunMetric : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RunMetric, ServantUtilizationIsBitIdenticalToActivityMap)
{
    const auto *scenario = validate::findScenario(GetParam());
    ASSERT_NE(scenario, nullptr);
    const auto want = expected.find(GetParam());
    ASSERT_NE(want, expected.end())
        << GetParam() << ": no recorded run metric";
    const auto res = validate::runScenario(*scenario);
    ASSERT_TRUE(res.completed) << GetParam() << ": run did not complete";

    if (want->second.digest) {
        EXPECT_EQ(validate::hashHex(validate::digestOf(res.events).hash),
                  validate::hashHex(*want->second.digest));
    }
    const auto violations = validate::validateRun(res);
    EXPECT_TRUE(violations.empty())
        << validate::formatViolations(violations);

    const double measured = res.servantUtilizationMeasured;
    const double oracle = res.activity().meanUtilization(
        res.servantStreams, "WORK", res.phaseBegin, res.phaseEnd);
    EXPECT_EQ(measured, oracle)
        << sim::strprintf("%a != %a", measured, oracle);
    EXPECT_EQ(measured, want->second.servantUtilization)
        << sim::strprintf("%a != %a", measured,
                          want->second.servantUtilization);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, RunMetric,
                         ::testing::ValuesIn(scenarioNames()),
                         [](const auto &info) {
                             std::string id = info.param;
                             for (auto &c : id)
                                 if (c == '-')
                                     c = '_';
                             return id;
                         });
