/** Tests for the shared telemetry setup (src/obs/telemetry.hh): the
 *  EVAL_* variables it reads, the derived profile path, and a full
 *  start/finish cycle that must write every
 *  artifact, list each in the manifest, and leave nothing pending in
 *  ExitFlush. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/telemetry.hh"
#include "stats/decision_trace.hh"
#include "stats/stat_registry.hh"
#include "trace/exit_flush.hh"
#include "trace/manifest.hh"
#include "trace/span_tracer.hh"
#include "valid/json_value.hh"

namespace eval {
namespace {

namespace fs = std::filesystem;

constexpr const char *kVars[] = {
    "EVAL_STATS_OUT",   "EVAL_TRACE_OUT", "EVAL_TRACE_SPANS",
    "EVAL_PROFILE_OUT", "EVAL_MANIFEST",
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Every telemetry variable unset around each test. */
class TelemetryTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        for (const char *var : kVars)
            unsetenv(var);
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

TEST_F(TelemetryTest, FromEnvReadsEveryVariable)
{
    setenv("EVAL_STATS_OUT", "s.json", 1);
    setenv("EVAL_TRACE_OUT", "d.jsonl", 1);
    setenv("EVAL_TRACE_SPANS", "spans.json", 1);
    setenv("EVAL_PROFILE_OUT", "p.json", 1);
    setenv("EVAL_MANIFEST", "m.json", 1);

    const TelemetryOutputs out = telemetryFromEnv("default.json");
    EXPECT_EQ(out.stats, "s.json");
    EXPECT_EQ(out.decisions, "d.jsonl");
    EXPECT_EQ(out.spans, "spans.json");
    EXPECT_EQ(out.profile, "p.json");
    EXPECT_EQ(out.manifest, "m.json");
}

TEST_F(TelemetryTest, DefaultsFollowTheOneRule)
{
    TelemetryOutputs out = telemetryFromEnv("default.json");
    EXPECT_TRUE(out.stats.empty());
    EXPECT_TRUE(out.spans.empty());
    EXPECT_TRUE(out.profile.empty());
    EXPECT_EQ(out.manifest, "default.json");

    // The profile rides alongside the span trace.
    setenv("EVAL_TRACE_SPANS", "run/spans.json", 1);
    setenv("EVAL_MANIFEST", "", 1);
    out = telemetryFromEnv("default.json");
    EXPECT_EQ(out.profile, "run/spans.profile.json");
    EXPECT_TRUE(out.manifest.empty());

    setenv("EVAL_TRACE_SPANS", "spans.trace", 1);
    out = telemetryFromEnv("default.json");
    EXPECT_EQ(out.profile, "spans.trace.profile.json");
}

TEST_F(TelemetryTest, DerivedProfileFollowsTheSpansExplicitOneStays)
{
    TelemetryOutputs out;
    setSpansOutput(out, "a.json");
    EXPECT_EQ(out.profile, "a.profile.json");
    setSpansOutput(out, "b.json");
    EXPECT_EQ(out.profile, "b.profile.json");
    setSpansOutput(out, "");
    EXPECT_TRUE(out.profile.empty());

    out.profile = "mine.json";
    setSpansOutput(out, "c.json");
    EXPECT_EQ(out.spans, "c.json");
    EXPECT_EQ(out.profile, "mine.json");
}

TEST_F(TelemetryTest, StartFinishWritesEveryArtifactAndListsIt)
{
    const fs::path dir = fs::path(::testing::TempDir()) / "telemetry";
    fs::remove_all(dir);
    fs::create_directories(dir);

    TelemetryOutputs out;
    out.stats = (dir / "stats.json").string();
    out.decisions = (dir / "decisions.jsonl").string();
    out.spans = (dir / "spans.json").string();
    out.profile = (dir / "profile.json").string();
    out.manifest = (dir / "manifest.json").string();

    RunManifest::global().reset();
    DecisionTrace::global().clear();
    SpanTracer::global().clear();
    ASSERT_EQ(ExitFlush::global().pending(), 0u);

    startTelemetry("telemetry_test", out, 3);
    EXPECT_TRUE(DecisionTrace::global().enabled());
    EXPECT_TRUE(SpanTracer::global().enabled());
    {
        ScopedSpan span("telemetry_test.run");
        StatRegistry::global().counter("telemetry_test.runs").inc();
        DecisionTrace::global().record(DecisionRecord{});
    }
    finishTelemetry("run", 0.25);
    EXPECT_EQ(ExitFlush::global().pending(), 0u);

    DecisionTrace::global().setEnabled(false);
    SpanTracer::global().setEnabled(false);

    for (const std::string &path : {out.stats, out.decisions, out.spans,
                                    out.profile, out.manifest})
        EXPECT_FALSE(slurp(path).empty()) << path;
    EXPECT_NE(slurp(out.stats).find("telemetry_test"), std::string::npos);
    EXPECT_NE(slurp(out.profile).find("telemetry_test.run"),
              std::string::npos);

    const JsonValue manifest = JsonValue::parse(slurp(out.manifest));
    EXPECT_EQ(manifest.at("tool").asString(), "telemetry_test");
    EXPECT_EQ(manifest.at("run").at("threads").asInt(), 3);
    const JsonValue &outputs = manifest.at("outputs");
    EXPECT_EQ(outputs.at("stats").asString(), out.stats);
    EXPECT_EQ(outputs.at("decision_trace").asString(), out.decisions);
    EXPECT_EQ(outputs.at("trace_spans").asString(), out.spans);
    EXPECT_EQ(outputs.at("span_profile").asString(), out.profile);
    EXPECT_EQ(manifest.at("stages").asArray().size(), 1u);

    RunManifest::global().reset();
    DecisionTrace::global().clear();
    SpanTracer::global().clear();
}

} // namespace
} // namespace eval
