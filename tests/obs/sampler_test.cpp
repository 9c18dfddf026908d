/** Tests for MetricsSampler (src/obs/metrics_sampler.hh): snapshot
 *  sequencing and history bounds, EWMA rate/ETA derivation, the
 *  rename-into-place publication contract (no torn reads), the
 *  ExitFlush crash snapshot, and both serialization formats. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/metrics_sampler.hh"
#include "obs/progress.hh"
#include "stats/stat_registry.hh"
#include "trace/exit_flush.hh"
#include "valid/json_value.hh"

namespace eval {
namespace {

namespace fs = std::filesystem;

std::string
tempPath(const char *name)
{
    return (fs::path(::testing::TempDir()) / name).string();
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

class SamplerTest : public ::testing::Test
{
  protected:
    void SetUp() override { ProgressRegistry::global().reset(); }
};

TEST_F(SamplerTest, SeqIsMonotonicAndHistoryIsBounded)
{
    MetricsSampler sampler;
    SamplerConfig cfg;
    cfg.tool = "sampler_test";
    cfg.historyCap = 3;
    sampler.configure(cfg);

    for (int i = 1; i <= 5; ++i) {
        const StatusSnapshot snap = sampler.sampleNow();
        EXPECT_EQ(snap.seq, static_cast<std::uint64_t>(i));
        EXPECT_FALSE(snap.final);
        EXPECT_EQ(snap.tool, "sampler_test");
        EXPECT_GT(snap.pid, 0);
    }
    const auto hist = sampler.history();
    ASSERT_EQ(hist.size(), 3u); // bounded by historyCap
    EXPECT_EQ(hist.front().seq, 3u);
    EXPECT_EQ(hist.back().seq, 5u);
}

TEST_F(SamplerTest, ResourcesArePopulatedOnLinux)
{
    const ResourceSample res = sampleProcessResources();
#ifdef __linux__
    EXPECT_GT(res.rssKb, 0);
    EXPECT_GT(res.peakRssKb, 0);
    EXPECT_GE(res.cpuUserS + res.cpuSysS, 0.0);
    EXPECT_GE(res.threads, 1);
#else
    (void)res;
#endif
}

TEST_F(SamplerTest, RateAndEtaDeriveFromSuccessiveSnapshots)
{
    MetricsSampler sampler;
    sampler.configure({});
    ProgressTracker &t = ProgressRegistry::global().tracker("work");
    t.addTotal(1000);
    t.tick(100);

    const StatusSnapshot first = sampler.sampleNow();
    ASSERT_EQ(first.progress.size(), 1u);
    // Baselined against the tracker's own start stamp, so the very
    // first snapshot already carries a rate.
    EXPECT_GT(first.progress[0].ratePerS, 0.0);

    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.tick(100);
    const StatusSnapshot second = sampler.sampleNow();
    ASSERT_EQ(second.progress.size(), 1u);
    const ProgressSample &p = second.progress[0];
    EXPECT_EQ(p.name, "work");
    EXPECT_EQ(p.done, 200u);
    EXPECT_GT(p.ratePerS, 0.0);
    EXPECT_GT(p.etaS, 0.0); // 800 units left at a positive rate
    EXPECT_DOUBLE_EQ(p.fraction, 0.2);

    t.tick(800);
    const StatusSnapshot done = sampler.sampleNow();
    EXPECT_DOUBLE_EQ(done.progress[0].etaS, 0.0); // complete
}

TEST_F(SamplerTest, StatusJsonParsesWithStableTypes)
{
    MetricsSampler sampler;
    SamplerConfig cfg;
    cfg.tool = "json_test";
    sampler.configure(cfg);
    ProgressTracker &t = ProgressRegistry::global().tracker("chips");
    t.addTotal(10);
    t.tick(4);
    StatRegistry::global().counter("sampler.test.counter").inc(7);

    const std::string json =
        MetricsSampler::statusJson(sampler.sampleNow());
    const JsonValue doc = JsonValue::parse(json);
    EXPECT_EQ(doc.at("schema_version").asInt(), 1);
    EXPECT_EQ(doc.at("tool").asString(), "json_test");
    EXPECT_FALSE(doc.at("final").asBool());
    // Every numeric leaf that can hold a fraction must serialize as a
    // JSON double (never bare int) so readers see one stable shape.
    EXPECT_EQ(doc.at("uptime_s").type(), JsonValue::Type::Double);
    const JsonValue &row = doc.at("progress").asArray().at(0);
    EXPECT_EQ(row.at("name").asString(), "chips");
    EXPECT_EQ(row.at("fraction").type(), JsonValue::Type::Double);
    EXPECT_EQ(row.at("eta_s").type(), JsonValue::Type::Double);
    EXPECT_EQ(row.at("rate_per_s").type(), JsonValue::Type::Double);
    EXPECT_TRUE(doc.at("stats").has("sampler.test.counter"));
    EXPECT_DOUBLE_EQ(
        doc.at("stats").at("sampler.test.counter").asDouble(), 7.0);
}

TEST_F(SamplerTest, PublishedFileIsNeverTorn)
{
    // The publication contract: write <path>.tmp, rename into place.
    // A reader polling the path mid-publication must always see a
    // complete, parseable document — never a partial write.
    const std::string path = tempPath("torn_read.status.json");
    std::remove(path.c_str());

    MetricsSampler sampler;
    SamplerConfig cfg;
    cfg.tool = "torn_test";
    cfg.statusPath = path;
    cfg.intervalMs = 1; // publish as fast as the loop allows
    sampler.configure(cfg);
    ProgressTracker &t = ProgressRegistry::global().tracker("chips");
    t.addTotal(100000);

    sampler.start();
    int parsed = 0;
    for (int i = 0; i < 300; ++i) {
        t.tick(16);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const std::string text = slurp(path);
        if (text.empty())
            continue; // not yet published (or reader raced the rename)
        ASSERT_NO_THROW({
            const JsonValue doc = JsonValue::parse(text);
            ASSERT_TRUE(doc.has("schema_version"));
            ASSERT_TRUE(doc.has("progress"));
        }) << "torn read after " << parsed << " good reads";
        ++parsed;
    }
    sampler.stop();
    EXPECT_GT(parsed, 0);
    EXPECT_GE(sampler.published(), 2u);

    // Final snapshot on the normal stop path.
    const JsonValue last = JsonValue::parse(slurp(path));
    EXPECT_TRUE(last.at("final").asBool());
    std::remove(path.c_str());
}

TEST_F(SamplerTest, ExitFlushPublishesCrashSnapshot)
{
    // A run that dies without stop(): the ExitFlush hook registered
    // by start() must still publish one final snapshot.
    const std::string path = tempPath("crash.status.json");
    std::remove(path.c_str());

    MetricsSampler sampler;
    SamplerConfig cfg;
    cfg.tool = "crash_test";
    cfg.statusPath = path;
    cfg.intervalMs = 60000; // the loop alone would never re-publish
    sampler.configure(cfg);
    ProgressRegistry::global().tracker("chips").addTotal(10);

    sampler.start();
    ASSERT_TRUE(sampler.running());

    // Simulated abort: the process-teardown hook runs while the
    // sampler thread is still alive.
    ExitFlush::global().runNow();

    const JsonValue doc = JsonValue::parse(slurp(path));
    EXPECT_TRUE(doc.at("final").asBool());
    EXPECT_EQ(doc.at("tool").asString(), "crash_test");

    sampler.stop(); // cleanup; must not double-publish a final
    std::remove(path.c_str());
}

TEST_F(SamplerTest, StartStopAreIdempotent)
{
    MetricsSampler sampler;
    SamplerConfig cfg;
    cfg.tool = "idem_test";
    cfg.intervalMs = 50;
    sampler.configure(cfg);

    sampler.start();
    sampler.start(); // no-op
    EXPECT_TRUE(sampler.running());
    sampler.stop();
    sampler.stop(); // no-op
    EXPECT_FALSE(sampler.running());
    EXPECT_GE(sampler.history().size(), 1u);
}

} // namespace
} // namespace eval
