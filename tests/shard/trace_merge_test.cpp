/** Tests for the fleet telemetry merge (src/shard/trace_merge):
 *  N-shard Chrome-trace merge onto per-shard pids, the profile merge
 *  property (associative / order-insensitive, mirroring the stats
 *  accumulator discipline), the shared profile.json writer, and the
 *  warn-and-skip supervisor path. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "shard/trace_merge.hh"
#include "util/random.hh"
#include "valid/json_value.hh"
#include "valid/snapshot.hh"

namespace eval {
namespace {

namespace fs = std::filesystem;

/** One shard's Chrome trace with @p events complete spans (the pid
 *  is deliberately the worker's real pid — merge must rewrite it). */
std::string
shardTrace(int events, long pid)
{
    std::string out = "{\"traceEvents\": [";
    out += "{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": " +
           std::to_string(pid) +
           ", \"tid\": 1, \"args\": {\"name\": \"worker\"}}";
    for (int i = 0; i < events; ++i) {
        out += ", {\"ph\": \"X\", \"name\": \"span" +
               std::to_string(i) + "\", \"ts\": " +
               std::to_string(10 * i) + ", \"dur\": 5, \"pid\": " +
               std::to_string(pid) + ", \"tid\": 1}";
    }
    out += "], \"displayTimeUnit\": \"ms\"}";
    return out;
}

ProfileBucket
bucket(const std::string &path, std::uint64_t count, std::uint64_t incl,
       std::uint64_t self)
{
    ProfileBucket b;
    b.path = path;
    b.name = path.rfind(';') == std::string::npos
                 ? path
                 : path.substr(path.rfind(';') + 1);
    b.count = count;
    b.inclNs = incl;
    b.selfNs = self;
    return b;
}

void
expectSameProfile(const SpanProfile &a, const SpanProfile &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (const auto &[path, bucketA] : a) {
        const auto it = b.find(path);
        ASSERT_NE(it, b.end()) << path;
        EXPECT_EQ(bucketA.count, it->second.count) << path;
        EXPECT_EQ(bucketA.inclNs, it->second.inclNs) << path;
        EXPECT_EQ(bucketA.selfNs, it->second.selfNs) << path;
    }
}

TEST(TraceMergeTest, PerPidSpanCountsEqualPerShardInputs)
{
    const std::vector<int> perShard{3, 5, 2, 7};
    std::vector<std::pair<std::uint32_t, std::string>> shards;
    for (std::size_t i = 0; i < perShard.size(); ++i)
        shards.emplace_back(static_cast<std::uint32_t>(i),
                            shardTrace(perShard[i], 4000 + (long)i));

    const JsonValue doc =
        JsonValue::parse(mergeShardTraces(shards));
    std::map<std::int64_t, int> xPerPid;
    std::map<std::int64_t, std::string> namePerPid;
    std::map<std::int64_t, std::int64_t> sortPerPid;
    for (const JsonValue &ev : doc.at("traceEvents").asArray()) {
        const std::int64_t pid = ev.at("pid").asInt();
        const std::string ph = ev.at("ph").asString();
        if (ph == "X") {
            ++xPerPid[pid];
        } else if (ph == "M" &&
                   ev.at("name").asString() == "process_name") {
            namePerPid[pid] = ev.at("args").at("name").asString();
        } else if (ph == "M" &&
                   ev.at("name").asString() == "process_sort_index") {
            sortPerPid[pid] =
                ev.at("args").at("sort_index").asInt();
        }
    }

    ASSERT_EQ(xPerPid.size(), perShard.size());
    for (std::size_t i = 0; i < perShard.size(); ++i) {
        const std::int64_t pid = static_cast<std::int64_t>(i);
        EXPECT_EQ(xPerPid[pid], perShard[i]) << "shard " << i;
        EXPECT_EQ(namePerPid[pid], "shard " + std::to_string(i));
        EXPECT_EQ(sortPerPid[pid], pid);
    }
}

TEST(TraceMergeTest, MalformedShardTraceThrowsSnapshotError)
{
    EXPECT_THROW(mergeShardTraces({{0, "{torn"}}), SnapshotError);
    EXPECT_THROW(mergeShardTraces({{0, "[1, 2]"}}), SnapshotError);
    EXPECT_THROW(parseProfileJson("{torn"), SnapshotError);
    EXPECT_THROW(parseProfileJson("{\"schema_version\": 99}"),
                 SnapshotError);
}

TEST(TraceMergeTest, ProfileJsonRoundTripsThroughParse)
{
    SpanProfile p;
    p["run"] = bucket("run", 1, 900, 100);
    p["run;solve"] = bucket("run;solve", 42, 800, 800);
    expectSameProfile(parseProfileJson(profileToJson(p)), p);
}

TEST(TraceMergeTest, FleetProfileWriterMatchesTracerBytes)
{
    // One profile.json writer: a tracer's export, parsed and
    // re-serialized by the fleet merge, comes back byte for byte.
    SpanTracer &tracer = SpanTracer::global();
    tracer.clear();
    tracer.setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        ScopedSpan outer("outer");
        {
            ScopedSpan leaf("leaf \"quoted\"");
        }
        ScopedSpan other("other");
    }
    tracer.setEnabled(false);
    const std::string text = tracer.profileJson();
    tracer.clear();

    ASSERT_NE(text.find("outer;leaf"), std::string::npos) << text;
    EXPECT_EQ(profileToJson(parseProfileJson(text)), text);
}

/** Random strictly-increasing split points partitioning [0, n). */
std::vector<std::size_t>
randomSplits(Rng &rng, std::size_t n, std::size_t parts)
{
    std::vector<std::size_t> cuts{0};
    for (std::size_t i = 1; i < parts; ++i)
        cuts.push_back(rng.next() % (n + 1));
    cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());
    return cuts;
}

TEST(TraceMergeProperty, ProfileMergeIsAssociativeAndOrderInsensitive)
{
    const std::vector<std::string> paths{
        "run", "run;sweep", "run;sweep;solve", "run;io", "flush"};
    Rng rng(2026);
    for (int trial = 0; trial < 50; ++trial) {
        // A stream of single-span closures (count 1 each), exactly
        // what per-thread aggregation folds at runtime.
        std::vector<ProfileBucket> closures(60);
        for (ProfileBucket &b : closures) {
            const std::string &path = paths[rng.next() % paths.size()];
            const std::uint64_t self = rng.next() % 5000;
            b = bucket(path, 1, self + rng.next() % 5000, self);
        }

        SpanProfile serial;
        for (const ProfileBucket &b : closures) {
            SpanProfile one;
            one[b.path] = b;
            mergeProfileInto(serial, one);
        }

        // Contiguous split into 4 shard profiles.
        const auto cuts = randomSplits(rng, closures.size(), 4);
        std::vector<SpanProfile> parts;
        for (std::size_t p = 0; p + 1 < cuts.size(); ++p) {
            SpanProfile shard;
            for (std::size_t i = cuts[p]; i < cuts[p + 1]; ++i) {
                SpanProfile one;
                one[closures[i].path] = closures[i];
                mergeProfileInto(shard, one);
            }
            parts.push_back(std::move(shard));
        }

        // Left fold: ((p0 + p1) + p2) + p3.
        SpanProfile left;
        for (const SpanProfile &p : parts)
            mergeProfileInto(left, p);

        // Right fold over a reversed order — u64 sums cannot tell.
        SpanProfile tail;
        for (std::size_t p = parts.size(); p-- > 1;)
            mergeProfileInto(tail, parts[p]);
        SpanProfile right;
        mergeProfileInto(right, parts[0]);
        mergeProfileInto(right, tail);

        expectSameProfile(left, serial);
        expectSameProfile(right, serial);
    }
}

TEST(TraceMergeTest, SupervisorMergeSkipsCorruptShardsAndSumsCounts)
{
    const std::string outDir =
        ::testing::TempDir() + "trace_merge_telemetry";
    fs::remove_all(outDir);
    fs::create_directories(shardTraceDir(outDir));

    SpanProfile p0;
    p0["run"] = bucket("run", 3, 3000, 1000);
    p0["run;solve"] = bucket("run;solve", 5, 2000, 2000);
    SpanProfile p1;
    p1["run"] = bucket("run", 2, 1000, 500);

    std::ofstream(shardTracePath(outDir, 0)) << shardTrace(2, 111);
    std::ofstream(shardProfilePath(outDir, 0)) << profileToJson(p0);
    std::ofstream(shardTracePath(outDir, 1)) << "{torn";
    std::ofstream(shardProfilePath(outDir, 1)) << profileToJson(p1);
    // shard 2's files are missing entirely.

    const FleetTelemetry tele =
        mergeShardTelemetry(3, outDir, "", "");
    EXPECT_EQ(tele.tracesMerged, 1u);   // torn + missing skipped
    EXPECT_EQ(tele.profilesMerged, 2u); // profiles were both fine
    EXPECT_TRUE(tele.wroteTrace);
    EXPECT_TRUE(tele.wroteProfile);

    std::ifstream in(fleetProfilePath(outDir));
    ASSERT_TRUE(in.good());
    const std::string text{std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>()};
    const SpanProfile fleet = parseProfileJson(text);
    ASSERT_EQ(fleet.size(), 2u);
    EXPECT_EQ(fleet.at("run").count, 5u); // 3 + 2: exact sum
    EXPECT_EQ(fleet.at("run").selfNs, 1500u);
    EXPECT_EQ(fleet.at("run;solve").count, 5u);
    fs::remove_all(outDir);
}

} // namespace
} // namespace eval
