#include "shard/trace_merge.hh"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "trace/manifest.hh"
#include "util/file_io.hh"
#include "util/logging.hh"
#include "valid/json_value.hh"
#include "valid/snapshot.hh"

namespace eval {

namespace fs = std::filesystem;

namespace {

/** Whole-file slurp; false when the file cannot be opened. */
bool
readFileText(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

} // namespace

std::string
shardTraceDir(const std::string &outDir)
{
    return (fs::path(outDir) / "trace").string();
}

std::string
shardTracePath(const std::string &outDir, std::uint32_t shardIndex)
{
    return (fs::path(shardTraceDir(outDir)) /
            ("shard-" + std::to_string(shardIndex) + ".json"))
        .string();
}

std::string
shardProfilePath(const std::string &outDir, std::uint32_t shardIndex)
{
    return (fs::path(shardTraceDir(outDir)) /
            ("profile-shard-" + std::to_string(shardIndex) + ".json"))
        .string();
}

std::string
mergedTracePath(const std::string &outDir)
{
    return (fs::path(shardTraceDir(outDir)) / "trace.json").string();
}

std::string
fleetProfilePath(const std::string &outDir)
{
    return (fs::path(shardTraceDir(outDir)) / "profile.json").string();
}

SpanProfile
parseProfileJson(const std::string &text)
{
    SpanProfile out;
    try {
        const JsonValue doc = JsonValue::parse(text);
        if (doc.at("schema_version").asInt() != 1)
            throw SnapshotError(
                "unsupported profile schema_version " +
                std::to_string(doc.at("schema_version").asInt()));
        for (const JsonValue &span : doc.at("spans").asArray()) {
            const std::string &path = span.at("path").asString();
            ProfileBucket &b = out[path];
            b.path = path;
            b.name = span.at("name").asString();
            b.count += span.at("count").asUint();
            b.inclNs += span.at("incl_ns").asUint();
            b.selfNs += span.at("self_ns").asUint();
        }
    } catch (const JsonParseError &e) {
        throw SnapshotError(std::string("malformed profile JSON: ") +
                            e.what());
    } catch (const JsonTypeError &e) {
        throw SnapshotError(std::string("bad profile shape: ") +
                            e.what());
    }
    return out;
}

void
mergeProfileInto(SpanProfile &into, const SpanProfile &other)
{
    for (const auto &[path, bucket] : other) {
        ProfileBucket &b = into[path];
        if (b.path.empty()) {
            b.path = bucket.path;
            b.name = bucket.name;
        }
        b.count += bucket.count;
        b.inclNs += bucket.inclNs;
        b.selfNs += bucket.selfNs;
    }
}

std::string
profileToJson(const SpanProfile &profile)
{
    std::vector<ProfileBucket> buckets;
    buckets.reserve(profile.size());
    for (const auto &[path, bucket] : profile) {
        buckets.push_back(bucket);
        buckets.back().path = path;
    }
    return profileJsonOf(buckets);
}

std::string
mergeShardTraces(
    const std::vector<std::pair<std::uint32_t, std::string>> &shards)
{
    JsonValue events = JsonValue::array();
    for (const auto &[shardIndex, text] : shards) {
        JsonValue doc;
        try {
            doc = JsonValue::parse(text);
        } catch (const JsonParseError &e) {
            throw SnapshotError(
                std::string("malformed shard trace JSON: ") + e.what());
        }
        if (!doc.has("traceEvents"))
            throw SnapshotError("shard trace has no traceEvents");

        // The fleet lane for this shard: named, and sorted by shard
        // index regardless of Perfetto's default pid ordering.
        JsonValue procName = JsonValue::object();
        procName.set("name", "process_name");
        procName.set("ph", "M");
        procName.set("pid", static_cast<std::int64_t>(shardIndex));
        JsonValue procNameArgs = JsonValue::object();
        procNameArgs.set("name",
                         "shard " + std::to_string(shardIndex));
        procName.set("args", std::move(procNameArgs));
        events.push(std::move(procName));

        JsonValue procSort = JsonValue::object();
        procSort.set("name", "process_sort_index");
        procSort.set("ph", "M");
        procSort.set("pid", static_cast<std::int64_t>(shardIndex));
        JsonValue procSortArgs = JsonValue::object();
        procSortArgs.set("sort_index",
                         static_cast<std::int64_t>(shardIndex));
        procSort.set("args", std::move(procSortArgs));
        events.push(std::move(procSort));

        try {
            for (const JsonValue &ev : doc.at("traceEvents").asArray()) {
                JsonValue moved = ev;
                moved.set("pid",
                          static_cast<std::int64_t>(shardIndex));
                events.push(std::move(moved));
            }
        } catch (const JsonTypeError &e) {
            throw SnapshotError(std::string("bad shard trace shape: ") +
                                e.what());
        }
    }
    JsonValue doc = JsonValue::object();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", "ms");
    return doc.dump(1) + "\n";
}

FleetTelemetry
mergeShardTelemetry(std::uint32_t shards, const std::string &outDir,
                    const std::string &mergedTraceOut,
                    const std::string &fleetProfileOut)
{
    FleetTelemetry result;
    std::vector<std::pair<std::uint32_t, std::string>> traces;
    SpanProfile fleet;
    for (std::uint32_t i = 0; i < shards; ++i) {
        std::string text;
        if (readFileText(shardTracePath(outDir, i), text)) {
            // Pre-validate so one torn shard file cannot take the
            // whole fleet timeline down with it.
            try {
                JsonValue::parse(text);
                traces.emplace_back(i, std::move(text));
            } catch (const JsonParseError &e) {
                warn("skipping trace of shard ", i, ": ", e.what());
            }
        } else {
            warn("no trace for shard ", i, ", skipping");
        }
        std::string profileText;
        if (readFileText(shardProfilePath(outDir, i), profileText)) {
            try {
                mergeProfileInto(fleet,
                                 parseProfileJson(profileText));
                ++result.profilesMerged;
            } catch (const SnapshotError &e) {
                warn("skipping profile of shard ", i, ": ", e.what());
            }
        } else {
            warn("no profile for shard ", i, ", skipping");
        }
    }

    const std::string tracePath = mergedTraceOut.empty()
                                      ? mergedTracePath(outDir)
                                      : mergedTraceOut;
    const std::string profilePath = fleetProfileOut.empty()
                                        ? fleetProfilePath(outDir)
                                        : fleetProfileOut;
    std::error_code ec;
    fs::create_directories(fs::path(tracePath).parent_path(), ec);
    fs::create_directories(fs::path(profilePath).parent_path(), ec);

    if (!traces.empty()) {
        try {
            const std::string merged = mergeShardTraces(traces);
            result.tracesMerged =
                static_cast<std::uint32_t>(traces.size());
            result.wroteTrace = writeFileAtomic(tracePath, merged);
            if (result.wroteTrace)
                RunManifest::global().setOutput("trace_spans", tracePath);
            else
                warn("cannot write ", tracePath);
        } catch (const SnapshotError &e) {
            warn("cannot merge shard traces: ", e.what());
        }
    }
    if (result.profilesMerged > 0) {
        result.wroteProfile =
            writeFileAtomic(profilePath, profileToJson(fleet));
        if (result.wroteProfile)
            RunManifest::global().setOutput("span_profile", profilePath);
        else
            warn("cannot write ", profilePath);
    }
    return result;
}

} // namespace eval
