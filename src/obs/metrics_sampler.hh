/**
 * @file
 * Live telemetry: a background thread that, at a configurable
 * interval (default 500 ms), snapshots the StatRegistry plus process
 * resources (current/peak RSS, user/sys CPU time, live thread count)
 * and every ProgressTracker into a bounded in-memory time series, and
 * atomically publishes the newest snapshot to a JSON status file
 * (EVAL_STATUS_OUT / --status-out), written to `<path>.tmp` and
 * renamed into place so a concurrent reader (`eval_top`, a shard
 * supervisor) never sees a torn write.
 *
 * Progress entries carry chips/sec throughput and an EWMA-based ETA
 * derived from successive snapshots; the EWMA state lives here, not
 * in the trackers, so the fan-out hot path stays one relaxed atomic
 * increment and the bit-identical accumulation contract is untouched.
 *
 * The sampler registers a closure with ExitFlush when started, so a
 * run that dies mid-experiment still publishes one final snapshot
 * (`"final": true`) — exactly the progress picture you need to
 * resume or debug the aborted campaign.
 *
 * Overhead budget (DESIGN.md Sec 5f): enabling the sampler costs
 * <= 2% wall clock on bench_parallel_scaling's single-thread
 * pipeline; the bench asserts the budget the same way span tracing
 * asserts its 3%.
 */

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace eval {

/** Process resource usage at one sampling instant. */
struct ResourceSample
{
    long rssKb = 0;        ///< current resident set (Linux /proc)
    long peakRssKb = 0;    ///< getrusage ru_maxrss
    double cpuUserS = 0.0; ///< getrusage user time
    double cpuSysS = 0.0;  ///< getrusage system time
    long threads = 0;      ///< live threads (Linux /proc; 0 unknown)
};

/** Current process resources (best effort; zeros where the platform
 *  offers no cheap answer). */
ResourceSample sampleProcessResources();

/** One tracker's progress view inside a snapshot. */
struct ProgressSample
{
    std::string name;
    std::uint64_t total = 0;
    std::uint64_t done = 0;
    double fraction = 0.0;
    double ratePerS = 0.0; ///< EWMA units/sec across snapshots
    double etaS = -1.0;    ///< seconds to completion; -1 unknown
    double elapsedS = 0.0; ///< since the tracker's first activity
};

/** One published status snapshot (schema_version pins the shape; the
 *  golden test tests/golden/status_schema_test.cpp guards it). */
struct StatusSnapshot
{
    std::uint64_t seq = 0;   ///< 1-based publication counter
    bool final = false;      ///< last snapshot of the run
    std::string tool;        ///< bench/CLI name
    long pid = 0;
    double uptimeS = 0.0;    ///< since the sampler was configured
    std::uint64_t intervalMs = 0;
    ResourceSample resources;
    std::vector<ProgressSample> progress;      ///< name order
    /** Flat numeric stat view (StatRegistry::flat()). */
    std::vector<std::pair<std::string, double>> stats;
};

/** Sampler wiring; see the env/flag table in bench_common.hh. */
struct SamplerConfig
{
    std::string tool = "unknown";
    std::string statusPath;        ///< empty: no JSON file sink
    std::uint64_t intervalMs = 500;
    std::size_t historyCap = 240;  ///< bounded in-memory series
};

/**
 * The background metrics sampler.  Most code uses the process
 * singleton (global()); tests may build private instances.  start()
 * and stop() are idempotent and must be called from one controlling
 * thread (the bench/CLI driver); everything else is thread-safe.
 */
class MetricsSampler
{
  public:
    MetricsSampler() = default;
    MetricsSampler(const MetricsSampler &) = delete;
    MetricsSampler &operator=(const MetricsSampler &) = delete;
    ~MetricsSampler();

    static MetricsSampler &global();

    /** Set the wiring for subsequent start().  Re-configuring resets
     *  seq, uptime origin, history, and EWMA state. */
    void configure(const SamplerConfig &config);
    SamplerConfig config() const;

    /** Spawn the sampling thread (publishes one snapshot
     *  immediately, then one per interval).  No-op when running. */
    void start();

    /** Join the thread and publish the final snapshot.  No-op when
     *  not running. */
    void stop();

    bool running() const;

    /** Take one snapshot now (advances seq and the EWMA state) and
     *  append it to the history — the sampler thread's step, exposed
     *  for tests and for single-shot publication. */
    StatusSnapshot sampleNow(bool final = false);

    /** Write @p snap to the status file, if configured (tmp +
     *  rename).  True unless that write failed. */
    bool publish(const StatusSnapshot &snap);

    /** Snapshots taken so far, oldest first (bounded by
     *  historyCap). */
    std::vector<StatusSnapshot> history() const;

    /** Snapshots successfully published to the status file. */
    std::uint64_t published() const;

    /** Deterministic JSON serialization of one snapshot (the status
     *  file body). */
    static std::string statusJson(const StatusSnapshot &snap);

  private:
    void runLoop();
    /** Snapshot + publish the final state (crash path: called from
     *  the ExitFlush hook without joining the thread). */
    void flushFinal();

    mutable std::mutex mutex_;
    std::condition_variable wake_;
    SamplerConfig config_;
    std::thread thread_;
    bool running_ = false;
    bool stopRequested_ = false;
    bool finalPublished_ = false;
    int exitFlushId_ = 0;
    std::uint64_t seq_ = 0;
    std::uint64_t published_ = 0;
    std::uint64_t originNs_ = 0;       ///< uptime origin
    std::deque<StatusSnapshot> history_;

    /** Per-tracker EWMA rate state (sampler-side only). */
    struct RateState
    {
        std::uint64_t lastDone = 0;
        std::uint64_t lastNs = 0;
        double rate = 0.0;
    };
    std::map<std::string, RateState> rates_;
};

} // namespace eval
