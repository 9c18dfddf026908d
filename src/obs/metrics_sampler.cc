#include "obs/metrics_sampler.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include <sys/resource.h>
#include <unistd.h>

#include "obs/progress.hh"
#include "stats/stat_registry.hh"
#include "trace/exit_flush.hh"
#include "util/file_io.hh"

namespace eval {

namespace {

/** EWMA smoothing for snapshot-to-snapshot throughput. */
constexpr double kRateAlpha = 0.3;

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
jsonEscapeInto(std::string &out, const std::string &s)
{
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char hex[8];
                std::snprintf(hex, sizeof hex, "\\u%04x", c);
                out += hex;
            } else {
                out += c;
            }
        }
    }
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    jsonEscapeInto(out, s);
    out += "\"";
    return out;
}

/** Format @p v so it always round-trips as a JSON double (a bare
 *  "%.6g" can print "0", which strict parsers type as Int and which
 *  would wobble the golden schema shape). */
std::string
jsonDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    if (!std::strpbrk(buf, ".einf"))
        std::strcat(buf, ".0");
    return buf;
}

/** Read a small pseudo-file (/proc) fully; empty on failure. */
std::string
slurpSmall(const char *path)
{
    std::FILE *f = std::fopen(path, "r");
    if (!f)
        return "";
    char buf[4096];
    const std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
    std::fclose(f);
    return std::string(buf, n);
}

} // namespace

ResourceSample
sampleProcessResources()
{
    ResourceSample r;

    struct rusage ru;
    if (getrusage(RUSAGE_SELF, &ru) == 0) {
        r.peakRssKb = ru.ru_maxrss; // Linux: KiB
        r.cpuUserS = static_cast<double>(ru.ru_utime.tv_sec) +
                     static_cast<double>(ru.ru_utime.tv_usec) / 1e6;
        r.cpuSysS = static_cast<double>(ru.ru_stime.tv_sec) +
                    static_cast<double>(ru.ru_stime.tv_usec) / 1e6;
    }

    // Current RSS: second field of /proc/self/statm, in pages.
    const std::string statm = slurpSmall("/proc/self/statm");
    if (!statm.empty()) {
        unsigned long sizePages = 0, rssPages = 0;
        if (std::sscanf(statm.c_str(), "%lu %lu", &sizePages,
                        &rssPages) == 2) {
            const long pageKb = sysconf(_SC_PAGESIZE) / 1024;
            r.rssKb = static_cast<long>(rssPages) *
                      (pageKb > 0 ? pageKb : 4);
        }
    }

    // Live thread count: "Threads:\tN" in /proc/self/status.
    const std::string status = slurpSmall("/proc/self/status");
    const std::size_t pos = status.find("Threads:");
    if (pos != std::string::npos) {
        long n = 0;
        if (std::sscanf(status.c_str() + pos, "Threads: %ld", &n) == 1)
            r.threads = n;
    }

    return r;
}

MetricsSampler::~MetricsSampler() { stop(); }

MetricsSampler &
MetricsSampler::global()
{
    static MetricsSampler *s = new MetricsSampler; // usable during exit
    return *s;
}

void
MetricsSampler::configure(const SamplerConfig &config)
{
    std::lock_guard<std::mutex> lock(mutex_);
    config_ = config;
    if (config_.intervalMs == 0)
        config_.intervalMs = 1;
    if (config_.historyCap == 0)
        config_.historyCap = 1;
    seq_ = 0;
    published_ = 0;
    originNs_ = monotonicNs();
    finalPublished_ = false;
    history_.clear();
    rates_.clear();
}

SamplerConfig
MetricsSampler::config() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return config_;
}

bool
MetricsSampler::running() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return running_;
}

void
MetricsSampler::start()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (running_)
            return;
        running_ = true;
        stopRequested_ = false;
        finalPublished_ = false;
        if (originNs_ == 0)
            originNs_ = monotonicNs();
    }
    // Crash path: publish one last snapshot from the exit hook so an
    // aborted campaign still leaves its progress picture behind.
    exitFlushId_ = ExitFlush::global().add(
        "status-snapshot", [this] { flushFinal(); });
    thread_ = std::thread(&MetricsSampler::runLoop, this);
}

void
MetricsSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!running_)
            return;
        stopRequested_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    int flushId = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        running_ = false;
        flushId = exitFlushId_;
        exitFlushId_ = 0;
    }
    if (flushId != 0)
        ExitFlush::global().remove(flushId);
    flushFinal();
}

void
MetricsSampler::runLoop()
{
    publish(sampleNow(false));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stopRequested_) {
        wake_.wait_for(lock,
                       std::chrono::milliseconds(config_.intervalMs),
                       [this] { return stopRequested_; });
        if (stopRequested_)
            break;
        lock.unlock();
        publish(sampleNow(false));
        lock.lock();
    }
}

void
MetricsSampler::flushFinal()
{
    // Park the sampler thread before the final sample: when this runs
    // from the exit hook the process is tearing down, and the loop
    // must not keep touching global registries underneath it.
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopRequested_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable() &&
        thread_.get_id() != std::this_thread::get_id())
        thread_.join();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (finalPublished_)
            return;
        finalPublished_ = true;
    }
    publish(sampleNow(true));
}

StatusSnapshot
MetricsSampler::sampleNow(bool final)
{
    // Registry walks take their own locks; keep ours released until
    // the snapshot is assembled.
    const auto trackers = ProgressRegistry::global().all();
    StatusSnapshot snap;
    snap.final = final;
    snap.pid = static_cast<long>(getpid());
    snap.resources = sampleProcessResources();
    snap.stats = StatRegistry::global().flat();
    const std::uint64_t nowNs = monotonicNs();

    std::lock_guard<std::mutex> lock(mutex_);
    snap.seq = ++seq_;
    snap.tool = config_.tool;
    snap.intervalMs = config_.intervalMs;
    snap.uptimeS =
        originNs_ != 0 && nowNs > originNs_
            ? static_cast<double>(nowNs - originNs_) / 1e9
            : 0.0;

    snap.progress.reserve(trackers.size());
    for (const auto &[name, tracker] : trackers) {
        ProgressSample p;
        p.name = name;
        p.total = tracker->total();
        p.done = tracker->done();
        p.fraction = tracker->fraction();
        p.elapsedS = tracker->elapsedS();

        RateState &rs = rates_[name];
        // Baseline for the first observation: the tracker's own
        // start stamp, so chips/sec is populated from snapshot one.
        std::uint64_t baseNs = rs.lastNs;
        if (baseNs == 0)
            baseNs = tracker->startNs();
        if (baseNs != 0 && nowNs > baseNs && p.done >= rs.lastDone) {
            const double dt =
                static_cast<double>(nowNs - baseNs) / 1e9;
            if (dt > 1e-6) {
                const double inst =
                    static_cast<double>(p.done - rs.lastDone) / dt;
                rs.rate = rs.lastNs == 0
                              ? inst
                              : kRateAlpha * inst +
                                    (1.0 - kRateAlpha) * rs.rate;
                rs.lastNs = nowNs;
                rs.lastDone = p.done;
            }
        }
        p.ratePerS = rs.rate;
        if (p.total != 0 && p.done >= p.total)
            p.etaS = 0.0;
        else if (p.total != 0 && rs.rate > 0.0)
            p.etaS = static_cast<double>(p.total - p.done) / rs.rate;
        snap.progress.push_back(std::move(p));
    }

    history_.push_back(snap);
    while (history_.size() > config_.historyCap)
        history_.pop_front();
    return snap;
}

bool
MetricsSampler::publish(const StatusSnapshot &snap)
{
    std::string statusPath;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Once the final snapshot is out (crash-path flush racing the
        // sampler thread's startup), a non-final publish must not
        // overwrite it: readers treat "final": true as end-of-run.
        if (finalPublished_ && !snap.final)
            return false;
        statusPath = config_.statusPath;
    }
    if (statusPath.empty())
        return true;
    if (!writeFileAtomic(statusPath, statusJson(snap)))
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    ++published_;
    return true;
}

std::vector<StatusSnapshot>
MetricsSampler::history() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return std::vector<StatusSnapshot>(history_.begin(),
                                       history_.end());
}

std::uint64_t
MetricsSampler::published() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return published_;
}

std::string
MetricsSampler::statusJson(const StatusSnapshot &snap)
{
    std::string out = "{\n";
    out += "  \"schema_version\": 1,\n";
    out += "  \"tool\": " + quoted(snap.tool) + ",\n";
    out += "  \"pid\": " + std::to_string(snap.pid) + ",\n";
    out += "  \"seq\": " + std::to_string(snap.seq) + ",\n";
    out += std::string("  \"final\": ") +
           (snap.final ? "true" : "false") + ",\n";
    out += "  \"uptime_s\": " + jsonDouble(snap.uptimeS) + ",\n";
    out += "  \"interval_ms\": " + std::to_string(snap.intervalMs) +
           ",\n";
    out += "  \"resources\": {\"rss_kb\": " +
           std::to_string(snap.resources.rssKb) +
           ", \"peak_rss_kb\": " +
           std::to_string(snap.resources.peakRssKb) +
           ", \"cpu_user_s\": " + jsonDouble(snap.resources.cpuUserS) +
           ", \"cpu_sys_s\": " + jsonDouble(snap.resources.cpuSysS) +
           ", \"threads\": " + std::to_string(snap.resources.threads) +
           "},\n";
    out += "  \"progress\": [";
    for (std::size_t i = 0; i < snap.progress.size(); ++i) {
        const ProgressSample &p = snap.progress[i];
        out += i ? ",\n    {" : "\n    {";
        out += "\"name\": " + quoted(p.name) +
               ", \"total\": " + std::to_string(p.total) +
               ", \"done\": " + std::to_string(p.done) +
               ", \"fraction\": " + jsonDouble(p.fraction) +
               ", \"rate_per_s\": " + jsonDouble(p.ratePerS) +
               ", \"eta_s\": " + jsonDouble(p.etaS) +
               ", \"elapsed_s\": " + jsonDouble(p.elapsedS) + "}";
    }
    out += snap.progress.empty() ? "],\n" : "\n  ],\n";
    out += "  \"stats\": {";
    for (std::size_t i = 0; i < snap.stats.size(); ++i) {
        out += i ? ",\n    " : "\n    ";
        out += quoted(snap.stats[i].first) + ": " +
               jsonDouble(snap.stats[i].second);
    }
    out += snap.stats.empty() ? "}\n" : "\n  }\n";
    out += "}\n";
    return out;
}

} // namespace eval
