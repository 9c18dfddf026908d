/**
 * @file
 * Simulator-wide statistics registry in the spirit of gem5's Stats
 * framework: named Counter / Gauge instruments,
 * registered under dotted hierarchical names
 * ("core0.controller.retunes", "chip.thermal.throttle_steps"),
 * snapshotable mid-run and dumpable as nested JSON.
 *
 * Conventions:
 *  - Registration is idempotent: asking for an existing name of the
 *    same type returns the same instrument; a type clash or a
 *    group/leaf clash ("a.b" vs "a.b.c") is a fatal error.
 *  - Instruments are never deallocated while the registry lives, so
 *    hot paths may cache references (typically as function-local
 *    statics).  reset() zeroes values but keeps registrations.
 *  - Every instrument is safe to update from concurrent parallelFor
 *    bodies: Counter and Gauge use relaxed atomics (an increment is
 *    one uncontended atomic RMW).  Registration itself is
 *    mutex-protected.
 *  - Wall-clock profiling is not a stat: it belongs to the span
 *    profiler (src/trace/span_tracer.hh).
 */

#pragma once

// eval-lint: counters-only instruments are monotone relaxed counters and
// gauges read only at snapshot/dump time, off the model path.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <variant>
#include <vector>

namespace eval {

/** Kind tag of one registered instrument. */
enum class StatType { Counter, Gauge };

const char *statTypeName(StatType t);

/**
 * Monotonic event counter.  Increments are relaxed atomic RMWs, so
 * hot loops may bump a cached Counter& from any pool thread; totals
 * are exact (the relaxed order only relaxes inter-stat ordering).
 */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

    /**
     * Fold @p other into this counter.  u64 addition is exact and
     * associative, so merging per-shard counters in any grouping
     * yields the same total as counting every event in one process —
     * the counter leg of the shard-equivalence guarantee
     * (DESIGN.md Sec 5h).
     */
    void merge(const Counter &other) { inc(other.value()); }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-value instrument (temperatures, table sizes, ...).  Atomic
 *  store/load; concurrent setters race benignly (last writer wins). */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * The hierarchical instrument registry.  Most code uses the process
 * singleton (global()); tests may build private instances.
 */
class StatRegistry
{
  public:
    StatRegistry() = default;
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /** The simulator-wide registry. */
    static StatRegistry &global();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);

    /** Whether @p name is registered (any type). */
    bool has(const std::string &name) const;

    std::size_t size() const;

    /** Zero every instrument, keeping registrations (and therefore
     *  any cached references) valid. */
    void reset();

    /** Nested-JSON snapshot of every instrument, grouped by the
     *  dotted-name hierarchy. */
    std::string json() const;

    bool writeJson(const std::string &path) const;

  private:
    using Slot = std::variant<Counter, Gauge>;

    /** Find-or-create @p name; fatal on type or hierarchy clash. */
    Slot &slot(const std::string &name, StatType type);

    mutable std::mutex mutex_;
    /** Ordered so dumps group hierarchy prefixes together. */
    std::map<std::string, std::unique_ptr<Slot>> stats_;
};

} // namespace eval

