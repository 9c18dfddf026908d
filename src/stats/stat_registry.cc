#include "stats/stat_registry.hh"

// eval-lint: counters-only instruments are monotone relaxed counters and
// gauges read only at snapshot/dump time, off the model path.

#include <cmath>
#include <cstdio>
#include <sstream>

#include "util/logging.hh"

namespace eval {

const char *
statTypeName(StatType t)
{
    switch (t) {
      case StatType::Counter:   return "counter";
      case StatType::Gauge:     return "gauge";
    }
    return "?";
}

namespace {

/** JSON number: finite values via %.12g, otherwise null. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

std::vector<std::string>
splitDotted(const std::string &name)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= name.size(); ++i) {
        if (i == name.size() || name[i] == '.') {
            parts.push_back(name.substr(start, i - start));
            start = i + 1;
        }
    }
    return parts;
}

} // namespace

StatRegistry &
StatRegistry::global()
{
    // Leaked: the exit-flush stats dump reads the registry during
    // process teardown, after function-local statics are destroyed.
    static StatRegistry *registry = new StatRegistry;
    return *registry;
}

StatRegistry::Slot &
StatRegistry::slot(const std::string &name, StatType type)
{
    EVAL_ASSERT(!name.empty(), "stat name must not be empty");
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = stats_.find(name);
    if (it != stats_.end()) {
        const StatType existing =
            static_cast<StatType>(it->second->index());
        if (existing != type) {
            EVAL_FATAL("stat '", name, "' already registered as ",
                       statTypeName(existing), ", requested as ",
                       statTypeName(type));
        }
        return *it->second;
    }

    // A dotted name is a tree path: a leaf cannot double as a group.
    const std::string prefix = name + ".";
    for (const auto &[other, unused] : stats_) {
        (void)unused;
        if (other.compare(0, prefix.size(), prefix) == 0 ||
            name.compare(0, other.size() + 1, other + ".") == 0) {
            EVAL_FATAL("stat '", name, "' conflicts with the hierarchy "
                       "of existing stat '", other, "'");
        }
    }

    auto made = type == StatType::Counter
                    ? std::make_unique<Slot>(std::in_place_type<Counter>)
                    : std::make_unique<Slot>(std::in_place_type<Gauge>);
    it = stats_.emplace(name, std::move(made)).first;
    return *it->second;
}

Counter &
StatRegistry::counter(const std::string &name)
{
    return std::get<Counter>(slot(name, StatType::Counter));
}

Gauge &
StatRegistry::gauge(const std::string &name)
{
    return std::get<Gauge>(slot(name, StatType::Gauge));
}

bool
StatRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.count(name) > 0;
}

std::size_t
StatRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_.size();
}

void
StatRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, s] : stats_) {
        (void)name;
        std::visit([](auto &stat) { stat.reset(); }, *s);
    }
}

std::string
StatRegistry::json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{";
    std::vector<std::string> open;   // current group path
    bool firstEntry = true;

    const auto indent = [&os](std::size_t depth) {
        os << "\n";
        for (std::size_t i = 0; i < depth + 1; ++i)
            os << "  ";
    };

    for (const auto &[name, s] : stats_) {
        std::vector<std::string> parts = splitDotted(name);
        const std::string leaf = parts.back();
        parts.pop_back();

        std::size_t common = 0;
        while (common < open.size() && common < parts.size() &&
               open[common] == parts[common]) {
            ++common;
        }
        // Close groups below the common prefix.
        while (open.size() > common) {
            open.pop_back();
            indent(open.size());
            os << "}";
        }
        if (!firstEntry)
            os << ",";
        firstEntry = false;
        // Open the new groups.
        while (open.size() < parts.size()) {
            indent(open.size());
            os << "\"" << parts[open.size()] << "\": {";
            open.push_back(parts[open.size()]);
        }
        indent(open.size());

        os << "\"" << leaf << "\": ";
        std::visit(
            [&os](const auto &stat) {
                using T = std::decay_t<decltype(stat)>;
                if constexpr (std::is_same_v<T, Counter>) {
                    os << "{\"type\": \"counter\", \"value\": "
                       << stat.value() << "}";
                } else {
                    os << "{\"type\": \"gauge\", \"value\": "
                       << jsonNumber(stat.value()) << "}";
                }
            },
            *s);
    }
    while (!open.empty()) {
        open.pop_back();
        indent(open.size());
        os << "}";
    }
    os << "\n}\n";
    return os.str();
}

namespace {

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot open '", path, "' for writing");
        return false;
    }
    const bool ok =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    std::fclose(f);
    if (!ok)
        warn("short write to '", path, "'");
    return ok;
}

} // namespace

bool
StatRegistry::writeJson(const std::string &path) const
{
    return writeTextFile(path, json());
}

} // namespace eval
