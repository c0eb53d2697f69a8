#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace syncts::obs {

namespace {

void append_escaped(std::string& out, std::string_view text) {
    for (const char c : text) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x",
                                  static_cast<unsigned>(
                                      static_cast<unsigned char>(c)));
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
}

void append_key(std::string& out, std::string_view name) {
    out += '"';
    append_escaped(out, name);
    out += "\":";
}

}  // namespace

// ---- Histogram ---------------------------------------------------------

Histogram::Histogram(std::span<const std::uint64_t> bounds)
    : bounds_(bounds.begin(), bounds.end()) {
    if (bounds_.empty()) {
        bounds_ = exponential_bounds(32);
    }
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        if (bounds_[i - 1] >= bounds_[i]) {
            throw std::invalid_argument(
                "histogram bounds must be strictly increasing");
        }
    }
    buckets_ = std::make_unique<std::atomic<std::uint64_t>[]>(
        bounds_.size() + 1);
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
}

std::vector<std::uint64_t> Histogram::exponential_bounds(std::size_t count) {
    std::vector<std::uint64_t> bounds;
    bounds.reserve(count);
    std::uint64_t bound = 1;
    for (std::size_t i = 0; i < count; ++i) {
        bounds.push_back(bound);
        if (bound > (std::numeric_limits<std::uint64_t>::max() >> 1)) break;
        bound <<= 1;
    }
    return bounds;
}

void Histogram::record(std::uint64_t value) noexcept {
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    const std::size_t bucket =
        static_cast<std::size_t>(it - bounds_.begin());
    buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    // Relaxed CAS min/max: fine for the "lock-free-ish" contract — the
    // final quiescent values are exact, transient reads may lag.
    std::uint64_t seen = min_.load(std::memory_order_relaxed);
    while (value < seen &&
           !min_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen &&
           !max_.compare_exchange_weak(seen, value,
                                       std::memory_order_relaxed)) {
    }
}

std::uint64_t Histogram::quantile_bound(
    std::uint64_t target, std::uint64_t observed_max) const noexcept {
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
        cumulative += buckets_[i].load(std::memory_order_relaxed);
        if (cumulative >= target) {
            return std::min(bounds_[i], observed_max);
        }
    }
    return observed_max;
}

Histogram::Summary Histogram::summary() const noexcept {
    Summary s;
    s.count = count();
    s.sum = sum();
    if (s.count == 0) return s;
    s.min = min_.load(std::memory_order_relaxed);
    s.max = max_.load(std::memory_order_relaxed);
    const auto target = [&](std::uint64_t pct) {
        // ceil(count * pct / 100), >= 1
        return std::max<std::uint64_t>(1, (s.count * pct + 99) / 100);
    };
    s.p50 = quantile_bound(target(50), s.max);
    s.p95 = quantile_bound(target(95), s.max);
    s.p99 = quantile_bound(target(99), s.max);
    return s;
}

void Histogram::reset() noexcept {
    for (std::size_t i = 0; i <= bounds_.size(); ++i) {
        buckets_[i].store(0, std::memory_order_relaxed);
    }
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<std::uint64_t>::max(),
               std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
}

// ---- Snapshots ---------------------------------------------------------

MetricsDelta snapshot_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after) {
    MetricsDelta delta;
    // `before` walks in lockstep with `after` (both are name-ordered),
    // so the whole diff is one linear pass with no per-name lookups.
    auto prev = before.counters.begin();
    for (const auto& [name, value] : after.counters) {
        while (prev != before.counters.end() && prev->first < name) ++prev;
        // A new counter, or one reset mid-interval, restarts the interval
        // at its current value.
        const bool restart = prev == before.counters.end() ||
                             prev->first != name || prev->second > value;
        delta.counters.emplace_hint(delta.counters.end(), name,
                                    restart ? value : value - prev->second);
    }
    delta.gauges = after.gauges;
    return delta;
}

// ---- MetricsRegistry ---------------------------------------------------

void MetricsRegistry::check_unique(std::string_view name) const {
    const int hits = (counters_.count(name) ? 1 : 0) +
                     (gauges_.count(name) ? 1 : 0) +
                     (histograms_.count(name) ? 1 : 0);
    if (hits != 0) {
        throw std::invalid_argument("metric name '" + std::string(name) +
                                    "' is already registered as a "
                                    "different kind");
    }
}

Counter& MetricsRegistry::counter(std::string_view name) {
    if (const auto it = counters_.find(name); it != counters_.end()) {
        return *it->second;
    }
    check_unique(name);
    ++layout_version_;
    return *counters_.emplace(std::string(name), std::make_unique<Counter>())
                .first->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
    if (const auto it = gauges_.find(name); it != gauges_.end()) {
        return *it->second;
    }
    check_unique(name);
    ++layout_version_;
    return *gauges_.emplace(std::string(name), std::make_unique<Gauge>())
                .first->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const std::uint64_t> bounds) {
    if (const auto it = histograms_.find(name); it != histograms_.end()) {
        return *it->second;
    }
    check_unique(name);
    ++layout_version_;
    return *histograms_
                .emplace(std::string(name),
                         std::make_unique<Histogram>(bounds))
                .first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
    MetricsSnapshot snap;
    for (const auto& [name, counter] : counters_) {
        snap.counters.emplace_hint(snap.counters.end(), name,
                                   counter->value());
    }
    for (const auto& [name, gauge] : gauges_) {
        snap.gauges.emplace_hint(snap.gauges.end(), name, gauge->value());
    }
    return snap;
}

void MetricsRegistry::value_layout(std::vector<std::string>& counter_names,
                                   std::vector<std::string>& gauge_names)
    const {
    counter_names.clear();
    counter_names.reserve(counters_.size());
    for (const auto& [name, c] : counters_) counter_names.push_back(name);
    gauge_names.clear();
    gauge_names.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_) gauge_names.push_back(name);
}

void MetricsRegistry::read_values(std::span<std::uint64_t> counter_values,
                                  std::span<std::int64_t> gauge_values) const {
    if (counter_values.size() != counters_.size() ||
        gauge_values.size() != gauges_.size()) {
        throw std::invalid_argument(
            "read_values: span sizes do not match the registry layout");
    }
    std::size_t i = 0;
    for (const auto& [name, c] : counters_) counter_values[i++] = c->value();
    i = 0;
    for (const auto& [name, g] : gauges_) gauge_values[i++] = g->value();
}

void MetricsRegistry::reset() noexcept {
    for (auto& [name, c] : counters_) c->reset();
    for (auto& [name, g] : gauges_) g->reset();
    for (auto& [name, h] : histograms_) h->reset();
}

void MetricsRegistry::write_json(std::string& out) const {
    out += "{\"counters\":{";
    bool first = true;
    for (const auto& [name, c] : counters_) {
        if (!first) out += ',';
        first = false;
        append_key(out, name);
        out += std::to_string(c->value());
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, g] : gauges_) {
        if (!first) out += ',';
        first = false;
        append_key(out, name);
        out += std::to_string(g->value());
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, h] : histograms_) {
        if (!first) out += ',';
        first = false;
        append_key(out, name);
        const Histogram::Summary s = h->summary();
        out += "{\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + std::to_string(s.sum) +
               ",\"min\":" + std::to_string(s.min) +
               ",\"max\":" + std::to_string(s.max) +
               ",\"p50\":" + std::to_string(s.p50) +
               ",\"p95\":" + std::to_string(s.p95) +
               ",\"p99\":" + std::to_string(s.p99) + "}";
    }
    out += "}}";
}

std::string MetricsRegistry::to_json() const {
    std::string out;
    write_json(out);
    return out;
}

}  // namespace syncts::obs
