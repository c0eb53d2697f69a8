#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

/// \file metrics.hpp
/// The instrumentation registry: named counters, gauges, and fixed-bucket
/// histograms shared by every layer of the stack (arena, clock engines,
/// synchronizer, decomposers, tools).
///
/// Design constraints, in order:
///   1. The *disabled* path must be near-free. Instrumented components
///      hold plain `Counter*` members that default to nullptr; the hot
///      path is one predictable branch and no call.
///   2. The *enabled* path must be allocation-free. Registration
///      (`registry.counter("name")`) allocates; `inc()`/`record()` are a
///      relaxed atomic add on pre-sized storage — safe to call from the
///      arena hot path without breaking its zero-allocation guarantee
///      (asserted in tests/arena_test.cpp).
///   3. Snapshots must be deterministic. Metrics live in sorted maps and
///      `write_json()` emits them in name order, so two runs with the
///      same seed produce byte-identical reports (the syncts_stats
///      determinism gate relies on this).
///
/// Metrics are "lock-free-ish": increments are relaxed atomics so
/// concurrent writers (the threaded TimestampedNetwork) never lock or
/// tear, but cross-metric consistency of a snapshot taken mid-run is not
/// guaranteed — take snapshots at quiescent points.

namespace syncts::obs {

/// Monotonic event count.
class Counter {
public:
    void inc(std::uint64_t by = 1) noexcept {
        value_.fetch_add(by, std::memory_order_relaxed);
    }
    std::uint64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Instantaneous level (slab bytes, vector width, group counts).
class Gauge {
public:
    void set(std::int64_t v) noexcept {
        value_.store(v, std::memory_order_relaxed);
    }
    void add(std::int64_t by) noexcept {
        value_.fetch_add(by, std::memory_order_relaxed);
    }
    /// Raises the gauge to `v` when it is currently lower — lossless
    /// high-water tracking (e.g. a peak byte count) even with concurrent
    /// writers.
    void set_max(std::int64_t v) noexcept {
        std::int64_t cur = value_.load(std::memory_order_relaxed);
        while (cur < v && !value_.compare_exchange_weak(
                              cur, v, std::memory_order_relaxed)) {
        }
    }
    std::int64_t value() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram for latency/size distributions. Bucket bounds
/// are upper bounds (inclusive), strictly increasing; values above the
/// last bound land in an overflow bucket. Percentile summaries report the
/// upper bound of the bucket containing the quantile (the observed
/// maximum for the overflow bucket) — coarse but allocation-free and
/// deterministic.
class Histogram {
public:
    explicit Histogram(std::span<const std::uint64_t> bounds);

    /// Power-of-two bounds 1, 2, 4, ... (`count` buckets) — the default
    /// spec for tick/byte distributions.
    static std::vector<std::uint64_t> exponential_bounds(std::size_t count);

    void record(std::uint64_t value) noexcept;

    std::uint64_t count() const noexcept {
        return count_.load(std::memory_order_relaxed);
    }
    std::uint64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }

    struct Summary {
        std::uint64_t count = 0;
        std::uint64_t sum = 0;
        std::uint64_t min = 0;  ///< 0 when empty
        std::uint64_t max = 0;
        std::uint64_t p50 = 0;
        std::uint64_t p95 = 0;
        std::uint64_t p99 = 0;
    };
    Summary summary() const noexcept;

    void reset() noexcept;

private:
    std::uint64_t quantile_bound(std::uint64_t target,
                                 std::uint64_t observed_max) const noexcept;

    std::vector<std::uint64_t> bounds_;
    /// bucket_[i] counts values <= bounds_[i]; bucket_[bounds_.size()] is
    /// the overflow bucket. unique_ptr arrays because atomics are not
    /// movable; sized once at construction.
    std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{std::numeric_limits<std::uint64_t>::max()};
    std::atomic<std::uint64_t> max_{0};
};

/// A point-in-time copy of every counter and gauge in a registry, in
/// name order. Snapshots are plain value maps — cheap to diff, encode
/// (flight recorder) and ship (future syncts_serve scrape endpoint).
/// Histograms are summarized at dump time instead of snapshotted; their
/// bucket arrays are too heavy for the periodic path.
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t, std::less<>> counters;
    std::map<std::string, std::int64_t, std::less<>> gauges;

    friend bool operator==(const MetricsSnapshot&,
                           const MetricsSnapshot&) = default;
};

/// The change between two snapshots of the *same* registry:
/// per-counter increments over the interval (rates once divided by the
/// interval length) and the gauges' current levels (gauges are
/// instantaneous — a delta of levels is meaningless, so they pass
/// through).
struct MetricsDelta {
    /// Counter increments over (before, after]. Counters are monotonic;
    /// a counter that appears to have moved backwards (the registry was
    /// reset between snapshots) restarts the interval at its new value,
    /// the standard counter-reset rule.
    std::map<std::string, std::uint64_t, std::less<>> counters;

    /// Gauge levels at the `after` snapshot.
    std::map<std::string, std::int64_t, std::less<>> gauges;

    friend bool operator==(const MetricsDelta&,
                           const MetricsDelta&) = default;
};

/// Diffs two snapshots taken from one registry, `before` first.
/// Counters present only in `after` (registered mid-interval) count
/// from zero; counters present only in `before` are dropped (the
/// registry never unregisters, so this only happens across resets).
MetricsDelta snapshot_delta(const MetricsSnapshot& before,
                            const MetricsSnapshot& after);

/// Creates-or-returns metrics by name. Returned references are stable for
/// the registry's lifetime (metrics are heap-allocated once and never
/// moved), so components cache raw pointers at attach time and never pay
/// a map lookup on the hot path.
class MetricsRegistry {
public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    /// Throws std::invalid_argument if `name` is already a different kind.
    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    /// `bounds` applies on first registration only (later calls return
    /// the existing histogram); empty means exponential_bounds(32).
    Histogram& histogram(std::string_view name,
                         std::span<const std::uint64_t> bounds = {});

    std::size_t size() const noexcept {
        return counters_.size() + gauges_.size() + histograms_.size();
    }

    /// Zeroes every metric (registrations are kept).
    void reset() noexcept;

    /// Copies every counter and gauge value (relaxed reads — take
    /// snapshots at quiescent points for cross-metric consistency).
    MetricsSnapshot snapshot() const;

    /// Bumped on every new registration, never by reset(): a caller
    /// holding a cached `value_layout()` may keep reading values
    /// position-for-position as long as this is unchanged.
    std::uint64_t layout_version() const noexcept { return layout_version_; }

    /// Copies the registered counter and gauge names, in name order —
    /// the positional key for `read_values`.
    void value_layout(std::vector<std::string>& counter_names,
                      std::vector<std::string>& gauge_names) const;

    /// Reads every counter/gauge value into the spans, in name order
    /// (relaxed loads, no allocation, no string work — the flight
    /// recorder's per-interval path). Both spans must exactly match the
    /// current registration counts; throws std::invalid_argument
    /// otherwise (the caller's cached layout is stale).
    void read_values(std::span<std::uint64_t> counter_values,
                     std::span<std::int64_t> gauge_values) const;

    /// Appends the full registry as one deterministic JSON object:
    ///   {"counters":{...},"gauges":{...},"histograms":{"h":{"count":...,
    ///    "sum":...,"min":...,"max":...,"p50":...,"p95":...,"p99":...}}}
    void write_json(std::string& out) const;
    std::string to_json() const;

private:
    void check_unique(std::string_view name) const;

    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>>
        histograms_;
    std::uint64_t layout_version_ = 0;
};

}  // namespace syncts::obs
