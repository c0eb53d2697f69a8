#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

/// \file region.hpp
/// Recycled slab memory for scoped arenas and buffers (docs/MEMORY.md).
///
/// Scoped storage — an epoch-scoped arena, a batch frame's scratch, a
/// stamp window — is given back whole, so it is served from recycled
/// slabs rather than freed object by object:
///  - `Slab` / `SlabPool`: power-of-two size-classed recycling of raw
///    std::uint64_t chunks. Steady state across scope churn performs zero
///    heap allocations: scope e+1 is served from scope e−k's returned
///    slabs.
///  - `TimestampArena` (timestamp_arena.hpp) optionally draws its slab
///    from a pool instead of the heap; its destructor gives the slab
///    back.

namespace syncts {

/// Typed error for timestamp-handle-space exhaustion: the arena cannot
/// grow past `max_slots` (at most 2^32−1, the 32-bit handle space).
/// Thrown instead of silently wrapping handles — exhaustion is an
/// operational condition a long-lived server must be able to catch and
/// shed load on, not UB.
class ArenaFullError : public std::length_error {
public:
    ArenaFullError(std::size_t requested_slots, std::size_t max_slots)
        : std::length_error(
              "timestamp arena full: slot " +
              std::to_string(requested_slots) + " would exceed the " +
              std::to_string(max_slots) + "-slot handle space"),
          requested_slots_(requested_slots),
          max_slots_(max_slots) {}

    std::size_t requested_slots() const noexcept { return requested_slots_; }
    std::size_t max_slots() const noexcept { return max_slots_; }

private:
    std::size_t requested_slots_;
    std::size_t max_slots_;
};

/// A raw chunk of std::uint64_t words. Move-only; ownership passes
/// through the pool by value.
struct Slab {
    std::unique_ptr<std::uint64_t[]> words;
    std::size_t capacity_words = 0;

    Slab() = default;
    Slab(std::unique_ptr<std::uint64_t[]> w, std::size_t cap) noexcept
        : words(std::move(w)), capacity_words(cap) {}

    explicit operator bool() const noexcept { return words != nullptr; }
};

/// Recycles slabs across regions in power-of-two size classes.
///
/// `acquire(min_words)` rounds the request up to the next size class and
/// pops a cached slab of that class when one exists (pure pointer moves),
/// else heap-allocates. `release()` pushes the slab back into its class
/// in O(1); nothing is freed until `trim()` or destruction, so a server
/// cycling epochs of similar width reaches a zero-allocation steady
/// state whose footprint is O(live width), not O(epochs).
///
/// Not thread-safe: one pool per protocol run / analysis, like the
/// arenas it feeds.
class SlabPool {
public:
    SlabPool() = default;
    SlabPool(const SlabPool&) = delete;
    SlabPool& operator=(const SlabPool&) = delete;

    /// A slab with capacity_words >= max(min_words, 1) — recycled when a
    /// matching class is cached, freshly allocated otherwise.
    Slab acquire(std::size_t min_words);

    /// Returns a slab to its size class in O(1). Empty slabs are ignored.
    void release(Slab&& slab) noexcept;

    /// Frees every cached slab (the pool stays usable).
    void trim() noexcept;

    /// Bytes currently cached in the pool (released, awaiting reuse).
    std::size_t cached_bytes() const noexcept { return cached_bytes_; }

    /// Bytes currently on lease (acquired, not yet released).
    std::size_t leased_bytes() const noexcept { return leased_bytes_; }

    /// High-water mark of leased + cached bytes — the pool's real
    /// footprint. The epoch-churn soak gates on this staying O(live
    /// width) instead of O(epochs).
    std::size_t peak_bytes() const noexcept { return peak_bytes_; }

    std::uint64_t acquires() const noexcept { return acquires_; }
    std::uint64_t reuses() const noexcept { return reuses_; }

    /// Registers `<prefix>_acquires/_reuses/_releases` counters and
    /// `<prefix>_cached_bytes/_leased_bytes/_peak_bytes` gauges. The
    /// registry must outlive the pool.
    void attach_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "slabpool");

private:
    static std::size_t size_class(std::size_t words) noexcept;
    void note_footprint() noexcept;

    /// Buckets by log2(capacity_words); 64 covers every size_t class.
    std::array<std::vector<Slab>, 64> buckets_{};
    std::size_t cached_bytes_ = 0;
    std::size_t leased_bytes_ = 0;
    std::size_t peak_bytes_ = 0;
    std::uint64_t acquires_ = 0;
    std::uint64_t reuses_ = 0;
    std::uint64_t releases_ = 0;
    obs::Counter* metric_acquires_ = nullptr;
    obs::Counter* metric_reuses_ = nullptr;
    obs::Counter* metric_releases_ = nullptr;
    obs::Gauge* metric_cached_bytes_ = nullptr;
    obs::Gauge* metric_leased_bytes_ = nullptr;
    obs::Gauge* metric_peak_bytes_ = nullptr;
};

}  // namespace syncts
