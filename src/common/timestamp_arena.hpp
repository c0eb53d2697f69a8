#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/ts_kernels.hpp"
#include "obs/metrics.hpp"

/// \file timestamp_arena.hpp
/// Arena storage for vector timestamps: one flat std::uint64_t slab per
/// system instead of one heap vector per timestamp.
///
/// Every timestamp in a system shares one width (d for the online
/// algorithm, N for the Fidge–Mattern baselines, width(P) offline), so the
/// arena stores the width once and packs the components of slot h at
/// slab[h*width .. (h+1)*width). Handles are plain 32-bit slot indices —
/// stable across growth (the slab may reallocate, but handles index rows,
/// not addresses), trivially serializable, and half the size of a pointer
/// in the structures that hold them (TimestampedTrace keeps one per
/// message).
///
/// The layout flattens what used to be a std::vector<VectorTimestamp> —
/// M separate allocations, each with its own capacity/size header and
/// pointer chase — into a single slab with zero per-timestamp overhead,
/// so the batch precedence kernels (leq_many, relate_many, dominators_of)
/// stream rows at memory bandwidth, with AVX2 paths dispatched at runtime
/// (ts_simd.hpp).
///
/// The slab is one std::vector that keeps its capacity across clear()
/// (docs/MEMORY.md). Growth doubles it but is clamped to `max_slots` (at
/// most the 2^32−1 handle space) and throws a typed ArenaFullError
/// instead of wrapping handles.
///
/// Spans returned by span()/row() are invalidated by allocate()/reserve()
/// (slab growth may reallocate); re-fetch after any allocation, exactly as
/// with std::vector iterators.

namespace syncts {

/// Index of a timestamp slot within a TimestampArena, 0-based, dense.
using TsHandle = std::uint32_t;

/// Sentinel for "no timestamp slot".
inline constexpr TsHandle kNoTimestamp =
    std::numeric_limits<TsHandle>::max();

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

class TimestampArena {
public:
    /// Arena for timestamps of `width` components each; optionally
    /// pre-reserves room for `reserve_slots` slots. `max_slots` caps
    /// growth below the 32-bit handle space — allocate() past it throws
    /// ArenaFullError.
    explicit TimestampArena(std::size_t width, std::size_t reserve_slots = 0,
                            std::size_t max_slots = kNoTimestamp)
        : width_(width),
          max_slots_(std::min<std::size_t>(max_slots, kNoTimestamp)) {
        if (reserve_slots > 0 && width_ > 0) reserve(reserve_slots);
    }

    /// Components per timestamp (fixed for the arena's lifetime).
    std::size_t width() const noexcept { return width_; }

    /// Number of allocated slots.
    std::size_t size() const noexcept {
        return width_ == 0 ? zero_width_slots_ : words_.size() / width_;
    }

    /// Slots the slab can hold before reallocating.
    std::size_t capacity() const noexcept {
        return width_ == 0 ? zero_width_slots_ : words_.capacity() / width_;
    }

    /// Slot ceiling (see the constructor) — never above kNoTimestamp.
    std::size_t max_slots() const noexcept { return max_slots_; }

    /// Pre-grows the slab to hold at least `slots` slots; throws
    /// ArenaFullError past max_slots().
    void reserve(std::size_t slots) {
        if (width_ == 0 || slots <= capacity()) return;
        if (slots > max_slots_) throw ArenaFullError(slots, max_slots_);
        words_.reserve(slots * width_);
    }

    /// Allocates one zero-initialized slot and returns its handle;
    /// throws ArenaFullError when the slot ceiling (at most the 32-bit
    /// handle space) is exhausted.
    TsHandle allocate() {
        const std::size_t slot = size();
        if (slot >= max_slots_) throw ArenaFullError(slot + 1, max_slots_);
        if (width_ == 0) {
            ++zero_width_slots_;
        } else {
            if (words_.size() + width_ > words_.capacity()) {
                // Doubling growth, clamped to the slot ceiling so the word
                // count cannot overflow (max_slots_ <= 2^32−1 keeps
                // slots*width within std::size_t for any sane width).
                const std::size_t doubled =
                    std::max<std::size_t>(capacity() * 2, 8);
                words_.reserve(std::min(doubled, max_slots_) * width_);
                if (metrics_.growths != nullptr) metrics_.growths->inc();
            }
            words_.resize(words_.size() + width_);
        }
        if (metrics_.slots != nullptr) {
            metrics_.slots->inc();
            metrics_.bytes->set(static_cast<std::int64_t>(
                words_.capacity() * sizeof(std::uint64_t)));
        }
        return static_cast<TsHandle>(slot);
    }

    /// Allocates one slot holding a copy of `components` (width must
    /// match).
    TsHandle allocate(std::span<const std::uint64_t> components) {
        SYNCTS_REQUIRE(components.size() == width_,
                       "component count does not match the arena width");
        const TsHandle h = allocate();
        ts::copy(span(h), components);
        return h;
    }

    /// Mutable view of slot h's components.
    std::span<std::uint64_t> span(TsHandle h) {
        SYNCTS_REQUIRE(h < size(), "timestamp handle out of range");
        return {words_.data() + static_cast<std::size_t>(h) * width_, width_};
    }

    /// Read-only view of slot h's components.
    std::span<const std::uint64_t> span(TsHandle h) const {
        SYNCTS_REQUIRE(h < size(), "timestamp handle out of range");
        return {words_.data() + static_cast<std::size_t>(h) * width_, width_};
    }

    /// Drops every slot but keeps the slab — the steady-state reuse path
    /// (no allocation on the next capacity() allocations).
    void clear() noexcept {
        words_.clear();
        zero_width_slots_ = 0;
        if (metrics_.clears != nullptr) metrics_.clears->inc();
    }

    /// The whole slab (row h at [h*width, (h+1)*width)) — for bulk
    /// serialization and the batch kernels.
    std::span<const std::uint64_t> slab() const noexcept { return words_; }

    /// Registers this arena's metrics under `<prefix>_*` and starts
    /// counting: `_slots` (handle churn), `_slab_growths` (reallocations),
    /// `_slab_bytes` (capacity gauge), `_clears`, `_kernel_calls` and
    /// `_kernel_rows` (batch-kernel traffic). Registration allocates; the
    /// instrumented hot path does not (one branch + relaxed add). The
    /// registry must outlive the arena.
    void attach_metrics(obs::MetricsRegistry& registry,
                        std::string_view prefix = "arena") {
        const std::string p(prefix);
        metrics_.slots = &registry.counter(p + "_slots");
        metrics_.growths = &registry.counter(p + "_slab_growths");
        metrics_.clears = &registry.counter(p + "_clears");
        metrics_.bytes = &registry.gauge(p + "_slab_bytes");
        metrics_.kernel_calls = &registry.counter(p + "_kernel_calls");
        metrics_.kernel_rows = &registry.counter(p + "_kernel_rows");
        metrics_.bytes->set(static_cast<std::int64_t>(
            words_.capacity() * sizeof(std::uint64_t)));
    }

    /// Detaches from the registry (hot path reverts to the null branch).
    void detach_metrics() noexcept {
        metrics_.slots = nullptr;
        metrics_.growths = nullptr;
        metrics_.clears = nullptr;
        metrics_.bytes = nullptr;
        metrics_.kernel_calls = nullptr;
        metrics_.kernel_rows = nullptr;
    }

    /// Batch kernels report their traffic here (no-op when detached).
    void note_kernel(std::size_t rows) const noexcept {
        if (metrics_.kernel_calls != nullptr) {
            metrics_.kernel_calls->inc();
            metrics_.kernel_rows->inc(static_cast<std::uint64_t>(rows));
        }
    }

    /// Equality is over contents only (width and rows), not over the
    /// metrics attachment or slot ceiling.
    friend bool operator==(const TimestampArena& a, const TimestampArena& b) {
        return a.width_ == b.width_ &&
               a.zero_width_slots_ == b.zero_width_slots_ &&
               a.words_ == b.words_;
    }

private:
    /// The registry hooks of attach_metrics (nullptr = detached). A copy
    /// or move yields a detached value and assignment keeps the target's
    /// own hooks, so a copied arena never double-counts into its source's
    /// registry, nor keeps a pointer into one that may be gone.
    struct Metrics {
        obs::Counter* slots = nullptr;
        obs::Counter* growths = nullptr;
        obs::Counter* clears = nullptr;
        obs::Gauge* bytes = nullptr;
        obs::Counter* kernel_calls = nullptr;
        obs::Counter* kernel_rows = nullptr;

        Metrics() = default;
        Metrics(const Metrics&) noexcept {}
        Metrics& operator=(const Metrics&) noexcept { return *this; }
    };

    std::size_t width_;
    /// size() rows of width_ words each.
    std::vector<std::uint64_t> words_;
    /// Width-0 arenas (degenerate but legal: empty realizers) have no slab
    /// words, so the slot count is tracked explicitly.
    std::size_t zero_width_slots_ = 0;
    /// Growth ceiling in slots, at most kNoTimestamp.
    std::size_t max_slots_ = kNoTimestamp;
    Metrics metrics_;
};

/// Typed error for a read of a stamp the window has already retired (or
/// not yet produced): a stale logical id is an operational condition,
/// never a dangling span.
class RetiredStampError : public std::out_of_range {
public:
    RetiredStampError(std::uint64_t id, std::uint64_t frontier,
                      std::uint64_t next)
        : std::out_of_range("stamp " + std::to_string(id) +
                            " is outside the resident window [" +
                            std::to_string(frontier) + ", " +
                            std::to_string(next) + ")"),
          id_(id) {}

    std::uint64_t id() const noexcept { return id_; }

private:
    std::uint64_t id_;
};

/// Windowed recycling over an unbounded stamp stream (docs/STREAMING.md).
///
/// A streaming ingestion run produces one stamp per message, forever —
/// far past the 2^32−1 handle space a plain `TimestampArena` guards with
/// `ArenaFullError`. `WindowedTimestampArena` keeps the guard and removes
/// the ceiling: it pre-sizes an arena of `window` slots, addresses them
/// by **64-bit logical id** (slot = id mod window), and retires the
/// oldest stamp wholesale whenever a push would exceed the window, one
/// ring step at a time.
/// Logical ids never wrap and never alias: a read outside
/// [frontier, next) throws `RetiredStampError`.
///
/// A producer may write the next stamp in place: next_slot() hands out
/// the slot, commit() publishes it. push() is a copy into next_slot()
/// followed by a commit().
class WindowedTimestampArena {
public:
    /// `first_id` seeds the logical id stream — tests use it to cross
    /// the 2^32 boundary without four billion pushes.
    WindowedTimestampArena(std::size_t width, std::size_t window,
                           std::uint64_t first_id = 0)
        : arena_(width, window),
          window_(window),
          frontier_(first_id),
          next_(first_id) {
        SYNCTS_REQUIRE(window > 0, "window must be positive");
        SYNCTS_REQUIRE(window <= kNoTimestamp,
                       "window cannot exceed the 32-bit slot space");
        for (std::size_t i = 0; i < window; ++i) arena_.allocate();
        cursor_ = slot_of(first_id);
    }

    std::size_t width() const noexcept { return arena_.width(); }
    std::size_t window() const noexcept { return window_; }

    /// Oldest resident logical id (== next() when nothing is resident).
    std::uint64_t frontier() const noexcept { return frontier_; }
    /// Logical id the next push() will return.
    std::uint64_t next() const noexcept { return next_; }
    /// Resident stamps, at most window().
    std::size_t resident() const noexcept {
        return static_cast<std::size_t>(next_ - frontier_);
    }

    bool is_resident(std::uint64_t id) const noexcept {
        return id >= frontier_ && id < next_;
    }

    /// Appends a stamp, retiring the oldest resident one when the window
    /// is full. Returns the stamp's logical id.
    std::uint64_t push(std::span<const std::uint64_t> components) {
        SYNCTS_REQUIRE(components.size() == arena_.width(),
                       "component count must equal arena width");
        ts::copy(next_slot(), components);
        return commit();
    }

    /// The slot that the next commit() publishes as id next(), width()
    /// words, for an in-place write. When the window is full it is the
    /// slot of the oldest resident stamp, which stays readable until the
    /// commit: write it only once the stamp is certain.
    std::span<std::uint64_t> next_slot() { return arena_.span(cursor_); }

    /// Publishes next_slot() as stamp next(), retiring the oldest
    /// resident one when the window is full. Returns the stamp's logical
    /// id.
    std::uint64_t commit() noexcept {
        const std::uint64_t id = next_;
        if (resident() == window_) ++frontier_;  // wholesale ring retire
        ++next_;
        if (++cursor_ == window_) cursor_ = 0;
        return id;
    }

    /// Resident stamp for `id`; throws RetiredStampError outside the
    /// window.
    std::span<const std::uint64_t> span(std::uint64_t id) const {
        if (!is_resident(id)) throw RetiredStampError(id, frontier_, next_);
        return arena_.span(slot_of(id));
    }

    /// Registers the backing arena's metrics plus the resident-rows
    /// gauge <prefix>_resident_rows (docs/OBSERVABILITY.md).
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "window") {
        arena_.attach_metrics(registry, prefix);
        metric_resident_ = &registry.gauge(prefix + "_resident_rows");
        metric_resident_->set(static_cast<std::int64_t>(resident()));
    }

    /// Publishes the current residency to the gauge (cheap; callers
    /// sample at their own cadence rather than per push).
    void publish_residency() noexcept {
        if (metric_resident_ != nullptr) {
            metric_resident_->set(static_cast<std::int64_t>(resident()));
        }
    }

private:
    TsHandle slot_of(std::uint64_t id) const noexcept {
        return static_cast<TsHandle>(id % window_);
    }

    TimestampArena arena_;
    std::size_t window_;
    std::uint64_t frontier_;
    std::uint64_t next_;
    /// slot_of(next_), advanced by commit() without a division.
    TsHandle cursor_ = 0;
    obs::Gauge* metric_resident_ = nullptr;
};

struct AnalysisOptions;

/// out[i] = (probe ≤ slot i), for every slot. `out.size()` must equal
/// `arena.size()`. The batch form of the Section 2 ≤ test. Dispatches to
/// the AVX2 kernel when the host supports it (ts_simd.hpp); the scalar
/// fallback is bit-identical.
void leq_many(const TimestampArena& arena,
              std::span<const std::uint64_t> probe,
              std::span<std::uint8_t> out);

/// Sharded form: slot ranges are split across the analysis pool; each
/// shard writes its own disjoint out range, so the result is byte-equal
/// to the serial form at any thread count.
void leq_many(const TimestampArena& arena,
              std::span<const std::uint64_t> probe,
              std::span<std::uint8_t> out, const AnalysisOptions& options);

/// out[i] = ts::relate(slot i, probe) (bit kRowLeq: slot ≤ probe, bit
/// kProbeLeq: probe ≤ slot) — one pass answering before/after/equal/
/// concurrent for probe vs every slot. Runtime-dispatched like leq_many.
void relate_many(const TimestampArena& arena,
                 std::span<const std::uint64_t> probe,
                 std::span<std::uint8_t> out);

/// Sharded form; same determinism contract as the sharded leq_many.
void relate_many(const TimestampArena& arena,
                 std::span<const std::uint64_t> probe,
                 std::span<std::uint8_t> out, const AnalysisOptions& options);

/// Handles of every slot whose timestamp strictly dominates `probe`
/// (probe < slot in the vector order) — "everything causally after
/// probe", the building block of frontier/orphan queries.
std::vector<TsHandle> dominators_of(const TimestampArena& arena,
                                    std::span<const std::uint64_t> probe);

}  // namespace syncts
