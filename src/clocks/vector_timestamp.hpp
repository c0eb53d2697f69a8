#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/timestamp_arena.hpp"
#include "common/ts_kernels.hpp"

/// \file vector_timestamp.hpp
/// Fixed-width vector timestamps and the vector order of Equation (2):
///     u < v ⟺ (∀k: u[k] ≤ v[k]) ∧ (∃j: u[j] < v[j]).
/// The width is d (edge-decomposition size) for the online algorithm,
/// N for the Fidge–Mattern baselines, and width(P) for the offline one.
///
/// VectorTimestamp is the *owning* value type — convenient for tests,
/// tooling, and post-run records. The hot paths (the Fig. 5 protocol
/// hooks, TimestampedTrace queries, wire serialization) operate on raw
/// component spans via the ts:: kernels and TimestampArena rows instead;
/// every comparison method here is a thin wrapper over the same kernels,
/// so both representations are bit-identical by construction.

namespace syncts {

class VectorTimestamp {
public:
    VectorTimestamp() = default;

    /// Zero vector of the given width.
    explicit VectorTimestamp(std::size_t width) : components_(width, 0) {}

    /// Vector with explicit components (convenient in tests).
    explicit VectorTimestamp(std::vector<std::uint64_t> components)
        : components_(std::move(components)) {}

    /// Owning copy of a component span (e.g. a TimestampArena row).
    explicit VectorTimestamp(std::span<const std::uint64_t> components)
        : components_(components.begin(), components.end()) {}

    std::size_t width() const noexcept { return components_.size(); }

    std::uint64_t operator[](std::size_t k) const {
        SYNCTS_REQUIRE(k < components_.size(), "component out of range");
        return components_[k];
    }

    std::span<const std::uint64_t> components() const noexcept {
        return components_;
    }

    /// Mutable view for span kernels operating in place.
    std::span<std::uint64_t> mutable_components() noexcept {
        return components_;
    }

    /// In-place component-wise maximum ("∀k: v_i[k] = max(v_i[k], v[k])",
    /// Fig. 5 lines (05)/(09)). Widths must match.
    void join(const VectorTimestamp& other) {
        SYNCTS_REQUIRE(width() == other.width(),
                       "joining timestamps of different widths");
        ts::join(components_, other.components_);
    }

    /// Increment component k ("v_i[g]++", Fig. 5 lines (06)/(10)).
    void increment(std::size_t k) {
        SYNCTS_REQUIRE(k < components_.size(), "component out of range");
        ts::increment(components_, k);
    }

    /// Component-wise ≤ (every component no larger). Reflexive.
    bool leq(const VectorTimestamp& other) const {
        SYNCTS_REQUIRE(width() == other.width(),
                       "comparing timestamps of different widths");
        return ts::leq(components_, other.components_);
    }

    /// The strict vector order of Equation (2).
    bool less(const VectorTimestamp& other) const {
        SYNCTS_REQUIRE(width() == other.width(),
                       "comparing timestamps of different widths");
        return ts::less(components_, other.components_);
    }

    /// Neither u < v nor v < u nor u == v: the timestamps witness
    /// concurrency (Section 2).
    bool concurrent_with(const VectorTimestamp& other) const {
        SYNCTS_REQUIRE(width() == other.width(),
                       "comparing timestamps of different widths");
        return ts::concurrent(components_, other.components_);
    }

    /// Sum of components — a cheap proxy for "how much causal history".
    std::uint64_t total() const noexcept { return ts::total(components_); }

    /// e.g. "(1,1,1)".
    std::string to_string() const {
        std::string out = "(";
        for (std::size_t k = 0; k < components_.size(); ++k) {
            if (k != 0) out += ',';
            out += std::to_string(components_[k]);
        }
        out += ')';
        return out;
    }

    friend bool operator==(const VectorTimestamp&,
                           const VectorTimestamp&) = default;

private:
    std::vector<std::uint64_t> components_;
};

}  // namespace syncts
