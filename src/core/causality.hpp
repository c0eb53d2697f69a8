#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "clocks/vector_timestamp.hpp"
#include "common/pool.hpp"
#include "common/timestamp_arena.hpp"
#include "poset/poset.hpp"

/// \file causality.hpp
/// Free-standing causality utilities over collections of vector
/// timestamps: the O(d) precedence test of Section 2 plus bulk validation
/// helpers used by the test suite and the benchmark harness. Every
/// all-pairs check runs through one sweep over an arena (flat slab, batch
/// kernel, rows sharded across the analysis pool); the
/// std::span<const VectorTimestamp> compat forms pack into an arena and
/// delegate.

namespace syncts {

/// Outcome of comparing two timestamps.
enum class Order { before, after, concurrent, equal };

Order compare(const VectorTimestamp& a, const VectorTimestamp& b);

/// Span form; widths must match.
Order compare(std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b);

const char* to_string(Order order);

/// Packs materialized stamps (slot i = stamps[i]) into a fresh arena;
/// every stamp must share one width.
TimestampArena pack_stamps(std::span<const VectorTimestamp> stamps);

/// Number of unordered pairs {i, j} whose stamps are concurrent.
std::size_t count_concurrent_pairs(std::span<const VectorTimestamp> stamps);
std::size_t count_concurrent_pairs(const TimestampArena& stamps,
                                   const AnalysisOptions& options = {});

/// Checks that the timestamps encode the poset exactly
/// (poset.less(a,b) ⟺ stamps[a] < stamps[b] for all pairs). Returns the
/// number of disagreeing ordered pairs; 0 means the encoding is exact.
/// The arena form shards rows of the O(M²) sweep across the analysis
/// pool; per-shard counts reduce in shard (= row) order, so the result is
/// identical to the serial sweep at every thread count. This and the two
/// checks below throw std::invalid_argument unless the poset has exactly
/// one element per stamp.
std::size_t encoding_mismatches(const Poset& poset,
                                std::span<const VectorTimestamp> stamps);
std::size_t encoding_mismatches(const Poset& poset,
                                const TimestampArena& stamps,
                                const AnalysisOptions& options = {});

/// The disagreeing ordered pairs themselves, ascending (a, then b) —
/// exactly the order the serial sweep visits them in, regardless of how
/// the shards were scheduled (per-shard lists concatenate in shard
/// order). For diagnostics; prefer encoding_mismatches for gating.
std::vector<std::pair<std::size_t, std::size_t>> encoding_mismatch_pairs(
    const Poset& poset, const TimestampArena& stamps,
    const AnalysisOptions& options = {});

/// Like encoding_mismatches but only checks soundness of the ⟸ direction
/// plausible for one-way clocks (Lamport): poset.less(a,b) ⟹
/// stamps[a] < stamps[b]. Returns violations.
std::size_t consistency_violations(const Poset& poset,
                                   std::span<const VectorTimestamp> stamps);
std::size_t consistency_violations(const Poset& poset,
                                   const TimestampArena& stamps,
                                   const AnalysisOptions& options = {});

/// Total piggyback cost in components (width × message count) — the
/// overhead metric of Section 3.2 (O(d) per message vs FM's O(N)).
std::size_t total_components(std::span<const VectorTimestamp> stamps);
std::size_t total_components(const TimestampArena& stamps);

}  // namespace syncts
