#pragma once

#include <climits>
#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>

/// \file ts_kernels.hpp
/// The innermost timestamp kernels: every vector-order operation of
/// Equation (2), expressed over raw component spans so the same code path
/// serves the legacy VectorTimestamp value type, TimestampArena rows, and
/// decoded wire payloads without copying into an owning object first.
///
/// The kernels assume the caller has already matched widths (the public
/// wrappers — VectorTimestamp methods, TimestampArena ops — validate and
/// throw); here a mismatch is a programming error.
///
/// The loops are manually unrolled kUnroll lanes wide with branchless
/// bodies, so the main block is straight-line max/compare chains the
/// compiler turns into SIMD (4 × u64 = one 256-bit register). The
/// predicates accumulate violation masks per block and test once per
/// block, keeping the early exit the batch kernels (leq_many/relate_many)
/// rely on without a branch per lane.

namespace syncts::ts {

/// Lanes per unrolled block. The guard below is what actually backs the
/// vectorizability claim: timestamp components must be exactly 64-bit
/// unsigned words (the arena slab, the wire format, and DynBitset all
/// assume it) and the block must fill a whole power-of-two vector
/// register, or the unrolled bodies silently deoptimize to scalar code.
inline constexpr std::size_t kUnroll = 4;

static_assert(sizeof(std::uint64_t) * CHAR_BIT == 64,
              "timestamp components must be exactly 64-bit words");
static_assert((kUnroll & (kUnroll - 1)) == 0 && kUnroll >= 2,
              "unroll factor must be a power of two");
static_assert(kUnroll * sizeof(std::uint64_t) == 32,
              "one unrolled block must fill a 256-bit vector register");
static_assert(std::is_trivially_copyable_v<std::uint64_t>);

/// dst[k] = max(dst[k], src[k]) — the merge of Fig. 5 lines (05)/(09).
inline void join(std::span<std::uint64_t> dst,
                 std::span<const std::uint64_t> src) noexcept {
    const std::size_t n = dst.size();
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        dst[k] = src[k] > dst[k] ? src[k] : dst[k];
        dst[k + 1] = src[k + 1] > dst[k + 1] ? src[k + 1] : dst[k + 1];
        dst[k + 2] = src[k + 2] > dst[k + 2] ? src[k + 2] : dst[k + 2];
        dst[k + 3] = src[k + 3] > dst[k + 3] ? src[k + 3] : dst[k + 3];
    }
    for (; k < n; ++k) {
        if (src[k] > dst[k]) dst[k] = src[k];
    }
}

/// dst = src (widths equal).
inline void copy(std::span<std::uint64_t> dst,
                 std::span<const std::uint64_t> src) noexcept {
    for (std::size_t k = 0; k < dst.size(); ++k) dst[k] = src[k];
}

inline void zero(std::span<std::uint64_t> v) noexcept {
    for (auto& c : v) c = 0;
}

/// v[k]++ — Fig. 5 lines (06)/(10).
inline void increment(std::span<std::uint64_t> v, std::size_t k) noexcept {
    ++v[k];
}

/// Both sides of one Fig. 5 rendezvous on channel group g in one pass:
/// a = b = out = max(a, b) + e_g. Bit-identical to the three hooks
/// (prepare_send_into → on_receive_into → on_ack_into), where each side
/// ends with that same vector. The three spans are disjoint and of one width.
inline void rendezvous(std::span<std::uint64_t> a, std::span<std::uint64_t> b,
                       std::size_t g, std::span<std::uint64_t> out) noexcept {
    const std::size_t n = a.size();
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        // Load the whole block before any store, so the lanes do not
        // wait on possible aliasing between the three spans.
        const std::uint64_t m0 = a[k] > b[k] ? a[k] : b[k];
        const std::uint64_t m1 = a[k + 1] > b[k + 1] ? a[k + 1] : b[k + 1];
        const std::uint64_t m2 = a[k + 2] > b[k + 2] ? a[k + 2] : b[k + 2];
        const std::uint64_t m3 = a[k + 3] > b[k + 3] ? a[k + 3] : b[k + 3];
        a[k] = b[k] = out[k] = m0;
        a[k + 1] = b[k + 1] = out[k + 1] = m1;
        a[k + 2] = b[k + 2] = out[k + 2] = m2;
        a[k + 3] = b[k + 3] = out[k + 3] = m3;
    }
    for (; k < n; ++k) {
        const std::uint64_t m = a[k] > b[k] ? a[k] : b[k];
        a[k] = b[k] = out[k] = m;
    }
    ++a[g];
    ++b[g];
    ++out[g];
}

namespace detail {

template <bool kWriteAck>
inline void rendezvous_side(std::span<std::uint64_t> mine,
                            std::span<const std::uint64_t> remote,
                            std::size_t g, std::span<std::uint64_t> ack,
                            std::span<std::uint64_t> out) noexcept {
    const std::size_t n = mine.size();
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        // Loads first, as in rendezvous(): the ACK takes the pre-merge
        // lanes, and no store waits on possible aliasing.
        const std::uint64_t a0 = mine[k];
        const std::uint64_t a1 = mine[k + 1];
        const std::uint64_t a2 = mine[k + 2];
        const std::uint64_t a3 = mine[k + 3];
        const std::uint64_t m0 = a0 > remote[k] ? a0 : remote[k];
        const std::uint64_t m1 = a1 > remote[k + 1] ? a1 : remote[k + 1];
        const std::uint64_t m2 = a2 > remote[k + 2] ? a2 : remote[k + 2];
        const std::uint64_t m3 = a3 > remote[k + 3] ? a3 : remote[k + 3];
        if constexpr (kWriteAck) {
            ack[k] = a0;
            ack[k + 1] = a1;
            ack[k + 2] = a2;
            ack[k + 3] = a3;
        }
        mine[k] = out[k] = m0;
        mine[k + 1] = out[k + 1] = m1;
        mine[k + 2] = out[k + 2] = m2;
        mine[k + 3] = out[k + 3] = m3;
    }
    for (; k < n; ++k) {
        const std::uint64_t a = mine[k];
        const std::uint64_t m = a > remote[k] ? a : remote[k];
        if constexpr (kWriteAck) ack[k] = a;
        mine[k] = out[k] = m;
    }
    ++mine[g];
    ++out[g];
}

}  // namespace detail

/// One side of a Fig. 5 rendezvous on channel group g in one pass: an
/// `ack` of the common width first receives the pre-merge vector (line
/// (04)); an empty `ack` is skipped. Then mine = out = max(mine, remote)
/// + e_g — lines (05)-(06) at the receiver, (09)-(10) at the sender.
/// Bit-identical to copy(ack, mine); join(mine, remote); increment(mine,
/// g); copy(out, mine). `mine` and `out` are disjoint.
inline void rendezvous_side(std::span<std::uint64_t> mine,
                            std::span<const std::uint64_t> remote,
                            std::size_t g, std::span<std::uint64_t> ack,
                            std::span<std::uint64_t> out) noexcept {
    if (ack.empty()) {
        detail::rendezvous_side<false>(mine, remote, g, ack, out);
    } else {
        detail::rendezvous_side<true>(mine, remote, g, ack, out);
    }
}

inline bool equal(std::span<const std::uint64_t> u,
                  std::span<const std::uint64_t> v) noexcept {
    const std::size_t n = u.size();
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        const std::uint64_t diff = (u[k] ^ v[k]) | (u[k + 1] ^ v[k + 1]) |
                                   (u[k + 2] ^ v[k + 2]) |
                                   (u[k + 3] ^ v[k + 3]);
        if (diff != 0) return false;
    }
    for (; k < n; ++k) {
        if (u[k] != v[k]) return false;
    }
    return true;
}

/// Component-wise ≤ (reflexive).
inline bool leq(std::span<const std::uint64_t> u,
                std::span<const std::uint64_t> v) noexcept {
    const std::size_t n = u.size();
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        // Violation mask per block: branchless lanes, one test per block.
        const bool bad = (u[k] > v[k]) | (u[k + 1] > v[k + 1]) |
                         (u[k + 2] > v[k + 2]) | (u[k + 3] > v[k + 3]);
        if (bad) return false;
    }
    for (; k < n; ++k) {
        if (u[k] > v[k]) return false;
    }
    return true;
}

/// The strict vector order of Equation (2):
///     u < v ⟺ (∀k: u[k] ≤ v[k]) ∧ (∃j: u[j] < v[j]).
inline bool less(std::span<const std::uint64_t> u,
                 std::span<const std::uint64_t> v) noexcept {
    const std::size_t n = u.size();
    bool strict = false;
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        const bool bad = (u[k] > v[k]) | (u[k + 1] > v[k + 1]) |
                         (u[k + 2] > v[k + 2]) | (u[k + 3] > v[k + 3]);
        if (bad) return false;
        strict |= (u[k] < v[k]) | (u[k + 1] < v[k + 1]) |
                  (u[k + 2] < v[k + 2]) | (u[k + 3] < v[k + 3]);
    }
    for (; k < n; ++k) {
        if (u[k] > v[k]) return false;
        if (u[k] < v[k]) strict = true;
    }
    return strict;
}

/// Neither u ≤ v nor v ≤ u (so in particular u ≠ v).
inline bool concurrent(std::span<const std::uint64_t> u,
                       std::span<const std::uint64_t> v) noexcept {
    const std::size_t n = u.size();
    bool u_above = false;  // some u[k] > v[k]
    bool v_above = false;  // some v[k] > u[k]
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        u_above |= (u[k] > v[k]) | (u[k + 1] > v[k + 1]) |
                   (u[k + 2] > v[k + 2]) | (u[k + 3] > v[k + 3]);
        v_above |= (v[k] > u[k]) | (v[k + 1] > u[k + 1]) |
                   (v[k + 2] > u[k + 2]) | (v[k + 3] > u[k + 3]);
        if (u_above && v_above) return true;
    }
    for (; k < n; ++k) {
        if (u[k] > v[k]) u_above = true;
        if (v[k] > u[k]) v_above = true;
        if (u_above && v_above) return true;
    }
    return false;
}

/// Sum of components — a cheap proxy for "how much causal history".
inline std::uint64_t total(std::span<const std::uint64_t> v) noexcept {
    std::uint64_t sum = 0;
    for (const auto c : v) sum += c;
    return sum;
}

/// Bit flags produced by relate(): how `row` compares to `probe`.
/// relate(row, probe) == kRowLeq | kProbeLeq ⟺ equal; == kRowLeq ⟺
/// row < probe; == kProbeLeq ⟺ probe < row; == 0 ⟺ concurrent.
inline constexpr std::uint8_t kRowLeq = 1;    ///< row ≤ probe
inline constexpr std::uint8_t kProbeLeq = 2;  ///< probe ≤ row

/// One-pass three-way relation, the building block of the batch kernels.
inline std::uint8_t relate(std::span<const std::uint64_t> row,
                           std::span<const std::uint64_t> probe) noexcept {
    const std::size_t n = row.size();
    bool row_above = false;    // some row[k] > probe[k]
    bool probe_above = false;  // some probe[k] > row[k]
    std::size_t k = 0;
    for (; k + kUnroll <= n; k += kUnroll) {
        row_above |= (row[k] > probe[k]) | (row[k + 1] > probe[k + 1]) |
                     (row[k + 2] > probe[k + 2]) |
                     (row[k + 3] > probe[k + 3]);
        probe_above |= (probe[k] > row[k]) | (probe[k + 1] > row[k + 1]) |
                       (probe[k + 2] > row[k + 2]) |
                       (probe[k + 3] > row[k + 3]);
        if (row_above && probe_above) return 0;
    }
    for (; k < n; ++k) {
        row_above |= row[k] > probe[k];
        probe_above |= probe[k] > row[k];
        if (row_above && probe_above) return 0;
    }
    return static_cast<std::uint8_t>(
        (row_above ? 0 : kRowLeq) | (probe_above ? 0 : kProbeLeq));
}

}  // namespace syncts::ts
