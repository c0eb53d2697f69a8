#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/timestamp_arena.hpp"
#include "common/ts_kernels.hpp"
#include "common/ts_simd.hpp"

/// Differential sweep for the SIMD backends (docs/MEMORY.md):
/// every batch-kernel entry point — scalar and AVX2 — must be
/// *bit-identical* across 500 seeded random slabs covering every width
/// 1..64. Kernel outputs are small integers (0/1 flags, relate bits,
/// handle lists), so equality is exact, not a tolerance. On hosts
/// without AVX2 the _avx2 symbols alias the scalar bodies and the sweep
/// degenerates to a self-check; on AVX2 hosts it pins the vector paths
/// (including the unsigned sign-flip compare and the scalar tail)
/// against the portable kernels.

namespace syncts {
namespace {

constexpr std::uint64_t kSeeds = 500;

struct Case {
    std::size_t width = 0;
    std::size_t rows = 0;
    std::vector<std::uint64_t> slab;
    std::vector<std::uint64_t> probe;
};

/// Adversarial value mix: dense small values for heavy leq/equality
/// ties, occasional full-range 64-bit values to cross the 2^63 signed
/// boundary the AVX2 compare works around, and occasional copies of the
/// probe for exact-equality rows.
Case make_case(std::uint64_t seed) {
    Rng rng(seed);
    Case c;
    c.width = 1 + static_cast<std::size_t>(seed % 64);  // every width 1..64
    // Include rows == 0, partial stripes, and multi-stripe slabs; go past
    // 4x the AVX2 block so the vector main loop and tail both run.
    c.rows = static_cast<std::size_t>(rng.below(41));
    const auto draw = [&]() -> std::uint64_t {
        if (rng.chance(1, 10)) return rng();  // full range, straddles 2^63
        return rng.below(4);
    };
    c.probe.resize(c.width);
    for (auto& v : c.probe) v = draw();
    c.slab.resize(c.rows * c.width);
    for (std::size_t i = 0; i < c.rows; ++i) {
        if (rng.chance(1, 8)) {
            std::copy(c.probe.begin(), c.probe.end(),
                      c.slab.begin() + static_cast<std::ptrdiff_t>(
                                           i * c.width));
        } else {
            for (std::size_t k = 0; k < c.width; ++k) {
                c.slab[i * c.width + k] = draw();
            }
        }
    }
    return c;
}

/// Reference semantics, written independently of both backends.
std::uint8_t ref_leq(const Case& c, std::size_t row) {
    for (std::size_t k = 0; k < c.width; ++k) {
        if (c.probe[k] > c.slab[row * c.width + k]) return 0;
    }
    return 1;
}

TEST(SimdDifferential, LeqManyBackendsAreBitIdentical) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);
        std::vector<std::uint8_t> scalar(c.rows, 0xAA);
        std::vector<std::uint8_t> vec(c.rows, 0x55);
        simd::leq_many_scalar(c.slab.data(), c.rows, c.width,
                              c.probe.data(), scalar.data());
        simd::leq_many_avx2(c.slab.data(), c.rows, c.width, c.probe.data(),
                            vec.data());
        ASSERT_EQ(scalar, vec) << "seed " << seed << " width " << c.width;
        for (std::size_t i = 0; i < c.rows; ++i) {
            ASSERT_EQ(scalar[i], ref_leq(c, i))
                << "seed " << seed << " row " << i;
        }
    }
}

TEST(SimdDifferential, RelateManyBackendsAreBitIdentical) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);
        std::vector<std::uint8_t> scalar(c.rows, 0xAA);
        std::vector<std::uint8_t> vec(c.rows, 0x55);
        simd::relate_many_scalar(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), scalar.data());
        simd::relate_many_avx2(c.slab.data(), c.rows, c.width,
                               c.probe.data(), vec.data());
        ASSERT_EQ(scalar, vec) << "seed " << seed << " width " << c.width;
        for (std::size_t i = 0; i < c.rows; ++i) {
            ASSERT_EQ(scalar[i],
                      ts::relate({c.slab.data() + i * c.width, c.width},
                                 c.probe))
                << "seed " << seed << " row " << i;
        }
    }
}

TEST(SimdDifferential, DominatorsOfBackendsAreBitIdentical) {
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Case c = make_case(seed);
        std::vector<std::uint32_t> scalar;
        std::vector<std::uint32_t> vec;
        simd::dominators_of_scalar(c.slab.data(), c.rows, c.width,
                                   c.probe.data(), scalar);
        simd::dominators_of_avx2(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), vec);
        ASSERT_EQ(scalar, vec) << "seed " << seed << " width " << c.width;
        for (const std::uint32_t h : scalar) {
            ASSERT_TRUE(
                ts::less(c.probe, {c.slab.data() + h * c.width, c.width}))
                << "seed " << seed << " handle " << h;
        }
    }
}

TEST(SimdDifferential, DispatchedArenaKernelsMatchScalarBackend) {
    // The public arena entry points pick a backend at runtime; whatever
    // they picked must agree with the scalar reference on this host.
    for (std::uint64_t seed = 0; seed < kSeeds; seed += 5) {
        const Case c = make_case(seed);
        TimestampArena arena(c.width, c.rows);
        for (std::size_t i = 0; i < c.rows; ++i) {
            arena.allocate(
                std::span<const std::uint64_t>{c.slab.data() + i * c.width,
                                               c.width});
        }

        std::vector<std::uint8_t> got(c.rows, 0xAA);
        std::vector<std::uint8_t> want(c.rows, 0x55);
        leq_many(arena, c.probe, got);
        simd::leq_many_scalar(c.slab.data(), c.rows, c.width,
                              c.probe.data(), want.data());
        ASSERT_EQ(got, want) << "leq seed " << seed;

        relate_many(arena, c.probe, got);
        simd::relate_many_scalar(c.slab.data(), c.rows, c.width,
                                 c.probe.data(), want.data());
        ASSERT_EQ(got, want) << "relate seed " << seed;

        std::vector<std::uint32_t> want_doms;
        simd::dominators_of_scalar(c.slab.data(), c.rows, c.width,
                                   c.probe.data(), want_doms);
        const std::vector<TsHandle> got_doms = dominators_of(arena, c.probe);
        ASSERT_EQ(got_doms.size(), want_doms.size()) << "seed " << seed;
        for (std::size_t i = 0; i < want_doms.size(); ++i) {
            ASSERT_EQ(got_doms[i], want_doms[i]) << "seed " << seed;
        }
    }
}

TEST(SimdDifferential, RendezvousSideMatchesCopyJoinIncrement) {
    // One side of a Fig. 5 rendezvous in one pass must equal the
    // composition it replaces — copy the ACK, join, increment, copy the
    // stamp — with and without the ACK output, at widths covering every
    // tail length past the unrolled block.
    for (const std::size_t width :
         {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 16u, 128u}) {
        for (std::uint64_t seed = 0; seed < 40; ++seed) {
            Rng rng(width * 1000 + seed);
            const auto draw = [&]() -> std::uint64_t {
                if (rng.chance(1, 10)) return rng();  // full range
                return rng.below(4);
            };
            std::vector<std::uint64_t> mine(width);
            std::vector<std::uint64_t> remote(width);
            for (auto& v : mine) v = draw();
            for (auto& v : remote) v = draw();
            const std::size_t g = static_cast<std::size_t>(rng.below(width));

            std::vector<std::uint64_t> want_ack(width);
            std::vector<std::uint64_t> want_mine = mine;
            std::vector<std::uint64_t> want_out(width);
            ts::copy(want_ack, mine);
            ts::join(want_mine, remote);
            ts::increment(want_mine, g);
            ts::copy(want_out, want_mine);

            std::vector<std::uint64_t> got_mine = mine;
            std::vector<std::uint64_t> got_ack(width, 0xA5A5);
            std::vector<std::uint64_t> got_out(width, 0x5A5A);
            ts::rendezvous_side(got_mine, remote, g, got_ack, got_out);
            ASSERT_EQ(got_ack, want_ack) << "width " << width << " seed "
                                         << seed;
            ASSERT_EQ(got_mine, want_mine) << "width " << width << " seed "
                                           << seed;
            ASSERT_EQ(got_out, want_out) << "width " << width << " seed "
                                         << seed;

            got_mine = mine;
            got_out.assign(width, 0x5A5A);
            ts::rendezvous_side(got_mine, remote, g, {}, got_out);
            ASSERT_EQ(got_mine, want_mine) << "no ACK, width " << width
                                           << " seed " << seed;
            ASSERT_EQ(got_out, want_out) << "no ACK, width " << width
                                         << " seed " << seed;
        }
    }
}

}  // namespace
}  // namespace syncts
