#include "common/ts_simd.hpp"

#include <span>

#include "common/ts_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define SYNCTS_X86 1
#include <immintrin.h>
#endif

/// \file ts_simd.cpp
/// Scalar and AVX2 backends for the batch timestamp kernels. The AVX2
/// bodies carry per-function target attributes, so this translation unit
/// compiles with the project's portable baseline flags and the vector
/// code is only ever *executed* after avx2_available() says the host has
/// it — the same binary runs unchanged on pre-AVX2 hardware.

namespace syncts::simd {

bool avx2_available() noexcept {
#if defined(SYNCTS_X86) && (defined(__GNUC__) || defined(__clang__))
    static const bool available = __builtin_cpu_supports("avx2") != 0;
    return available;
#else
    return false;
#endif
}

// ---- Scalar backends (the PR 4 unrolled kernels) ---------------------

void leq_many_scalar(const std::uint64_t* slab, std::size_t rows,
                     std::size_t width, const std::uint64_t* probe,
                     std::uint8_t* out) noexcept {
    const std::span<const std::uint64_t> p{probe, width};
    for (std::size_t i = 0; i < rows; ++i) {
        out[i] = ts::leq(p, {slab + i * width, width}) ? 1 : 0;
    }
}

void relate_many_scalar(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::uint8_t* out) noexcept {
    const std::span<const std::uint64_t> p{probe, width};
    for (std::size_t i = 0; i < rows; ++i) {
        out[i] = ts::relate({slab + i * width, width}, p);
    }
}

void dominators_of_scalar(const std::uint64_t* slab, std::size_t rows,
                          std::size_t width, const std::uint64_t* probe,
                          std::vector<std::uint32_t>& out) {
    const std::span<const std::uint64_t> p{probe, width};
    for (std::size_t i = 0; i < rows; ++i) {
        if (ts::less(p, {slab + i * width, width})) {
            out.push_back(static_cast<std::uint32_t>(i));
        }
    }
}

// ---- AVX2 backends ---------------------------------------------------

#if defined(SYNCTS_X86) && (defined(__GNUC__) || defined(__clang__))

namespace {

/// Unsigned 64-bit a > b per lane via the sign-flip trick (AVX2 only has
/// the signed compare).
__attribute__((target("avx2"), always_inline)) inline __m256i
cmpgt_u64(__m256i a, __m256i b) noexcept {
    const __m256i sign =
        _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, sign),
                              _mm256_xor_si256(b, sign));
}

/// probe[k..k+4) > row[k..k+4) per lane — the leq violation mask for one
/// 4-component block.
__attribute__((target("avx2"), always_inline)) inline __m256i
leq_violation(const std::uint64_t* probe, const std::uint64_t* row,
              std::size_t k) noexcept {
    const __m256i vp =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(probe + k));
    const __m256i vr =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(row + k));
    return cmpgt_u64(vp, vr);
}

}  // namespace

__attribute__((target("avx2"))) void leq_many_avx2(
    const std::uint64_t* slab, std::size_t rows, std::size_t width,
    const std::uint64_t* probe, std::uint8_t* out) noexcept {
    const __m256i sign =
        _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ull));
    // Two rows per iteration: the probe load and its sign flip are
    // shared, and the two violation accumulators form independent
    // dependency chains, which is what actually buys the speedup over
    // the autovectorized scalar loop. The chunked check every 16
    // components keeps fail-fast rows from paying for the full width
    // (the scalar kernel short-circuits at the first failing word).
    std::size_t i = 0;
    for (; i + 2 <= rows; i += 2) {
        const std::uint64_t* r0 = slab + i * width;
        const std::uint64_t* r1 = r0 + width;
        __m256i v0 = _mm256_setzero_si256();
        __m256i v1 = _mm256_setzero_si256();
        std::size_t k = 0;
        for (; k + 16 <= width;) {
            for (const std::size_t stop = k + 16; k < stop; k += 4) {
                const __m256i p = _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(probe + k)),
                    sign);
                const __m256i a = _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(r0 + k)),
                    sign);
                const __m256i b = _mm256_xor_si256(
                    _mm256_loadu_si256(
                        reinterpret_cast<const __m256i*>(r1 + k)),
                    sign);
                v0 = _mm256_or_si256(v0, _mm256_cmpgt_epi64(p, a));
                v1 = _mm256_or_si256(v1, _mm256_cmpgt_epi64(p, b));
            }
            if (_mm256_testz_si256(v0, v0) == 0 &&
                _mm256_testz_si256(v1, v1) == 0) {
                break;
            }
        }
        bool bad0 = _mm256_testz_si256(v0, v0) == 0;
        bool bad1 = _mm256_testz_si256(v1, v1) == 0;
        if (!bad0 || !bad1) {
            for (; k + 4 <= width; k += 4) {
                if (!bad0) {
                    const __m256i violation = leq_violation(probe, r0, k);
                    bad0 = _mm256_testz_si256(violation, violation) == 0;
                }
                if (!bad1) {
                    const __m256i violation = leq_violation(probe, r1, k);
                    bad1 = _mm256_testz_si256(violation, violation) == 0;
                }
                if (bad0 && bad1) break;
            }
            for (; k < width && !(bad0 && bad1); ++k) {
                bad0 = bad0 || probe[k] > r0[k];
                bad1 = bad1 || probe[k] > r1[k];
            }
        }
        out[i] = bad0 ? 0 : 1;
        out[i + 1] = bad1 ? 0 : 1;
    }
    for (; i < rows; ++i) {
        const std::uint64_t* row = slab + i * width;
        bool bad = false;
        std::size_t k = 0;
        for (; k + 4 <= width; k += 4) {
            const __m256i violation = leq_violation(probe, row, k);
            if (_mm256_testz_si256(violation, violation) == 0) {
                bad = true;
                break;
            }
        }
        if (!bad) {
            for (; k < width; ++k) {
                bad = probe[k] > row[k];
                if (bad) break;
            }
        }
        out[i] = bad ? 0 : 1;
    }
}

__attribute__((target("avx2"))) void relate_many_avx2(
    const std::uint64_t* slab, std::size_t rows, std::size_t width,
    const std::uint64_t* probe, std::uint8_t* out) noexcept {
    for (std::size_t i = 0; i < rows; ++i) {
        const std::uint64_t* row = slab + i * width;
        __m256i row_gt = _mm256_setzero_si256();
        __m256i probe_gt = _mm256_setzero_si256();
        bool resolved = false;
        std::size_t k = 0;
        for (; k + 4 <= width; k += 4) {
            const __m256i vp = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(probe + k));
            const __m256i vr = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(row + k));
            row_gt = _mm256_or_si256(row_gt, cmpgt_u64(vr, vp));
            probe_gt = _mm256_or_si256(probe_gt, cmpgt_u64(vp, vr));
            // Both directions violated — the rows are concurrent and no
            // later component can change either bit.
            if (_mm256_testz_si256(row_gt, row_gt) == 0 &&
                _mm256_testz_si256(probe_gt, probe_gt) == 0) {
                resolved = true;
                break;
            }
        }
        bool row_above = _mm256_testz_si256(row_gt, row_gt) == 0;
        bool probe_above = _mm256_testz_si256(probe_gt, probe_gt) == 0;
        if (!resolved) {
            for (; k < width; ++k) {
                row_above |= row[k] > probe[k];
                probe_above |= probe[k] > row[k];
                if (row_above && probe_above) break;
            }
        }
        out[i] = static_cast<std::uint8_t>((row_above ? 0 : ts::kRowLeq) |
                                           (probe_above ? 0 : ts::kProbeLeq));
    }
}

__attribute__((target("avx2"))) void dominators_of_avx2(
    const std::uint64_t* slab, std::size_t rows, std::size_t width,
    const std::uint64_t* probe, std::vector<std::uint32_t>& out) {
    for (std::size_t i = 0; i < rows; ++i) {
        const std::uint64_t* row = slab + i * width;
        __m256i strict = _mm256_setzero_si256();
        bool bad = false;
        std::size_t k = 0;
        for (; k + 4 <= width; k += 4) {
            const __m256i vp = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(probe + k));
            const __m256i vr = _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(row + k));
            const __m256i violation = cmpgt_u64(vp, vr);
            // A violated block disqualifies the row outright ("above"
            // no longer matters), so stop loading components.
            if (_mm256_testz_si256(violation, violation) == 0) {
                bad = true;
                break;
            }
            strict = _mm256_or_si256(strict, cmpgt_u64(vr, vp));
        }
        if (bad) continue;
        bool above = _mm256_testz_si256(strict, strict) == 0;
        for (; k < width; ++k) {
            if (probe[k] > row[k]) {
                bad = true;
                break;
            }
            above |= row[k] > probe[k];
        }
        if (!bad && above) {
            out.push_back(static_cast<std::uint32_t>(i));
        }
    }
}

#else  // non-x86 hosts: the AVX2 names resolve to the scalar bodies.

void leq_many_avx2(const std::uint64_t* slab, std::size_t rows,
                   std::size_t width, const std::uint64_t* probe,
                   std::uint8_t* out) noexcept {
    leq_many_scalar(slab, rows, width, probe, out);
}

void relate_many_avx2(const std::uint64_t* slab, std::size_t rows,
                      std::size_t width, const std::uint64_t* probe,
                      std::uint8_t* out) noexcept {
    relate_many_scalar(slab, rows, width, probe, out);
}

void dominators_of_avx2(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::vector<std::uint32_t>& out) {
    dominators_of_scalar(slab, rows, width, probe, out);
}

#endif

}  // namespace syncts::simd
