#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file ts_simd.hpp
/// Runtime-dispatched SIMD backends for the batch timestamp kernels.
///
/// The public arena kernels (timestamp_arena.hpp leq_many/relate_many/
/// dominators_of) call through here: on hosts with AVX2 the `*_avx2`
/// bodies run (compiled with a per-function target attribute, so the
/// rest of the library keeps the portable baseline ISA); everywhere else
/// the `*_scalar` bodies — the 4-way-unrolled portable kernels — run. Both backends are exposed by name so
/// the differential tests can pin them against each other on the same
/// host: every output is a small integer (0/1 or relate flags), so
/// "bit-identical" is an exact contract, not a tolerance.
///
/// Layout contract: `slab` is rows*width words, row i at slab[i*width].
///
/// The unsigned 64-bit vector compare uses the classic sign-flip trick:
/// x >u y  ⟺  (x ^ 2^63) >s (y ^ 2^63), since AVX2 only has a signed
/// 64-bit compare (_mm256_cmpgt_epi64).

namespace syncts::simd {

/// True when the running CPU supports AVX2 (cached after the first
/// call). The dispatched kernels below consult this once per batch, not
/// per row.
bool avx2_available() noexcept;

// ---- Backends --------------------------------------------------------

void leq_many_scalar(const std::uint64_t* slab, std::size_t rows,
                     std::size_t width, const std::uint64_t* probe,
                     std::uint8_t* out) noexcept;
void relate_many_scalar(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::uint8_t* out) noexcept;
void dominators_of_scalar(const std::uint64_t* slab, std::size_t rows,
                          std::size_t width, const std::uint64_t* probe,
                          std::vector<std::uint32_t>& out);

/// AVX2 bodies; falling back to the scalar bodies on hosts without
/// AVX2 support (callers normally go through the dispatched forms).
void leq_many_avx2(const std::uint64_t* slab, std::size_t rows,
                   std::size_t width, const std::uint64_t* probe,
                   std::uint8_t* out) noexcept;
void relate_many_avx2(const std::uint64_t* slab, std::size_t rows,
                      std::size_t width, const std::uint64_t* probe,
                      std::uint8_t* out) noexcept;
void dominators_of_avx2(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::vector<std::uint32_t>& out);

// ---- Dispatched entry points -----------------------------------------

inline void leq_many(const std::uint64_t* slab, std::size_t rows,
                     std::size_t width, const std::uint64_t* probe,
                     std::uint8_t* out) noexcept {
    if (avx2_available()) {
        leq_many_avx2(slab, rows, width, probe, out);
    } else {
        leq_many_scalar(slab, rows, width, probe, out);
    }
}

inline void relate_many(const std::uint64_t* slab, std::size_t rows,
                        std::size_t width, const std::uint64_t* probe,
                        std::uint8_t* out) noexcept {
    if (avx2_available()) {
        relate_many_avx2(slab, rows, width, probe, out);
    } else {
        relate_many_scalar(slab, rows, width, probe, out);
    }
}

inline void dominators_of(const std::uint64_t* slab, std::size_t rows,
                          std::size_t width, const std::uint64_t* probe,
                          std::vector<std::uint32_t>& out) {
    if (avx2_available()) {
        dominators_of_avx2(slab, rows, width, probe, out);
    } else {
        dominators_of_scalar(slab, rows, width, probe, out);
    }
}

}  // namespace syncts::simd
