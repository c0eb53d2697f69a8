// Experiment TAB-SIMD — leq_many scalar vs AVX2 (docs/MEMORY.md).
//
// Streams a random slab through both comparison backends and reports ns
// per compared stamp plus the speedup. Each backend gets one untimed
// warm-up pass, then 9 timed passes interleaved with the other backend's;
// the figures are the medians, so one noisy pass cannot move them. The
// gate: the ratio of the medians >= 1.5x at width >= 16 on AVX2 hosts, or
// this binary exits 1. Hosts without AVX2 run the scalar body under both
// names and skip the gate.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "common/ts_simd.hpp"

using namespace syncts;

namespace {

/// Speedup of the AVX2 kernel over the scalar one at `width`.
double simd_study(std::size_t width) {
    constexpr std::size_t kRows = 4096;
    constexpr std::size_t kRounds = 256;
    Rng rng(0x51D0ULL + width);
    // The closure/dominators regime the batch kernels exist for: the
    // probe is an early timestamp, every row is causally after it, and
    // the comparison scans the full width. (Fail-fast workloads — rows
    // concurrent with the probe — resolve at the first violating word,
    // where the scalar short-circuit is already optimal and SIMD has
    // nothing to vectorize; the gate measures the scan regime.)
    std::vector<std::uint64_t> probe(width);
    for (auto& v : probe) v = rng.below(3);
    std::vector<std::uint64_t> slab(kRows * width);
    for (std::size_t i = 0; i < kRows; ++i) {
        for (std::size_t k = 0; k < width; ++k) {
            slab[i * width + k] = probe[k] + rng.below(4);
        }
    }
    std::vector<std::uint8_t> out(kRows);

    const auto time_backend = [&](auto&& kernel) {
        std::uint64_t checksum = 0;
        const auto start = std::chrono::steady_clock::now();
        for (std::size_t r = 0; r < kRounds; ++r) {
            kernel(slab.data(), kRows, width, probe.data(), out.data());
            checksum += out[r % kRows];
        }
        const auto stop = std::chrono::steady_clock::now();
        if (checksum == 0xFFFFFFFFu) std::printf("(sink)\n");
        return static_cast<double>(
                   std::chrono::duration_cast<std::chrono::nanoseconds>(
                       stop - start)
                       .count()) /
               static_cast<double>(kRounds * kRows);
    };
    constexpr std::size_t kPasses = 9;
    (void)time_backend(simd::leq_many_scalar);
    (void)time_backend(simd::leq_many_avx2);
    std::vector<double> scalar(kPasses);
    std::vector<double> avx2(kPasses);
    for (std::size_t pass = 0; pass < kPasses; ++pass) {
        scalar[pass] = time_backend(simd::leq_many_scalar);
        avx2[pass] = time_backend(simd::leq_many_avx2);
    }
    const auto median = [](std::vector<double>& passes) {
        const auto middle = passes.begin() + kPasses / 2;
        std::nth_element(passes.begin(), middle, passes.end());
        return *middle;
    };
    const double scalar_ns = median(scalar);
    const double avx2_ns = median(avx2);
    const double speedup = scalar_ns / avx2_ns;
    std::printf("%8zu %12.2f %12.2f %9.2fx %6s\n", width, scalar_ns,
                avx2_ns, speedup, simd::avx2_available() ? "yes" : "no");
    return speedup;
}

}  // namespace

int main() {
    std::printf("== TAB-SIMD: leq_many scalar vs AVX2 ==\n\n");
    std::printf("%8s %12s %12s %10s %6s\n", "width", "scalar ns",
                "avx2 ns", "speedup", "avx2?");
    bool ok = true;
    for (const std::size_t width : {4u, 8u, 16u, 32u, 64u}) {
        const double speedup = simd_study(width);
        if (simd::avx2_available() && width >= 16 && speedup < 1.5) {
            std::printf("FAIL: speedup %.2fx below 1.5x at width %zu\n",
                        speedup, width);
            ok = false;
        }
    }
    std::printf(
        "\n(medians of 9 interleaved passes per backend; gate: speedup\n"
        " >= 1.5x at width >= 16 on AVX2 hosts; hosts without AVX2 run the\n"
        " scalar body under both names and skip it.)\n");
    return ok ? 0 : 1;
}
