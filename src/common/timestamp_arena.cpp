#include "common/timestamp_arena.hpp"

#include "common/pool.hpp"
#include "common/ts_simd.hpp"

namespace syncts {

namespace {

/// Shared body of the sharded batch kernels: validates once, then runs
/// kernel(begin, end) over slot shards. Each shard touches only its own
/// rows of `out`, so the schedule cannot change the result.
template <typename Kernel>
void sharded_scan(const TimestampArena& arena,
                  std::span<const std::uint64_t> probe,
                  std::span<std::uint8_t> out, const AnalysisOptions& options,
                  Kernel&& kernel) {
    SYNCTS_REQUIRE(probe.size() == arena.width(),
                   "probe width does not match the arena width");
    SYNCTS_REQUIRE(out.size() == arena.size(),
                   "output size does not match the slot count");
    arena.note_kernel(arena.size());
    map_rows<std::size_t>(out.size(), options,
                          [&](std::size_t begin, std::size_t end) {
                              kernel(begin, end);
                              return end - begin;
                          });
}

}  // namespace

void leq_many(const TimestampArena& arena,
              std::span<const std::uint64_t> probe,
              std::span<std::uint8_t> out, const AnalysisOptions& options) {
    const std::size_t width = arena.width();
    const std::span<const std::uint64_t> slab = arena.slab();
    sharded_scan(arena, probe, out, options,
                 [&, width](std::size_t begin, std::size_t end) {
                     simd::leq_many(slab.data() + begin * width, end - begin,
                                    width, probe.data(),
                                    out.data() + begin);
                 });
}

void relate_many(const TimestampArena& arena,
                 std::span<const std::uint64_t> probe,
                 std::span<std::uint8_t> out, const AnalysisOptions& options) {
    const std::size_t width = arena.width();
    const std::span<const std::uint64_t> slab = arena.slab();
    sharded_scan(arena, probe, out, options,
                 [&, width](std::size_t begin, std::size_t end) {
                     simd::relate_many(slab.data() + begin * width,
                                       end - begin, width, probe.data(),
                                       out.data() + begin);
                 });
}

void leq_many(const TimestampArena& arena,
              std::span<const std::uint64_t> probe,
              std::span<std::uint8_t> out) {
    SYNCTS_REQUIRE(probe.size() == arena.width(),
                   "probe width does not match the arena width");
    SYNCTS_REQUIRE(out.size() == arena.size(),
                   "output size does not match the slot count");
    arena.note_kernel(arena.size());
    simd::leq_many(arena.slab().data(), arena.size(), arena.width(),
                   probe.data(), out.data());
}

void relate_many(const TimestampArena& arena,
                 std::span<const std::uint64_t> probe,
                 std::span<std::uint8_t> out) {
    SYNCTS_REQUIRE(probe.size() == arena.width(),
                   "probe width does not match the arena width");
    SYNCTS_REQUIRE(out.size() == arena.size(),
                   "output size does not match the slot count");
    arena.note_kernel(arena.size());
    simd::relate_many(arena.slab().data(), arena.size(), arena.width(),
                      probe.data(), out.data());
}

std::vector<TsHandle> dominators_of(const TimestampArena& arena,
                                    std::span<const std::uint64_t> probe) {
    SYNCTS_REQUIRE(probe.size() == arena.width(),
                   "probe width does not match the arena width");
    arena.note_kernel(arena.size());
    std::vector<TsHandle> result;
    simd::dominators_of(arena.slab().data(), arena.size(), arena.width(),
                        probe.data(), result);
    return result;
}

// ---- SoaStripes ------------------------------------------------------

SoaStripes::SoaStripes(const TimestampArena& arena, SlabPool* pool)
    : width_(arena.width()), rows_(arena.size()), pool_(pool) {
    const std::size_t stripes =
        (rows_ + kSoaLane - 1) / kSoaLane;
    stripe_words_ = stripes * width_ * kSoaLane;
    if (stripe_words_ == 0) return;
    slab_ = pool_ != nullptr
                ? pool_->acquire(stripe_words_)
                : Slab{std::make_unique<std::uint64_t[]>(stripe_words_),
                       stripe_words_};
    // Transpose rows into component-major stripes; pad lanes stay zero
    // so the vector loads of a partial tail stripe are well-defined.
    std::fill_n(slab_.words.get(), stripe_words_, 0);
    const std::span<const std::uint64_t> rows = arena.slab();
    for (std::size_t i = 0; i < rows_; ++i) {
        const std::size_t stripe = i / kSoaLane;
        const std::size_t lane = i % kSoaLane;
        std::uint64_t* base =
            slab_.words.get() + stripe * width_ * kSoaLane + lane;
        const std::uint64_t* row = rows.data() + i * width_;
        for (std::size_t k = 0; k < width_; ++k) {
            base[k * kSoaLane] = row[k];
        }
    }
}

SoaStripes::~SoaStripes() {
    if (slab_ && pool_ != nullptr) {
        pool_->release(std::move(slab_));
    }
}

void SoaStripes::leq_many(std::span<const std::uint64_t> probe,
                          std::span<std::uint8_t> out) const {
    SYNCTS_REQUIRE(probe.size() == width_,
                   "probe width does not match the stripe width");
    SYNCTS_REQUIRE(out.size() == rows_,
                   "output size does not match the row count");
    if (width_ == 0) {
        std::fill(out.begin(), out.end(), std::uint8_t{1});
        return;
    }
    simd::leq_many_stripes(slab_.words.get(), rows_, width_, probe.data(),
                           out.data());
}

void SoaStripes::relate_many(std::span<const std::uint64_t> probe,
                             std::span<std::uint8_t> out) const {
    SYNCTS_REQUIRE(probe.size() == width_,
                   "probe width does not match the stripe width");
    SYNCTS_REQUIRE(out.size() == rows_,
                   "output size does not match the row count");
    if (width_ == 0) {
        std::fill(out.begin(), out.end(),
                  static_cast<std::uint8_t>(ts::kRowLeq | ts::kProbeLeq));
        return;
    }
    simd::relate_many_stripes(slab_.words.get(), rows_, width_, probe.data(),
                              out.data());
}

std::vector<TsHandle> SoaStripes::dominators_of(
    std::span<const std::uint64_t> probe) const {
    SYNCTS_REQUIRE(probe.size() == width_,
                   "probe width does not match the stripe width");
    std::vector<TsHandle> result;
    if (rows_ == 0 || width_ == 0) return result;
    // relate over the stripes, then filter: probe < row ⟺ the kProbeLeq
    // bit alone (probe ≤ row and row ≰ probe).
    std::vector<std::uint8_t> flags(rows_);
    simd::relate_many_stripes(slab_.words.get(), rows_, width_, probe.data(),
                              flags.data());
    for (std::size_t i = 0; i < rows_; ++i) {
        if (flags[i] == ts::kProbeLeq) {
            result.push_back(static_cast<TsHandle>(i));
        }
    }
    return result;
}

}  // namespace syncts
