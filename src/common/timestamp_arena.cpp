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

}  // namespace syncts
