#include "core/causality.hpp"

#include "common/check.hpp"
#include "common/ts_kernels.hpp"
#include "common/ts_simd.hpp"

namespace syncts {

namespace {

using Pairs = std::vector<std::pair<std::size_t, std::size_t>>;

/// What a sweep, or one shard of it, selected: the pair count and, when
/// the caller lists pairs, the pairs in visit order.
struct Sweep {
    std::size_t count = 0;
    Pairs pairs;
};

/// The one Theorem 4 sweep. Rows shard through map_rows; each row a
/// relates the other rows (only those after a when `after_only`, the
/// triangle an unordered count needs) against probe row a with the
/// dispatched relate_many on the raw slab, so no arena_kernel_* traffic
/// is counted. With probe = row a, flags[b] == kProbeLeq alone means
/// a < b and flags[b] == 0 means a ‖ b. pick_row(a) returns row a's
/// predicate pick(b, flags[b]), which selects the pairs (a ≠ b) to count;
/// with `list` they are also listed, in the serial visit order (a, then
/// b) at every thread count.
template <typename PickRow>
Sweep sweep_pairs(const TimestampArena& stamps, const AnalysisOptions& options,
                  bool after_only, bool list, PickRow&& pick_row) {
    const std::size_t n = stamps.size();
    const std::size_t width = stamps.width();
    const std::uint64_t* slab = stamps.slab().data();
    std::vector<Sweep> shards = map_rows<Sweep>(
        n, options, [&](std::size_t begin, std::size_t end) {
            Sweep shard;
            std::vector<std::uint8_t> flags(n);
            for (std::size_t a = begin; a < end; ++a) {
                const std::size_t first = after_only ? a + 1 : 0;
                simd::relate_many(slab + first * width, n - first, width,
                                  slab + a * width, flags.data() + first);
                const auto pick = pick_row(a);
                for (std::size_t b = first; b < n; ++b) {
                    const bool hit = b != a && pick(b, flags[b]);
                    shard.count += hit;
                    if (list && hit) shard.pairs.emplace_back(a, b);
                }
            }
            return shard;
        });
    Sweep total;
    for (const Sweep& shard : shards) {
        total.count += shard.count;
        total.pairs.insert(total.pairs.end(), shard.pairs.begin(),
                           shard.pairs.end());
    }
    return total;
}

/// The sweep over every ordered pair, against a poset of one element per
/// stamp: pick(truth, less) sees poset.less(a, b) (read from a's up-set
/// row) and stamps[a] < stamps[b].
template <typename Pick>
Sweep sweep_poset(const Poset& poset, const TimestampArena& stamps,
                  const AnalysisOptions& options, bool list, Pick&& pick) {
    SYNCTS_REQUIRE(poset.size() == stamps.size(),
                   "the poset and the stamps count different messages");
    return sweep_pairs(
        stamps, options, /*after_only=*/false, list, [&](std::size_t a) {
            const DynBitset& above = poset.up_set(a);
            return [&above, &pick](std::size_t b, std::uint8_t flag) {
                return pick(above.test(b), flag == ts::kProbeLeq);
            };
        });
}

/// Theorem 4: the poset and the stamps disagree on a < b.
bool mismatch(bool truth, bool less) { return truth != less; }

}  // namespace

Order compare(const VectorTimestamp& a, const VectorTimestamp& b) {
    return compare(a.components(), b.components());
}

Order compare(std::span<const std::uint64_t> a,
              std::span<const std::uint64_t> b) {
    SYNCTS_REQUIRE(a.size() == b.size(),
                   "comparing timestamps of different widths");
    switch (ts::relate(a, b)) {
        case ts::kRowLeq | ts::kProbeLeq: return Order::equal;
        case ts::kRowLeq: return Order::before;
        case ts::kProbeLeq: return Order::after;
        default: return Order::concurrent;
    }
}

const char* to_string(Order order) {
    switch (order) {
        case Order::before: return "before";
        case Order::after: return "after";
        case Order::concurrent: return "concurrent";
        case Order::equal: return "equal";
    }
    return "unknown";
}

TimestampArena pack_stamps(std::span<const VectorTimestamp> stamps) {
    const std::size_t width = stamps.empty() ? 0 : stamps.front().width();
    TimestampArena arena(width, stamps.size());
    for (const VectorTimestamp& stamp : stamps) {
        SYNCTS_REQUIRE(stamp.width() == width,
                       "all message timestamps must share one width");
        arena.allocate(stamp.components());
    }
    return arena;
}

std::size_t count_concurrent_pairs(std::span<const VectorTimestamp> stamps) {
    return count_concurrent_pairs(pack_stamps(stamps));
}

std::size_t count_concurrent_pairs(const TimestampArena& stamps,
                                   const AnalysisOptions& options) {
    const auto concurrent = [](std::size_t, std::uint8_t flag) {
        return flag == 0;
    };
    return sweep_pairs(stamps, options, /*after_only=*/true, /*list=*/false,
                       [&](std::size_t) { return concurrent; })
        .count;
}

std::size_t encoding_mismatches(const Poset& poset,
                                std::span<const VectorTimestamp> stamps) {
    return encoding_mismatches(poset, pack_stamps(stamps));
}

std::size_t encoding_mismatches(const Poset& poset,
                                const TimestampArena& stamps,
                                const AnalysisOptions& options) {
    return sweep_poset(poset, stamps, options, /*list=*/false, mismatch)
        .count;
}

std::vector<std::pair<std::size_t, std::size_t>> encoding_mismatch_pairs(
    const Poset& poset, const TimestampArena& stamps,
    const AnalysisOptions& options) {
    return sweep_poset(poset, stamps, options, /*list=*/true, mismatch)
        .pairs;
}

std::size_t consistency_violations(const Poset& poset,
                                   std::span<const VectorTimestamp> stamps) {
    return consistency_violations(poset, pack_stamps(stamps));
}

std::size_t consistency_violations(const Poset& poset,
                                   const TimestampArena& stamps,
                                   const AnalysisOptions& options) {
    return sweep_poset(poset, stamps, options, /*list=*/false,
                       [](bool truth, bool less) { return truth && !less; })
        .count;
}

std::size_t total_components(std::span<const VectorTimestamp> stamps) {
    std::size_t total = 0;
    for (const auto& s : stamps) total += s.width();
    return total;
}

std::size_t total_components(const TimestampArena& stamps) {
    return stamps.size() * stamps.width();
}

}  // namespace syncts
