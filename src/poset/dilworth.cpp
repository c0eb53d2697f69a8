#include "poset/dilworth.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "graph/hopcroft_karp.hpp"

namespace syncts {

namespace {

BipartiteMatcher build_matcher(const Poset& poset) {
    const std::size_t n = poset.size();
    BipartiteMatcher matcher(n, n);
    for (std::size_t a = 0; a < n; ++a) {
        poset.up_set(a).for_each(
            [&](std::size_t b) { matcher.add_edge(a, b); });
    }
    return matcher;
}

}  // namespace

ChainPartition dilworth_chain_partition(const Poset& poset) {
    const std::size_t n = poset.size();
    BipartiteMatcher matcher = build_matcher(poset);
    matcher.solve();

    // x is a chain head iff nothing is matched *into* x (x_right unmatched).
    ChainPartition partition;
    partition.chain_of.assign(n, 0);
    for (std::size_t x = 0; x < n; ++x) {
        if (matcher.match_of_right(x) != BipartiteMatcher::npos) continue;
        std::vector<std::size_t> chain;
        std::size_t current = x;
        for (;;) {
            chain.push_back(current);
            const std::size_t next = matcher.match_of_left(current);
            if (next == BipartiteMatcher::npos) break;
            current = next;
        }
        const std::size_t chain_index = partition.chains.size();
        for (const std::size_t elem : chain) {
            partition.chain_of[elem] = chain_index;
        }
        partition.chains.push_back(std::move(chain));
    }
    SYNCTS_ENSURE(is_chain_partition(poset, partition),
                  "Dilworth construction produced an invalid chain partition");
    return partition;
}

std::size_t poset_width(const Poset& poset) {
    BipartiteMatcher matcher = build_matcher(poset);
    return poset.size() - matcher.solve();
}

std::vector<std::size_t> maximum_antichain(const Poset& poset) {
    const std::size_t n = poset.size();
    BipartiteMatcher matcher = build_matcher(poset);
    const std::size_t matched = matcher.solve();
    const auto [cover_left, cover_right] = matcher.minimum_vertex_cover();
    std::vector<std::size_t> antichain;
    for (std::size_t x = 0; x < n; ++x) {
        // x survives when neither copy is needed to cover a comparability
        // edge; the survivors are pairwise incomparable and n − |cover| of
        // them exist, matching the width by König + Dilworth.
        if (!cover_left[x] && !cover_right[x]) antichain.push_back(x);
    }
    SYNCTS_ENSURE(antichain.size() == n - matched,
                  "König antichain size mismatch");
    SYNCTS_ENSURE(is_antichain(poset, antichain),
                  "König construction produced comparable elements");
    return antichain;
}

bool is_antichain(const Poset& poset, const std::vector<std::size_t>& elems) {
    for (std::size_t i = 0; i < elems.size(); ++i) {
        for (std::size_t j = i + 1; j < elems.size(); ++j) {
            if (!poset.incomparable(elems[i], elems[j])) return false;
        }
    }
    return true;
}

bool is_chain_partition(const Poset& poset, const ChainPartition& partition) {
    std::vector<char> seen(poset.size(), 0);
    std::size_t total = 0;
    for (const auto& chain : partition.chains) {
        for (std::size_t i = 0; i < chain.size(); ++i) {
            if (chain[i] >= poset.size() || seen[chain[i]]) return false;
            seen[chain[i]] = 1;
            ++total;
            if (i + 1 < chain.size() && !poset.less(chain[i], chain[i + 1])) {
                return false;
            }
        }
    }
    return total == poset.size();
}

}  // namespace syncts
