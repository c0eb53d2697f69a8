#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "graph/hopcroft_karp.hpp"

namespace syncts {
namespace {

/// Exhaustive maximum matching by recursion (tiny instances only).
std::size_t brute_force_matching(
    std::size_t lefts, std::size_t rights,
    const std::vector<std::pair<std::size_t, std::size_t>>& edges) {
    std::vector<char> used_right(rights, 0);
    const auto recurse = [&](auto&& self, std::size_t l) -> std::size_t {
        if (l == lefts) return 0;
        std::size_t best = self(self, l + 1);  // skip l
        for (const auto& [a, b] : edges) {
            if (a != l || used_right[b]) continue;
            used_right[b] = 1;
            best = std::max(best, 1 + self(self, l + 1));
            used_right[b] = 0;
        }
        return best;
    };
    return recurse(recurse, 0);
}

TEST(Matching, EmptyGraph) {
    BipartiteMatcher m(3, 3);
    EXPECT_EQ(m.solve(), 0u);
    EXPECT_EQ(m.match_of_left(0), BipartiteMatcher::npos);
}

TEST(Matching, PerfectMatching) {
    BipartiteMatcher m(3, 3);
    for (std::size_t i = 0; i < 3; ++i) m.add_edge(i, i);
    EXPECT_EQ(m.solve(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(m.match_of_left(i), i);
        EXPECT_EQ(m.match_of_right(i), i);
    }
}

TEST(Matching, RequiresAugmentingPaths) {
    // Classic instance where greedy fails but augmenting succeeds:
    // L0-{R0,R1}, L1-{R0}.
    BipartiteMatcher m(2, 2);
    m.add_edge(0, 0);
    m.add_edge(0, 1);
    m.add_edge(1, 0);
    EXPECT_EQ(m.solve(), 2u);
}

TEST(Matching, SolveIsIdempotent) {
    BipartiteMatcher m(2, 2);
    m.add_edge(0, 0);
    m.add_edge(1, 1);
    EXPECT_EQ(m.solve(), 2u);
    EXPECT_EQ(m.solve(), 2u);
}

TEST(Matching, EdgeAfterSolveRejected) {
    BipartiteMatcher m(2, 2);
    m.solve();
    EXPECT_THROW(m.add_edge(0, 0), std::invalid_argument);
}

TEST(Matching, MatchesBruteForceOnRandomInstances) {
    Rng rng(31);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t lefts = 2 + rng.below(6);
        const std::size_t rights = 2 + rng.below(6);
        std::vector<std::pair<std::size_t, std::size_t>> edges;
        BipartiteMatcher m(lefts, rights);
        for (std::size_t l = 0; l < lefts; ++l) {
            for (std::size_t r = 0; r < rights; ++r) {
                if (rng.chance(2, 5)) {
                    edges.emplace_back(l, r);
                    m.add_edge(l, r);
                }
            }
        }
        EXPECT_EQ(m.solve(), brute_force_matching(lefts, rights, edges))
            << "trial " << trial;
    }
}

TEST(Matching, MatchingIsConsistent) {
    Rng rng(32);
    BipartiteMatcher m(20, 20);
    for (std::size_t l = 0; l < 20; ++l) {
        for (std::size_t r = 0; r < 20; ++r) {
            if (rng.chance(1, 4)) m.add_edge(l, r);
        }
    }
    const std::size_t size = m.solve();
    std::size_t observed = 0;
    for (std::size_t l = 0; l < 20; ++l) {
        const std::size_t r = m.match_of_left(l);
        if (r == BipartiteMatcher::npos) continue;
        EXPECT_EQ(m.match_of_right(r), l);
        ++observed;
    }
    EXPECT_EQ(observed, size);
}

TEST(Matching, KoenigCoverIsValidAndTight) {
    Rng rng(33);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t lefts = 3 + rng.below(8);
        const std::size_t rights = 3 + rng.below(8);
        BipartiteMatcher m(lefts, rights);
        std::vector<std::pair<std::size_t, std::size_t>> edges;
        for (std::size_t l = 0; l < lefts; ++l) {
            for (std::size_t r = 0; r < rights; ++r) {
                if (rng.chance(1, 3)) {
                    m.add_edge(l, r);
                    edges.emplace_back(l, r);
                }
            }
        }
        const std::size_t matched = m.solve();
        const auto [cover_left, cover_right] = m.minimum_vertex_cover();
        std::size_t cover_size = 0;
        for (const char c : cover_left) cover_size += c ? 1 : 0;
        for (const char c : cover_right) cover_size += c ? 1 : 0;
        // König: |min cover| == |max matching|, and it covers every edge.
        EXPECT_EQ(cover_size, matched) << "trial " << trial;
        for (const auto& [l, r] : edges) {
            EXPECT_TRUE(cover_left[l] || cover_right[r]);
        }
    }
}

TEST(Matching, CoverBeforeSolveRejected) {
    BipartiteMatcher m(2, 2);
    EXPECT_THROW(m.minimum_vertex_cover(), std::invalid_argument);
}

}  // namespace
}  // namespace syncts
