// Experiment FIG4 — tree topologies (Fig. 4).
//
// The paper's 20-process tree decomposes into three stars E1, E2, E3, and
// Theorem 7 says the greedy algorithm is optimal on acyclic graphs. We
// print the Fig. 4 decomposition, then sweep random and k-ary trees: the
// vector width is the tree's vertex-cover size, which grows with the
// number of internal hubs, not with N — for hub-dominated trees it stays
// constant while FM's width grows linearly.

#include <cstdio>

#include "common/rng.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"

using namespace syncts;

int main() {
    std::printf("== FIG4: tree decompositions ==\n\n");

    const Graph fig4 = topology::paper_fig4_tree();
    const auto d = greedy_edge_decomposition(fig4);
    std::printf("paper's 20-process tree -> %zu stars:\n  %s\n\n", d.size(),
                d.to_string().c_str());

    std::printf("three-hub trees (Fig. 4 shape), leaves added per hub:\n");
    std::printf("%8s %8s %8s %10s\n", "N", "d", "beta", "FM width");
    for (std::size_t leaves_per_hub = 2; leaves_per_hub <= 1024;
         leaves_per_hub *= 4) {
        // Three hubs in a path, each with `leaves_per_hub` leaves.
        const std::size_t n = 3 + 3 * leaves_per_hub;
        Graph g(n);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        ProcessId next = 3;
        for (ProcessId hub = 0; hub < 3; ++hub) {
            for (std::size_t i = 0; i < leaves_per_hub; ++i) {
                g.add_edge(hub, next++);
            }
        }
        const auto decomposition = greedy_edge_decomposition(g);
        std::printf("%8zu %8zu %8zu %10zu\n", n, decomposition.size(),
                    exact_vertex_cover(g).size(), n);
    }
    std::printf("  ^ d stays 3 while N grows: constant-size timestamps.\n\n");

    std::printf("random trees (greedy vs optimal = vertex cover):\n");
    std::printf("%8s %10s %10s %10s\n", "N", "greedy d", "beta", "optimal?");
    Rng rng(2002);
    for (std::size_t n : {8u, 16u, 32u, 64u, 128u, 256u, 1024u, 4096u}) {
        const Graph tree = topology::random_tree(n, rng);
        const auto decomposition = greedy_edge_decomposition(tree);
        // Theorem 7: greedy is optimal on forests; the optimum for a
        // forest equals its minimum vertex cover. Exact beta is
        // exponential in beta, so check it only on small instances.
        if (n <= 64) {
            const std::size_t beta = exact_vertex_cover(tree).size();
            std::printf("%8zu %10zu %10zu %10s\n", n, decomposition.size(),
                        beta, decomposition.size() == beta ? "yes" : "NO");
        } else {
            std::printf("%8zu %10zu %10s %10s\n", n, decomposition.size(),
                        "-", "-");
        }
    }

    std::printf("\nk-ary trees (every internal vertex is a hub):\n");
    std::printf("%8s %6s %10s %10s\n", "N", "k", "greedy d", "FM width");
    for (const std::size_t k : {2u, 4u, 8u}) {
        for (std::size_t n : {15u, 63u, 255u}) {
            const Graph tree = topology::kary_tree(n, k);
            const auto decomposition = greedy_edge_decomposition(tree);
            std::printf("%8zu %6zu %10zu %10zu\n", n, k, decomposition.size(),
                        n);
        }
    }
    std::printf(
        "\nshape check: d tracks the number of internal hubs (N/k for "
        "k-ary), always well below FM's N.\n");
    return 0;
}
