#include "decomp/exact_decomposer.hpp"

#include <algorithm>
#include <variant>
#include <vector>

#include "decomp/greedy_decomposer.hpp"
#include "graph/triangles.hpp"
#include "graph/vertex_cover.hpp"

namespace syncts {

std::size_t decomposition_lower_bound(const Graph& g) {
    // König: a minimum cover of a bipartite graph is as large as ν(G).
    if (const auto cover = bipartite_vertex_cover(g)) return cover->size();
    // K_n, n >= 3: if s distinct processes root the stars, the other
    // m = n - s span a clique whose edges only triangles can hold, at
    // most 3 each, so d >= s + ceil(m(m - 1)/6) >= n - 2, because
    // (m - 3)(m - 4) >= 0.
    const std::size_t n = g.num_vertices();
    if (n >= 3 && g.num_edges() == n * (n - 1) / 2) return n - 2;
    std::vector<char> used(g.num_vertices(), 0);
    std::size_t matched = 0;
    for (const Edge& e : g.edges()) {
        if (!used[e.u] && !used[e.v]) {
            used[e.u] = used[e.v] = 1;
            ++matched;
        }
    }
    return matched;
}

namespace {

/// One chosen covering object: a star root or a triangle.
using Choice = std::variant<ProcessId, Triangle>;

class DecompositionSearch {
public:
    DecompositionSearch(const Graph& g, std::size_t node_budget)
        : graph_(g), covered_(g.num_edges(), 0), node_budget_(node_budget) {}

    /// Returns the optimal choice list, or nullopt on budget exhaustion.
    std::optional<std::vector<Choice>> run(std::size_t initial_upper_bound) {
        best_size_ = initial_upper_bound;
        std::vector<Choice> current;
        branch(current);
        if (exhausted_) return std::nullopt;
        return best_;
    }

private:
    std::size_t first_uncovered() const {
        for (std::size_t i = 0; i < covered_.size(); ++i) {
            if (!covered_[i]) return i;
        }
        return covered_.size();
    }

    /// Greedy matching over uncovered edges: each matched edge needs its
    /// own group, lower-bounding the remaining groups.
    std::size_t matching_lower_bound() const {
        std::vector<char> used(graph_.num_vertices(), 0);
        std::size_t matched = 0;
        for (std::size_t i = 0; i < covered_.size(); ++i) {
            if (covered_[i]) continue;
            const Edge& e = graph_.edge(i);
            if (!used[e.u] && !used[e.v]) {
                used[e.u] = used[e.v] = 1;
                ++matched;
            }
        }
        return matched;
    }

    /// Covers all uncovered edges the object owns; returns them for undo.
    std::vector<std::size_t> apply(const Choice& choice) {
        std::vector<std::size_t> newly;
        const auto cover_edge = [&](std::size_t index) {
            if (!covered_[index]) {
                covered_[index] = 1;
                newly.push_back(index);
            }
        };
        if (const auto* root = std::get_if<ProcessId>(&choice)) {
            for (const ProcessId w : graph_.neighbors(*root)) {
                cover_edge(*graph_.edge_index(*root, w));
            }
        } else {
            const auto& t = std::get<Triangle>(choice);
            const auto [x, y, z] = t.corners;
            cover_edge(*graph_.edge_index(x, y));
            cover_edge(*graph_.edge_index(y, z));
            cover_edge(*graph_.edge_index(x, z));
        }
        return newly;
    }

    void undo(const std::vector<std::size_t>& newly) {
        for (const std::size_t index : newly) covered_[index] = 0;
    }

    void try_choice(const Choice& choice, std::vector<Choice>& current) {
        const auto newly = apply(choice);
        if (!newly.empty()) {
            current.push_back(choice);
            branch(current);
            current.pop_back();
        }
        undo(newly);
    }

    void branch(std::vector<Choice>& current) {
        if (exhausted_) return;
        if (++nodes_ > node_budget_) {
            exhausted_ = true;
            return;
        }
        const std::size_t pivot = first_uncovered();
        if (pivot == covered_.size()) {
            if (current.size() < best_size_) {
                best_size_ = current.size();
                best_ = current;
            }
            return;
        }
        if (current.size() + std::max<std::size_t>(matching_lower_bound(), 1)
            >= best_size_) {
            return;
        }
        const Edge& e = graph_.edge(pivot);
        try_choice(Choice{e.u}, current);
        try_choice(Choice{e.v}, current);
        for (const Triangle& t : triangles_containing(graph_, e.u, e.v)) {
            try_choice(Choice{t}, current);
        }
    }

    const Graph& graph_;
    std::vector<char> covered_;
    std::size_t node_budget_;
    std::size_t nodes_ = 0;
    bool exhausted_ = false;
    std::size_t best_size_ = 0;
    std::vector<Choice> best_;
};

/// Replays the winning choice list, assigning every edge to the first
/// object that covers it, and materializes the groups. A triangle object
/// that ends up owning fewer than its three edges degenerates into a star
/// (any two triangle edges share a corner).
EdgeDecomposition materialize(const Graph& g,
                              const std::vector<Choice>& choices) {
    EdgeDecomposition decomposition(g);
    std::vector<char> covered(g.num_edges(), 0);
    for (const Choice& choice : choices) {
        std::vector<Edge> owned;
        const auto claim = [&](const Edge& e) {
            const std::size_t index = *g.edge_index(e.u, e.v);
            if (!covered[index]) {
                covered[index] = 1;
                owned.push_back(e);
            }
        };
        if (const auto* root = std::get_if<ProcessId>(&choice)) {
            for (const ProcessId w : g.neighbors(*root)) {
                claim(Edge::make(*root, w));
            }
            if (!owned.empty()) decomposition.add_star(*root, owned);
            continue;
        }
        const auto& t = std::get<Triangle>(choice);
        const auto [x, y, z] = t.corners;
        claim(Edge::make(x, y));
        claim(Edge::make(y, z));
        claim(Edge::make(x, z));
        if (owned.size() == 3) {
            // add_triangle would double-assign; rebuild via the dedicated
            // path: un-claim and assign as a true triangle group.
            decomposition.add_triangle(t);
        } else if (owned.size() == 2) {
            // Two triangle edges always share exactly one corner.
            const Edge& a = owned[0];
            const Edge& b = owned[1];
            const ProcessId shared = b.touches(a.u) ? a.u : a.v;
            decomposition.add_star(shared, owned);
        } else if (owned.size() == 1) {
            decomposition.add_star(owned[0].u, owned);
        }
    }
    SYNCTS_ENSURE(decomposition.complete(),
                  "exact decomposition left edges unassigned");
    return decomposition;
}

}  // namespace

std::optional<EdgeDecomposition> exact_edge_decomposition(
    const Graph& g, std::size_t node_budget) {
    if (g.num_edges() == 0) return EdgeDecomposition(g);
    // Seed the upper bound with the better of the greedy result and the
    // 2-approximate cover, so pruning starts tight.
    const std::size_t greedy_size = greedy_edge_decomposition(g).size();
    DecompositionSearch search(g, node_budget);
    const auto choices = search.run(greedy_size + 1);
    if (!choices.has_value()) return std::nullopt;
    return materialize(g, *choices);
}

}  // namespace syncts
