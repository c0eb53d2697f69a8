#include "graph/vertex_cover.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/hopcroft_karp.hpp"

namespace syncts {

std::vector<ProcessId> approx_vertex_cover(const Graph& g) {
    std::vector<char> in_cover(g.num_vertices(), 0);
    std::vector<ProcessId> cover;
    for (const Edge& e : g.edges()) {
        if (!in_cover[e.u] && !in_cover[e.v]) {
            in_cover[e.u] = in_cover[e.v] = 1;
            cover.push_back(e.u);
            cover.push_back(e.v);
        }
    }
    return cover;
}

std::optional<std::vector<ProcessId>> bipartite_vertex_cover(const Graph& g) {
    // 2-colour every component by BFS; `slot` is a vertex's index among
    // the vertices of its colour, i.e. its matcher-side vertex id.
    constexpr std::uint8_t kUncoloured = 2;
    const std::size_t n = g.num_vertices();
    std::vector<std::uint8_t> colour(n, kUncoloured);
    std::vector<std::size_t> slot(n);
    std::size_t class_size[2] = {0, 0};
    std::vector<ProcessId> queue;
    for (ProcessId source = 0; source < n; ++source) {
        if (colour[source] != kUncoloured) continue;
        colour[source] = 0;
        queue.assign(1, source);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const ProcessId v = queue[head];
            slot[v] = class_size[colour[v]]++;
            for (const ProcessId w : g.neighbors(v)) {
                if (colour[w] == colour[v]) return std::nullopt;  // odd cycle
                if (colour[w] == kUncoloured) {
                    colour[w] = colour[v] == 0 ? 1 : 0;
                    queue.push_back(w);
                }
            }
        }
    }

    BipartiteMatcher matcher(class_size[0], class_size[1]);
    for (const Edge& e : g.edges()) {
        const ProcessId left = colour[e.u] == 0 ? e.u : e.v;
        matcher.add_edge(slot[left], slot[e.other(left)]);
    }
    matcher.solve();
    const auto [left_cover, right_cover] = matcher.minimum_vertex_cover();
    std::vector<ProcessId> cover;
    for (ProcessId v = 0; v < n; ++v) {
        if ((colour[v] == 0 ? left_cover : right_cover)[slot[v]]) {
            cover.push_back(v);
        }
    }
    return cover;
}

bool is_vertex_cover(const Graph& g, const std::vector<ProcessId>& cover) {
    std::vector<char> in_cover(g.num_vertices(), 0);
    for (const ProcessId v : cover) {
        if (v >= g.num_vertices()) return false;
        in_cover[v] = 1;
    }
    return std::ranges::all_of(g.edges(), [&](const Edge& e) {
        return in_cover[e.u] || in_cover[e.v];
    });
}

namespace {

/// Mutable working state for the branch-and-bound search. Vertices are
/// "removed" when placed in the cover or when isolated; adjacency is kept as
/// per-vertex neighbor vectors with lazily checked liveness.
class CoverSearch {
public:
    explicit CoverSearch(const Graph& g)
        : adjacency_(g.num_vertices()), alive_(g.num_vertices(), 1) {
        for (const Edge& e : g.edges()) {
            adjacency_[e.u].push_back(e.v);
            adjacency_[e.v].push_back(e.u);
        }
        best_.resize(g.num_vertices());
        for (ProcessId v = 0; v < g.num_vertices(); ++v) best_[v] = v;
    }

    std::vector<ProcessId> run() {
        std::vector<ProcessId> current;
        branch(current);
        return best_;
    }

private:
    std::size_t live_degree(ProcessId v) const {
        std::size_t d = 0;
        for (const ProcessId w : adjacency_[v]) d += alive_[w] ? 1 : 0;
        return d;
    }

    /// Greedy matching on the live graph: every matched edge needs a
    /// distinct cover vertex, so |matching| lower-bounds the remaining cost.
    std::size_t matching_lower_bound() const {
        std::vector<char> used(alive_.size(), 0);
        std::size_t matched = 0;
        for (ProcessId v = 0; v < alive_.size(); ++v) {
            if (!alive_[v] || used[v]) continue;
            for (const ProcessId w : adjacency_[v]) {
                if (alive_[w] && !used[w] && w != v) {
                    used[v] = used[w] = 1;
                    ++matched;
                    break;
                }
            }
        }
        return matched;
    }

    void take(ProcessId v, std::vector<ProcessId>& current) {
        alive_[v] = 0;
        current.push_back(v);
    }

    void untake(ProcessId v, std::vector<ProcessId>& current) {
        alive_[v] = 1;
        current.pop_back();
    }

    void branch(std::vector<ProcessId>& current) {
        if (current.size() + matching_lower_bound() >= best_.size()) return;

        // Degree-1 reduction: if v has exactly one live neighbor w, some
        // optimal extension takes w. Applied exhaustively before branching.
        for (ProcessId v = 0; v < alive_.size(); ++v) {
            if (!alive_[v] || live_degree(v) != 1) continue;
            ProcessId w = kNoProcess;
            for (const ProcessId candidate : adjacency_[v]) {
                if (alive_[candidate]) {
                    w = candidate;
                    break;
                }
            }
            take(w, current);
            branch(current);
            untake(w, current);
            return;
        }

        // Branch on a maximum-live-degree vertex.
        ProcessId pivot = kNoProcess;
        std::size_t pivot_degree = 0;
        for (ProcessId v = 0; v < alive_.size(); ++v) {
            if (!alive_[v]) continue;
            const std::size_t d = live_degree(v);
            if (d > pivot_degree) {
                pivot_degree = d;
                pivot = v;
            }
        }
        if (pivot == kNoProcess || pivot_degree == 0) {
            // No live edges remain: `current` is a cover.
            if (current.size() < best_.size()) best_ = current;
            return;
        }

        // Option A: pivot joins the cover.
        take(pivot, current);
        branch(current);
        untake(pivot, current);

        // Option B: pivot stays out, so all its live neighbors join.
        std::vector<ProcessId> taken;
        for (const ProcessId w : adjacency_[pivot]) {
            if (alive_[w]) {
                take(w, current);
                taken.push_back(w);
            }
        }
        branch(current);
        for (auto it = taken.rbegin(); it != taken.rend(); ++it) {
            untake(*it, current);
        }
    }

    std::vector<std::vector<ProcessId>> adjacency_;
    std::vector<char> alive_;
    std::vector<ProcessId> best_;
};

}  // namespace

std::vector<ProcessId> exact_vertex_cover(const Graph& g) {
    if (g.num_edges() == 0) return {};
    CoverSearch search(g);
    std::vector<ProcessId> cover = search.run();
    std::ranges::sort(cover);
    SYNCTS_ENSURE(is_vertex_cover(g, cover),
                  "exact_vertex_cover produced a non-cover");
    return cover;
}

}  // namespace syncts
