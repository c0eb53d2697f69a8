#include "graph/hopcroft_karp.hpp"

#include <limits>

#include "common/check.hpp"

namespace syncts {

namespace {
constexpr std::size_t kInfinity = std::numeric_limits<std::size_t>::max();
}

BipartiteMatcher::BipartiteMatcher(std::size_t lefts, std::size_t rights)
    : lefts_(lefts),
      rights_(rights),
      adjacency_(lefts),
      match_left_(lefts, npos),
      match_right_(rights, npos) {}

void BipartiteMatcher::add_edge(std::size_t l, std::size_t r) {
    SYNCTS_REQUIRE(l < lefts_ && r < rights_, "matcher vertex out of range");
    SYNCTS_REQUIRE(!solved_, "cannot add edges after solve()");
    adjacency_[l].push_back(r);
}

bool BipartiteMatcher::bfs_layers() {
    layer_.assign(lefts_, kInfinity);
    std::vector<std::size_t> queue;
    for (std::size_t l = 0; l < lefts_; ++l) {
        if (match_left_[l] == npos) {
            layer_[l] = 0;
            queue.push_back(l);
        }
    }
    bool reachable_free_right = false;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t l = queue[head];
        for (const std::size_t r : adjacency_[l]) {
            const std::size_t next = match_right_[r];
            if (next == npos) {
                reachable_free_right = true;
            } else if (layer_[next] == kInfinity) {
                layer_[next] = layer_[l] + 1;
                queue.push_back(next);
            }
        }
    }
    return reachable_free_right;
}

bool BipartiteMatcher::dfs_augment(std::size_t l) {
    for (const std::size_t r : adjacency_[l]) {
        const std::size_t next = match_right_[r];
        if (next == npos ||
            (layer_[next] == layer_[l] + 1 && dfs_augment(next))) {
            match_left_[l] = r;
            match_right_[r] = l;
            return true;
        }
    }
    layer_[l] = kInfinity;  // dead end; prune for this phase
    return false;
}

std::size_t BipartiteMatcher::solve() {
    if (solved_) return matching_size_;
    while (bfs_layers()) {
        for (std::size_t l = 0; l < lefts_; ++l) {
            if (match_left_[l] == npos && dfs_augment(l)) ++matching_size_;
        }
    }
    solved_ = true;
    return matching_size_;
}

std::size_t BipartiteMatcher::match_of_left(std::size_t l) const {
    SYNCTS_REQUIRE(l < lefts_, "matcher vertex out of range");
    return match_left_[l];
}

std::size_t BipartiteMatcher::match_of_right(std::size_t r) const {
    SYNCTS_REQUIRE(r < rights_, "matcher vertex out of range");
    return match_right_[r];
}

std::pair<std::vector<char>, std::vector<char>>
BipartiteMatcher::minimum_vertex_cover() {
    SYNCTS_REQUIRE(solved_, "solve() must run before minimum_vertex_cover()");
    // König: alternate BFS from unmatched left vertices; cover is
    // (unvisited lefts) ∪ (visited rights).
    std::vector<char> visited_left(lefts_, 0);
    std::vector<char> visited_right(rights_, 0);
    std::vector<std::size_t> queue;
    for (std::size_t l = 0; l < lefts_; ++l) {
        if (match_left_[l] == npos) {
            visited_left[l] = 1;
            queue.push_back(l);
        }
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const std::size_t l = queue[head];
        for (const std::size_t r : adjacency_[l]) {
            if (visited_right[r]) continue;
            visited_right[r] = 1;
            const std::size_t next = match_right_[r];
            if (next != npos && !visited_left[next]) {
                visited_left[next] = 1;
                queue.push_back(next);
            }
        }
    }
    std::vector<char> cover_left(lefts_, 0);
    std::vector<char> cover_right(rights_, 0);
    for (std::size_t l = 0; l < lefts_; ++l) cover_left[l] = !visited_left[l];
    for (std::size_t r = 0; r < rights_; ++r) cover_right[r] = visited_right[r];
    return {cover_left, cover_right};
}

}  // namespace syncts
