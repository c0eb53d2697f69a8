// Experiment TAB-SIZE — timestamp width across topology families.
//
// The paper's headline size claims (Sections 1 and 3.3):
//   star / triangle            -> 1 component (an integer suffices)
//   client-server, k servers   -> k components regardless of client count
//   trees                      -> number of hubs, independent of N when
//                                 the shape is fixed
//   complete graphs            -> N-2 (the worst case)
//   in general                 -> min(beta(G), N-2), vs FM's N always.

#include <cstdio>

#include "common/rng.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "graph/vertex_cover.hpp"

using namespace syncts;

namespace {

void row(const char* family, std::size_t n, const Graph& g) {
    const SyncSystem system{Graph(g)};
    const std::size_t beta_approx = approx_vertex_cover(g).size();
    std::printf("%-22s %8zu %8zu %8zu %10zu %8.2fx\n", family, n,
                system.width(), beta_approx, n,
                static_cast<double>(n) /
                    static_cast<double>(system.width() ? system.width() : 1));
}

}  // namespace

int main() {
    std::printf("== TAB-SIZE: timestamp width by topology family ==\n\n");
    std::printf("%-22s %8s %8s %8s %10s %8s\n", "family", "N", "d",
                "2approxVC", "FM width", "FM/d");

    Rng rng(3003);
    for (std::size_t n : {8u, 32u, 128u, 512u}) {
        row("star", n, topology::star(n));
    }
    row("triangle", 3, topology::triangle());
    for (std::size_t clients : {8u, 32u, 128u, 512u}) {
        row("client-server k=4", 4 + clients,
            topology::client_server(4, clients));
    }
    for (std::size_t n : {16u, 64u, 256u}) {
        row("kary-tree k=4", n, topology::kary_tree(n, 4));
    }
    for (std::size_t n : {16u, 64u, 256u}) {
        row("random-tree", n, topology::random_tree(n, rng));
    }
    for (std::size_t n : {8u, 16u, 32u, 64u}) {
        row("complete", n, topology::complete(n));
    }
    for (std::size_t n : {16u, 64u, 256u}) {
        row("ring", n, topology::ring(n));
    }
    for (std::size_t n : {16u, 64u}) {
        row("gnp p=0.1", n, topology::random_gnp(n, 0.1, rng));
    }
    for (std::size_t n : {16u, 64u}) {
        row("grid 4-wide", n, topology::grid(4, n / 4));
    }

    std::printf(
        "\nshape check: star/triangle d=1; client-server d=4 at every "
        "client count; complete d=N-2; FM/d grows with N everywhere "
        "except the complete-graph worst case.\n");
    return 0;
}
