#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/codec.hpp"
#include "common/rng.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "trace/computation.hpp"
#include "trace/generator.hpp"

/// Shared fixtures for the property-test sweeps: named topology families
/// instantiated across sizes, and random computations over them.

namespace syncts::testing {

/// `body` followed by its checksum trailer: a hand-forged record that
/// clears the checksum, so a decoder's structural checks are what meet it.
inline std::vector<std::uint8_t> sealed(const std::vector<std::uint8_t>& body) {
    std::vector<std::uint8_t> out;
    codec::Writer writer(out, body.size());
    writer.bytes(body);
    writer.seal();
    return out;
}

/// `values` as varints, one after another.
inline std::vector<std::uint8_t> varints(
    const std::vector<std::uint64_t>& values) {
    std::vector<std::uint8_t> out;
    codec::Writer writer(out, 0);
    for (const std::uint64_t value : values) writer.varint(value);
    writer.finish();
    return out;
}

struct TopologyCase {
    std::string name;
    Graph graph;
};

/// A representative spread of connected topologies of roughly `n`
/// processes (exact vertex counts vary by family shape).
inline std::vector<TopologyCase> topology_suite(std::size_t n,
                                                std::uint64_t seed) {
    Rng rng(seed);
    std::vector<TopologyCase> cases;
    cases.push_back({"star", topology::star(n)});
    cases.push_back({"path", topology::path(n)});
    cases.push_back({"ring", topology::ring(n < 3 ? 3 : n)});
    cases.push_back({"complete", topology::complete(n)});
    cases.push_back({"random_tree", topology::random_tree(n, rng)});
    cases.push_back({"kary_tree", topology::kary_tree(n, 3)});
    cases.push_back(
        {"client_server", topology::client_server(3, n > 3 ? n - 3 : 1)});
    cases.push_back({"grid", topology::grid(4, (n + 3) / 4)});
    cases.push_back({"sparse_random",
                     topology::random_connected(n, n / 2, rng)});
    cases.push_back({"dense_random",
                     topology::random_connected(n, n * 2, rng)});
    return cases;
}

/// Small graphs (including disconnected and degenerate ones) for
/// decomposition stress tests.
inline std::vector<TopologyCase> small_graph_suite(std::uint64_t seed) {
    Rng rng(seed);
    std::vector<TopologyCase> cases;
    cases.push_back({"single_edge", topology::path(2)});
    cases.push_back({"triangle", topology::triangle()});
    cases.push_back({"k4", topology::complete(4)});
    cases.push_back({"k5", topology::complete(5)});
    cases.push_back({"k6", topology::complete(6)});
    cases.push_back({"two_triangles", topology::disjoint_triangles(2)});
    cases.push_back({"three_triangles", topology::disjoint_triangles(3)});
    cases.push_back({"paper_fig2b", topology::paper_fig2b()});
    cases.push_back({"paper_fig4", topology::paper_fig4_tree()});
    cases.push_back({"path7", topology::path(7)});
    cases.push_back({"ring8", topology::ring(8)});
    cases.push_back({"grid3x3", topology::grid(3, 3)});
    cases.push_back({"hypercube3", topology::hypercube(3)});
    cases.push_back({"cs_2x4", topology::client_server(2, 4)});
    for (int i = 0; i < 6; ++i) {
        cases.push_back({"gnp10_" + std::to_string(i),
                         topology::random_gnp(10, 0.35, rng)});
    }
    return cases;
}

inline SyncComputation random_workload(const Graph& g, std::size_t messages,
                                       double internal_rate,
                                       std::uint64_t seed) {
    Rng rng(seed);
    WorkloadOptions options;
    options.num_messages = messages;
    options.internal_rate = internal_rate;
    return random_computation(g, options, rng);
}

}  // namespace syncts::testing
