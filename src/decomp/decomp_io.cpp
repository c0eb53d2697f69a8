#include "decomp/decomp_io.hpp"

#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace syncts {

void write_decomposition(std::ostream& out,
                         const EdgeDecomposition& decomposition,
                         EpochId epoch) {
    const Graph& g = decomposition.graph();
    if (epoch == 0) {
        // Epoch 0 keeps the pre-epoch layout byte-identical, so old
        // readers stay compatible with the common case.
        out << "syncts-decomp 1\n";
    } else {
        out << "syncts-decomp 2\n";
        out << "epoch " << epoch << '\n';
    }
    out << "processes " << g.num_vertices() << '\n';
    out << "edges " << g.num_edges() << '\n';
    for (const Edge& e : g.edges()) out << "e " << e.u << ' ' << e.v << '\n';
    out << "groups " << decomposition.size() << '\n';
    for (const EdgeGroup& group : decomposition.groups()) {
        if (group.kind == GroupKind::star) {
            out << "s " << group.root << ' ' << group.edges.size();
            for (const Edge& e : group.edges) {
                out << ' ' << e.u << ' ' << e.v;
            }
            out << '\n';
        } else {
            out << "t " << group.triangle.corners[0] << ' '
                << group.triangle.corners[1] << ' '
                << group.triangle.corners[2] << '\n';
        }
    }
}

void write_decomposition(std::ostream& out,
                         const EdgeDecomposition& decomposition) {
    write_decomposition(out, decomposition, 0);
}

std::string serialize_decomposition(const EdgeDecomposition& decomposition,
                                    EpochId epoch) {
    std::ostringstream os;
    write_decomposition(os, decomposition, epoch);
    return os.str();
}

std::string serialize_decomposition(const EdgeDecomposition& decomposition) {
    return serialize_decomposition(decomposition, 0);
}

namespace {

using Kind = DecompIoError::Kind;

std::string next_token(std::istream& in, const char* what) {
    std::string token;
    if (!(in >> token)) {
        throw DecompIoError(
            Kind::truncated,
            std::string("decomposition input truncated, expected ") + what);
    }
    return token;
}

std::size_t next_number(std::istream& in, const char* what) {
    const std::string token = next_token(in, what);
    try {
        // std::stoull would read "-1" as 2^64 - 1.
        if (token[0] < '0' || token[0] > '9') {
            throw std::invalid_argument(token);
        }
        std::size_t consumed = 0;
        const unsigned long long value = std::stoull(token, &consumed);
        if (consumed != token.size()) {
            throw DecompIoError(Kind::bad_number,
                                std::string("trailing garbage in ") + what +
                                    ": '" + token + "'");
        }
        return static_cast<std::size_t>(value);
    } catch (const std::logic_error&) {
        throw DecompIoError(Kind::bad_number,
                            std::string("expected a number for ") + what +
                                ", got '" + token + "'");
    }
}

ProcessId next_process(std::istream& in, std::size_t n, const char* what) {
    const std::size_t value = next_number(in, what);
    if (value >= n) {
        throw DecompIoError(Kind::out_of_range,
                            std::string(what) + " out of range");
    }
    return static_cast<ProcessId>(value);
}

void expect_keyword(std::istream& in, const char* keyword) {
    if (next_token(in, keyword) != keyword) {
        throw DecompIoError(Kind::bad_record,
                            std::string("expected '") + keyword + "'");
    }
}

}  // namespace

TaggedDecomposition read_tagged_decomposition(std::istream& in) {
    if (next_token(in, "magic") != "syncts-decomp") {
        throw DecompIoError(Kind::bad_magic,
                            "not a syncts decomposition (bad magic)");
    }
    const std::size_t version = next_number(in, "version");
    if (version != 1 && version != 2) {
        throw DecompIoError(Kind::bad_version,
                            "unsupported decomposition version " +
                                std::to_string(version));
    }
    EpochId epoch = 0;
    if (version == 2) {
        expect_keyword(in, "epoch");
        const std::size_t value = next_number(in, "epoch id");
        // Epoch 0 is spelled as version 1; a v2 file claiming it is
        // either hand-mangled or from a writer this build doesn't know.
        if (value == 0 || value > std::numeric_limits<EpochId>::max()) {
            throw DecompIoError(Kind::out_of_range,
                                "version-2 epoch id out of range");
        }
        epoch = static_cast<EpochId>(value);
    }
    expect_keyword(in, "processes");
    const std::size_t n = next_number(in, "process count");
    if (n > kMaxDeclaredProcesses) {
        throw DecompIoError(Kind::out_of_range,
                            "process count " + std::to_string(n) +
                                " exceeds the reader bound of " +
                                std::to_string(kMaxDeclaredProcesses));
    }
    expect_keyword(in, "edges");
    const std::size_t m = next_number(in, "edge count");

    Graph g(n);
    for (std::size_t i = 0; i < m; ++i) {
        if (next_token(in, "edge record") != "e") {
            throw DecompIoError(Kind::bad_record, "expected edge record 'e'");
        }
        const ProcessId u = next_process(in, n, "edge endpoint");
        const ProcessId v = next_process(in, n, "edge endpoint");
        g.add_edge(u, v);
    }

    expect_keyword(in, "groups");
    const std::size_t group_count = next_number(in, "group count");
    if (group_count == 0 && g.num_edges() > 0) {
        // Catch the gap at the declaration, not via the completeness
        // sweep after the fact: a groupless artifact for a non-empty
        // graph is a distinct (and historically confusing) failure.
        throw DecompIoError(
            Kind::empty_groups,
            "decomposition declares no groups but the graph has " +
                std::to_string(g.num_edges()) + " channel(s)");
    }
    EdgeDecomposition decomposition(std::move(g));
    for (std::size_t i = 0; i < group_count; ++i) {
        const std::string kind = next_token(in, "group record");
        if (kind == "s") {
            const ProcessId root = next_process(in, n, "star root");
            const std::size_t edge_count = next_number(in, "star edge count");
            if (edge_count > decomposition.graph().num_edges()) {
                throw DecompIoError(Kind::out_of_range,
                                    "star edge count beyond the graph's "
                                    "edge count");
            }
            std::vector<Edge> edges;
            edges.reserve(edge_count);
            for (std::size_t k = 0; k < edge_count; ++k) {
                const ProcessId u = next_process(in, n, "star edge endpoint");
                const ProcessId v = next_process(in, n, "star edge endpoint");
                edges.push_back(Edge::make(u, v));
            }
            decomposition.add_star(root, edges);
        } else if (kind == "t") {
            const ProcessId x = next_process(in, n, "triangle corner");
            const ProcessId y = next_process(in, n, "triangle corner");
            const ProcessId z = next_process(in, n, "triangle corner");
            decomposition.add_triangle(Triangle::make(x, y, z));
        } else {
            throw DecompIoError(Kind::bad_record,
                                "unknown group record '" + kind + "'");
        }
    }
    if (!decomposition.complete()) {
        throw DecompIoError(Kind::incomplete,
                            "decomposition does not cover every edge");
    }
    return TaggedDecomposition{.epoch = epoch,
                               .decomposition = std::move(decomposition)};
}

TaggedDecomposition parse_tagged_decomposition(const std::string& text) {
    std::istringstream in(text);
    return read_tagged_decomposition(in);
}

EdgeDecomposition read_decomposition(std::istream& in) {
    return read_tagged_decomposition(in).decomposition;
}

EdgeDecomposition parse_decomposition(const std::string& text) {
    std::istringstream in(text);
    return read_decomposition(in);
}

}  // namespace syncts
