#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "decomp/cover_decomposer.hpp"
#include "decomp/decomp_io.hpp"
#include "decomp/greedy_decomposer.hpp"
#include "test_util.hpp"

namespace syncts {
namespace {

void expect_same_assignment(const EdgeDecomposition& a,
                            const EdgeDecomposition& b) {
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.graph().num_vertices(), b.graph().num_vertices());
    ASSERT_EQ(a.graph().num_edges(), b.graph().num_edges());
    ASSERT_EQ(a.star_count(), b.star_count());
    for (const Edge& e : a.graph().edges()) {
        EXPECT_EQ(a.group_of(e.u, e.v), b.group_of(e.u, e.v));
    }
    for (GroupId id = 0; id < a.size(); ++id) {
        EXPECT_EQ(a.group(id).kind, b.group(id).kind);
        if (a.group(id).kind == GroupKind::star) {
            EXPECT_EQ(a.group(id).root, b.group(id).root);
        } else {
            EXPECT_EQ(a.group(id).triangle, b.group(id).triangle);
        }
    }
}

TEST(DecompIo, RoundTripAcrossSuite) {
    for (const auto& [name, graph] : testing::small_graph_suite(33)) {
        if (graph.num_edges() == 0) continue;
        const EdgeDecomposition original = default_decomposition(graph);
        const EdgeDecomposition parsed =
            parse_decomposition(serialize_decomposition(original));
        expect_same_assignment(original, parsed);
    }
}

TEST(DecompIo, FormatIsStableAndReadable) {
    const EdgeDecomposition d =
        trivial_complete_decomposition(topology::complete(4));
    EXPECT_EQ(serialize_decomposition(d),
              "syncts-decomp 1\n"
              "processes 4\n"
              "edges 6\n"
              "e 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
              "groups 2\n"
              "s 0 3 0 1 0 2 0 3\n"
              "t 1 2 3\n");
}

TEST(DecompIo, StreamOverloads) {
    const EdgeDecomposition original =
        greedy_edge_decomposition(topology::paper_fig2b());
    std::stringstream stream;
    write_decomposition(stream, original);
    expect_same_assignment(original, read_decomposition(stream));
}

TEST(DecompIo, EpochTagRoundTripsAtVersion2) {
    for (const auto& [name, graph] : testing::small_graph_suite(34)) {
        if (graph.num_edges() == 0) continue;
        const EdgeDecomposition original = default_decomposition(graph);
        for (const EpochId epoch : {EpochId{1}, EpochId{7}}) {
            const TaggedDecomposition parsed = parse_tagged_decomposition(
                serialize_decomposition(original, epoch));
            EXPECT_EQ(parsed.epoch, epoch) << name;
            expect_same_assignment(original, parsed.decomposition);
        }
    }
}

TEST(DecompIo, EpochZeroSerializesAsVersionOneBytes) {
    // The back-compat rule (docs/FORMATS.md): epoch 0 is spelled in the
    // pre-epoch layout, so old readers keep working on the common case.
    const EdgeDecomposition d =
        default_decomposition(topology::paper_fig2b());
    EXPECT_EQ(serialize_decomposition(d, 0), serialize_decomposition(d));
    EXPECT_EQ(serialize_decomposition(d, 0).substr(0, 15),
              "syncts-decomp 1");
}

TEST(DecompIo, VersionOneParsesAsEpochZero) {
    const EdgeDecomposition original =
        default_decomposition(topology::complete(4));
    const TaggedDecomposition parsed =
        parse_tagged_decomposition(serialize_decomposition(original));
    EXPECT_EQ(parsed.epoch, 0u);
    expect_same_assignment(original, parsed.decomposition);
}

TEST(DecompIo, Version2FormatIsStableAndReadable) {
    const EdgeDecomposition d =
        trivial_complete_decomposition(topology::complete(4));
    EXPECT_EQ(serialize_decomposition(d, 3),
              "syncts-decomp 2\n"
              "epoch 3\n"
              "processes 4\n"
              "edges 6\n"
              "e 0 1\ne 0 2\ne 0 3\ne 1 2\ne 1 3\ne 2 3\n"
              "groups 2\n"
              "s 0 3 0 1 0 2 0 3\n"
              "t 1 2 3\n");
}

TEST(DecompIo, ErrorsCarryTypedKinds) {
    const auto kind_of = [](const std::string& text) {
        try {
            (void)parse_tagged_decomposition(text);
        } catch (const DecompIoError& error) {
            return error.kind();
        }
        ADD_FAILURE() << "no DecompIoError for: " << text;
        return DecompIoError::Kind::bad_magic;
    };
    EXPECT_EQ(kind_of(""), DecompIoError::Kind::truncated);
    EXPECT_EQ(kind_of("wrong-magic 1"), DecompIoError::Kind::bad_magic);
    EXPECT_EQ(kind_of("syncts-decomp 9\n"), DecompIoError::Kind::bad_version);
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses two\n"),
              DecompIoError::Kind::bad_number);
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses -1\nedges 0\n"),
              DecompIoError::Kind::bad_number);
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses " +
                      std::to_string(kMaxDeclaredProcesses + 1) +
                      "\nedges 0\ngroups 0\n"),
              DecompIoError::Kind::out_of_range);
    // A star claiming more edges than the graph has is refused before
    // any storage is reserved for them.
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses 2\nedges 1\ne 0 1\n"
                      "groups 1\ns 0 18446744073709551615\n"),
              DecompIoError::Kind::out_of_range);
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses 2\nedges 1\ne 0 5\n"),
              DecompIoError::Kind::out_of_range);
    EXPECT_EQ(kind_of("syncts-decomp 2\nepoch 0\nprocesses 1\nedges 0\n"
                      "groups 0\n"),
              DecompIoError::Kind::out_of_range);
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses 2\nedges 1\ne 0 1\n"
                      "groups 1\nq 0\n"),
              DecompIoError::Kind::bad_record);
    // The historical gap: a groupless file over a non-empty graph used to
    // surface as the generic completeness check; it is now its own kind,
    // caught at the `groups 0` declaration.
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses 2\nedges 1\ne 0 1\n"
                      "groups 0\n"),
              DecompIoError::Kind::empty_groups);
    EXPECT_EQ(kind_of("syncts-decomp 1\nprocesses 3\nedges 2\n"
                      "e 0 1\ne 1 2\ngroups 1\ns 0 1 0 1\n"),
              DecompIoError::Kind::incomplete);
}

TEST(DecompIo, RejectsMalformedInput) {
    EXPECT_THROW(parse_decomposition(""), std::invalid_argument);
    EXPECT_THROW(parse_decomposition("wrong-magic 1"),
                 std::invalid_argument);
    EXPECT_THROW(parse_decomposition("syncts-decomp 9\n"),
                 std::invalid_argument);
    // Incomplete: one edge, zero groups.
    EXPECT_THROW(parse_decomposition("syncts-decomp 1\nprocesses 2\n"
                                     "edges 1\ne 0 1\ngroups 0\n"),
                 std::invalid_argument);
    // Star edge not incident to root.
    EXPECT_THROW(parse_decomposition("syncts-decomp 1\nprocesses 3\n"
                                     "edges 2\ne 0 1\ne 1 2\ngroups 2\n"
                                     "s 0 1 1 2\ns 1 1 0 1\n"),
                 std::invalid_argument);
    // Triangle over missing edges.
    EXPECT_THROW(parse_decomposition("syncts-decomp 1\nprocesses 3\n"
                                     "edges 2\ne 0 1\ne 1 2\ngroups 1\n"
                                     "t 0 1 2\n"),
                 std::invalid_argument);
    // Vertex out of range.
    EXPECT_THROW(parse_decomposition("syncts-decomp 1\nprocesses 2\n"
                                     "edges 1\ne 0 5\n"),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syncts
