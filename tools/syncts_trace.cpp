// syncts_trace — analyze a recorded computation (the trace_io format):
// timestamps every message with the online algorithm, reports poset
// statistics and the offline width, and answers precedence queries.
//
// Usage:
//   syncts_trace <trace-file> [--stamps] [--diagram] [--query <m1> <m2>]...
//   syncts_trace --generate <topology-spec> <messages> <seed>
//
// With no trace file argument, reads the trace from stdin. --generate
// emits a random workload in the trace format (pipe it back in):
//   syncts_trace --generate cs:2:6 100 7 | syncts_trace --diagram

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "clocks/offline_timestamper.hpp"
#include "core/causality.hpp"
#include "core/sync_system.hpp"
#include "core/timestamped_trace.hpp"
#include "poset/dilworth.hpp"
#include "trace/diagram.hpp"
#include "trace/ground_truth.hpp"
#include "trace/generator.hpp"
#include "trace/trace_io.hpp"

#include "topo_spec.hpp"

using namespace syncts;

namespace {

/// Reads the trace at `path` (stdin when empty), then prints its analysis
/// and answers `queries`. Throws on a malformed trace.
void report(const std::string& path, bool want_stamps, bool want_diagram,
            const std::vector<std::pair<MessageId, MessageId>>& queries) {
    SyncComputation computation = [&] {
        if (path.empty()) return read_computation(std::cin);
        std::ifstream file(path);
        if (!file) throw std::runtime_error("cannot open '" + path + "'");
        return read_computation(file);
    }();

    const SyncSystem system(computation.topology());
    const TimestampedTrace trace = system.analyze(computation);
    const Poset truth = message_poset(computation);

    std::printf("processes: %zu, channels: %zu, messages: %zu, internal "
                "events: %zu\n",
                computation.num_processes(),
                computation.topology().num_edges(),
                computation.num_messages(),
                computation.num_internal_events());
    std::printf("online width d = %zu (FM would use %zu)\n", system.width(),
                computation.num_processes());
    std::printf("concurrent pairs: %zu of %zu\n",
                trace.concurrent_pair_count(),
                computation.num_messages() *
                    (computation.num_messages() - 1) / 2);
    const OfflineResult offline =
        offline_timestamps(truth, computation.num_processes());
    std::printf("offline width: %zu (Theorem 8 bound %zu)\n", offline.width,
                offline.theorem8_bound);
    std::printf("encoding check: %zu mismatches\n",
                trace.verify_against_ground_truth());

    if (want_stamps) std::printf("\n%s", trace.to_string().c_str());
    if (want_diagram) {
        std::printf("\n%s",
                    to_diagram(computation, {}).c_str());
    }

    for (const auto& [a, b] : queries) {
        if (a >= computation.num_messages() ||
            b >= computation.num_messages()) {
            std::printf("query m%u vs m%u: out of range\n", a + 1, b + 1);
            continue;
        }
        std::printf("query m%u vs m%u: %s\n", a + 1, b + 1,
                    to_string(compare(trace.timestamp(a),
                                      trace.timestamp(b))));
    }
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && std::string(argv[1]) == "--generate") {
        if (argc != 5) {
            std::fprintf(stderr,
                         "usage: syncts_trace --generate <spec> <messages> "
                         "<seed>\nspecs: %s\n",
                         tools::spec_help());
            return 2;
        }
        const Graph g = tools::build_topology(argv[2]);
        WorkloadOptions options;
        options.num_messages = tools::parse_count("<messages>", argv[3]);
        Rng rng(tools::parse_count("<seed>", argv[4]));
        const SyncComputation generated =
            random_computation(g, options, rng);
        std::printf("%s", serialize_computation(generated).c_str());
        return 0;
    }
    std::vector<std::pair<MessageId, MessageId>> queries;
    const auto message = [](const char* text) {
        const std::uint64_t m = tools::parse_count("--query", text);
        if (m > std::numeric_limits<MessageId>::max()) {
            tools::reject_value("--query", text, "no such message");
        }
        return static_cast<MessageId>(m);
    };
    bool want_stamps = false;
    bool want_diagram = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--stamps") {
            want_stamps = true;
        } else if (arg == "--diagram") {
            want_diagram = true;
        } else if (arg == "--query" && i + 2 < argc) {
            queries.emplace_back(message(argv[i + 1]), message(argv[i + 2]));
            i += 2;
        } else if (path.empty()) {
            path = arg;
        } else {
            std::fprintf(stderr,
                         "usage: syncts_trace [<trace-file>] [--stamps] "
                         "[--diagram] [--query m1 m2]...\n");
            return 2;
        }
    }

    try {
        report(path, want_stamps, want_diagram, queries);
    } catch (const std::exception& error) {
        // A malformed trace or one the analysis rejects is a usage error,
        // never an abort.
        std::fprintf(stderr, "syncts_trace: %s\n", error.what());
        return 2;
    }
    return 0;
}
