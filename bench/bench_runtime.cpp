// Experiment TAB-RT — the threaded rendezvous runtime (the CSP /
// synchronous-RPC system the paper targets).
//
// Client-server workload over real threads with Fig. 5 piggybacking:
// messages per second, per-message piggyback bytes for the paper's clock
// (d components) vs what an FM piggyback would cost (N components), while
// the client count grows and d stays fixed at the server count.

#include <chrono>
#include <cstdio>
#include <vector>

#include "clocks/wire.hpp"
#include "core/causality.hpp"
#include "core/sync_system.hpp"
#include "graph/generators.hpp"
#include "runtime/network.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

namespace {

struct Result {
    double msgs_per_sec;
    std::size_t messages;
    std::size_t width;
    double mean_piggyback_bytes;  // actual varint wire size of the stamps
    bool exact;
};

Result run_client_server(std::size_t servers, std::size_t clients,
                         int rounds, bool verify) {
    const SyncSystem system(topology::client_server(servers, clients));
    TimestampedNetwork network = system.make_network();
    std::vector<ProcessProgram> programs(servers + clients);
    const int per_server =
        static_cast<int>(clients) * rounds / static_cast<int>(servers);
    for (std::size_t s = 0; s < servers; ++s) {
        programs[s] = [per_server](ProcessContext& context) {
            for (int i = 0; i < per_server; ++i) {
                const ReceivedMessage request = context.receive();
                context.send(request.sender, "ok");
            }
        };
    }
    for (std::size_t c = 0; c < clients; ++c) {
        const auto client = static_cast<ProcessId>(servers + c);
        programs[client] = [rounds, servers](ProcessContext& context) {
            for (int i = 0; i < rounds; ++i) {
                const auto server = static_cast<ProcessId>(
                    static_cast<std::size_t>(i) % servers);
                context.send(server, "req");
                context.receive_from(server);
            }
        };
    }
    const auto start = std::chrono::steady_clock::now();
    const RunRecord record = network.run(programs);
    const auto elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    bool exact = true;
    if (verify) {
        exact = encoding_mismatches(message_poset(record.computation),
                                    record.message_stamps) == 0;
    }
    std::size_t wire_bytes = 0;
    for (const VectorTimestamp& stamp : record.message_stamps) {
        wire_bytes += encoded_size(stamp);
    }
    return {static_cast<double>(record.messages.size()) / elapsed,
            record.messages.size(), system.width(),
            static_cast<double>(wire_bytes) /
                static_cast<double>(record.messages.size()),
            exact};
}

}  // namespace

int main() {
    std::printf("== TAB-RT: threaded rendezvous runtime ==\n\n");
    std::printf("%8s %8s %9s %8s %12s %12s %12s %8s\n", "servers", "clients",
                "messages", "d", "msgs/sec", "wire B/msg", "FM words",
                "encoding");
    struct Config {
        std::size_t servers;
        std::size_t clients;
        int rounds;
        bool verify;
    };
    for (const Config config :
         {Config{2, 4, 60, true}, Config{2, 16, 60, true},
          Config{4, 16, 60, true}, Config{4, 64, 40, false},
          Config{4, 256, 16, false}, Config{8, 256, 16, false}}) {
        // rounds must be divisible by servers for the uniform server loop.
        const int rounds =
            config.rounds - config.rounds % static_cast<int>(config.servers);
        const Result result = run_client_server(config.servers,
                                                config.clients, rounds,
                                                config.verify);
        const std::size_t n = config.servers + config.clients;
        std::printf("%8zu %8zu %9zu %8zu %12.0f %12.1f %12zu %8s\n",
                    config.servers, config.clients, result.messages,
                    result.width, result.msgs_per_sec,
                    result.mean_piggyback_bytes, n,
                    result.exact ? "exact" : "FAIL");
    }
    std::printf(
        "\nshape check: d == server count at every scale, so the paper's "
        "piggyback stays constant while the FM piggyback grows with N; "
        "throughput is bounded by rendezvous synchronization, not by "
        "timestamp width.\n");
    return 0;
}
