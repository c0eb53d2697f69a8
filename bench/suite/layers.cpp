#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/timestamp_arena.hpp"
#include "core/streaming_index.hpp"
#include "decomp/cover_decomposer.hpp"
#include "poset/streaming_closure.hpp"
#include "recover/snapshot.hpp"
#include "recover/wal.hpp"
#include "runtime/async_sim.hpp"
#include "runtime/bandwidth.hpp"
#include "topo/reconfig.hpp"
#include "topo/topology_manager.hpp"

namespace syncts::bench {

namespace {

/// Queries per timed pass of the analysis layers.
constexpr std::size_t kQueries = 1 << 16;

/// Reconfiguration ops topo.apply_ms times.
constexpr std::size_t kReconfigOps = 3;

/// The frames the data puts on the wire, re-derived by replaying it through
/// Fig. 5: the REQ carries the sender's vector, the ACK the receiver's
/// pre-merge vector, and with delta on a frame is encoded against the
/// previous frame of its direction on the channel when the sequences are
/// consecutive (as the runtime does on a reliable link).
struct WireFrame {
    EpochId epoch = 0;
    std::uint64_t sequence = 0;
    std::uint64_t message = 0;
    std::size_t width = 0;
    std::size_t stamp = 0;                  ///< word offset in FrameSet::words
    std::size_t base = SIZE_MAX;            ///< delta base offset, or SIZE_MAX
    std::size_t wire_at = 0, wire_len = 0;  ///< bytes as sent
    std::size_t full_at = 0, full_len = 0;  ///< canonical full encoding
    ProcessId source = 0, destination = 0;
    bool ack = false;
};

struct FrameSet {
    std::vector<WireFrame> frames;
    std::vector<std::uint64_t> words;
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint64_t> stamp_hashes;

    std::span<const std::uint64_t> stamp(const WireFrame& f) const {
        return {words.data() + f.stamp, f.width};
    }
    std::span<const std::uint64_t> base(const WireFrame& f) const {
        return {words.data() + f.base, f.width};
    }
    std::span<const std::uint8_t> wire(const WireFrame& f) const {
        return {bytes.data() + f.wire_at, f.wire_len};
    }
    std::span<const std::uint8_t> full(const WireFrame& f) const {
        return {bytes.data() + f.full_at, f.full_len};
    }
};

FrameSet derive_frames(const LayerInputs& in) {
    FrameSet set;
    struct Shadow {
        EpochId epoch = 0;
        std::uint64_t sequence = 0;
        std::size_t offset = SIZE_MAX;
    };
    std::unordered_map<std::uint64_t, std::uint64_t> next_sequence;
    std::unordered_map<std::uint64_t, Shadow> req_shadow, ack_shadow;
    std::vector<std::uint8_t> scratch;
    for (const DataSegment& segment : in.segments) {
        OnlineTimestamper engine(segment.decomposition);
        const std::size_t width = segment.decomposition->size();
        const auto messages = segment.computation->messages();
        for (std::size_t i = 0; i < messages.size(); ++i) {
            const SyncMessage& m = messages[i];
            const std::uint64_t channel =
                static_cast<std::uint64_t>(m.sender) << 32 | m.receiver;
            const std::uint64_t sequence = ++next_sequence[channel];
            const std::uint64_t mid =
                segment.script_message.empty() ? i : segment.script_message[i];
            const auto add_frame = [&](ProcessId holder, bool ack, Shadow& shadow) {
                WireFrame f;
                f.epoch = segment.epoch;
                f.sequence = sequence;
                f.message = mid;
                f.width = width;
                f.stamp = set.words.size();
                f.source = ack ? m.receiver : m.sender;
                f.destination = ack ? m.sender : m.receiver;
                f.ack = ack;
                const auto vector = engine.clock(holder).current_span();
                set.words.insert(set.words.end(), vector.begin(), vector.end());
                encode_epoch_frame_into(f.epoch, sequence, mid, set.stamp(f), scratch);
                f.full_at = set.bytes.size();
                f.full_len = scratch.size();
                set.bytes.insert(set.bytes.end(), scratch.begin(), scratch.end());
                f.wire_at = f.full_at;
                f.wire_len = f.full_len;
                if (in.delta && shadow.offset != SIZE_MAX &&
                    shadow.epoch == f.epoch && shadow.sequence + 1 == sequence &&
                    encode_delta_frame_into(
                        f.epoch, sequence, mid,
                        std::span<const std::uint64_t>(set.words.data() + shadow.offset, width),
                        set.stamp(f), scratch)) {
                    f.base = shadow.offset;
                    f.wire_at = set.bytes.size();
                    f.wire_len = scratch.size();
                    set.bytes.insert(set.bytes.end(), scratch.begin(), scratch.end());
                }
                shadow = Shadow{f.epoch, sequence, f.stamp};
                set.frames.push_back(f);
            };
            add_frame(m.sender, false, req_shadow[channel]);
            add_frame(m.receiver, true, ack_shadow[channel]);
            const VectorTimestamp stamp = engine.timestamp_message(m.sender, m.receiver);
            set.stamp_hashes.push_back(stamp_hash(stamp.components()));
        }
    }
    return set;
}

double time_stamping(const LayerInputs& in) {
    std::size_t calls = 0;
    std::uint64_t check = 0;
    const std::uint64_t start = now_ns();
    for (const DataSegment& segment : in.segments) {
        OnlineTimestamper engine(segment.decomposition);
        TimestampArena arena(segment.decomposition->size(),
                             segment.computation->num_messages());
        for (const SyncMessage& m : segment.computation->messages()) {
            const TsHandle h = engine.timestamp_message(m.sender, m.receiver, arena);
            check += arena.span(h)[0];
            ++calls;
        }
    }
    const double ns = ns_per(start, calls);
    keep(check);
    return ns;
}

double time_encode(const FrameSet& set) {
    std::vector<std::uint8_t> out;
    std::uint64_t check = 0;
    const std::uint64_t start = now_ns();
    for (const WireFrame& f : set.frames) {
        if (f.base != SIZE_MAX) {
            encode_delta_frame_into(f.epoch, f.sequence, f.message, set.base(f),
                                    set.stamp(f), out);
        } else {
            encode_epoch_frame_into(f.epoch, f.sequence, f.message, set.stamp(f), out);
        }
        check += out.size();
    }
    const double ns = ns_per(start, set.frames.size());
    keep(check);
    return ns;
}

double time_decode(const FrameSet& set) {
    std::vector<std::uint64_t> scratch(1024);
    std::uint64_t check = 0;
    const std::uint64_t start = now_ns();
    for (const WireFrame& f : set.frames) {
        const std::span<std::uint64_t> out(scratch.data(), f.width);
        const std::span<const std::uint8_t> bytes = set.wire(f);
        const FrameInfo info = peek_frame_info(bytes);
        if (info.delta) {
            check += decode_delta_frame_into(bytes, set.base(f), out).sequence;
        } else {
            check += decode_epoch_frame_into(bytes, out).sequence;
        }
    }
    const double ns = ns_per(start, set.frames.size());
    keep(check);
    return ns;
}

/// Per container: BatchFrame::add of each entry, encode_batch_into, and a
/// BatchReader walk.
double time_batch(const FrameSet& set, std::size_t entries) {
    BatchFrame batch;
    std::vector<std::uint8_t> out;
    std::uint64_t check = 0;
    std::size_t containers = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i + entries <= set.frames.size(); i += entries) {
        batch.clear();
        for (std::size_t k = i; k < i + entries; ++k) {
            const WireFrame& f = set.frames[k];
            batch.add(f.ack ? 2 : 1, f.source, set.wire(f));
        }
        batch.encode_batch_into(out);
        BatchReader reader(out);
        BatchFrame::Entry entry;
        while (reader.next(entry)) check += entry.body.size();
        ++containers;
    }
    const double ns = ns_per(start, containers);
    keep(check);
    return ns;
}

/// AsyncSimulator send + deliver per packet, one packet per frame at the
/// data's process count and mean frame size: each delivery answers with a
/// new packet, so about one packet per channel pair stays in flight, as in
/// the closed loop.
double time_sim(const Graph& graph, std::size_t processes, std::uint64_t packets,
                std::size_t body_bytes, std::uint64_t seed) {
    AsyncSimulator sim(processes, seed);
    sim.set_uniform_latency(1, 4);
    std::uint64_t sent = 0;
    for (ProcessId p = 0; p < processes; ++p) {
        sim.on_deliver(p, [&](std::uint64_t now, const Packet& packet) {
            if (sent >= packets) return;
            ++sent;
            sim.send(now, Packet{packet.destination, packet.source, packet.kind,
                                 packet.tag,
                                 std::vector<std::uint8_t>(body_bytes, 0x5A)});
        });
    }
    const std::uint64_t start = now_ns();
    const auto& edges = graph.edges();
    for (std::size_t i = 0; i < edges.size() && sent < packets; i += 2) {
        ++sent;
        sim.send(0, Packet{edges[i].u, edges[i].v, 1, i,
                           std::vector<std::uint8_t>(body_bytes, 0x5A)});
    }
    sim.run(4 * packets + 1024);
    return ns_per(start, static_cast<std::size_t>(sim.packets_delivered()));
}

/// BandwidthScheduler::admit per call, one call per frame on the data's
/// channels, about one call per process per tick.
double time_admit(const BandwidthOptions& options, const FrameSet& set,
                  std::size_t processes) {
    BandwidthScheduler scheduler(options, processes);
    std::unordered_map<std::uint64_t, std::uint64_t> deficit;
    std::uint64_t admitted = 0;
    std::uint64_t i = 0;
    const std::uint64_t start = now_ns();
    for (const WireFrame& f : set.frames) {
        std::uint64_t& credit =
            deficit[static_cast<std::uint64_t>(f.source) << 32 | f.destination];
        if (scheduler.admit(f.source, f.destination, f.wire_len, i++ / processes,
                            credit)) {
            ++admitted;
        } else {
            credit += options.quantum;
        }
    }
    const double ns = ns_per(start, set.frames.size());
    keep(admitted);
    return ns;
}

/// Wal::append (and its group flushes) over the data's frames: a send
/// record per REQ, a commit record (REQ + ACK) and an ack record per
/// rendezvous, as the runtime logs them.
double time_wal(const FrameSet& set, std::uint64_t flush_interval) {
    std::vector<WalRecord> records;
    for (std::size_t i = 0; i + 1 < set.frames.size(); i += 2) {
        const WireFrame& req = set.frames[i];
        const WireFrame& ack = set.frames[i + 1];
        const auto make = [&](WalRecordType type, ProcessId peer) {
            WalRecord r;
            r.type = type;
            r.peer = peer;
            r.sequence = req.sequence;
            r.message = req.message;
            r.epoch = req.epoch;
            return r;
        };
        WalRecord send = make(WalRecordType::send, req.destination);
        send.frame.assign(set.full(req).begin(), set.full(req).end());
        WalRecord commit = make(WalRecordType::commit, req.source);
        commit.frame = send.frame;
        commit.aux.assign(set.full(ack).begin(), set.full(ack).end());
        WalRecord acked = make(WalRecordType::ack, req.destination);
        acked.aux = commit.aux;
        records.push_back(std::move(send));
        records.push_back(std::move(commit));
        records.push_back(std::move(acked));
    }
    Wal wal(flush_interval);
    const std::uint64_t start = now_ns();
    for (WalRecord& record : records) wal.append(std::move(record));
    wal.flush();
    const double ns = ns_per(start, records.size());
    keep(wal.durable_records());
    return ns;
}

/// encode_snapshot_into for the busiest process of the first epoch: its
/// clock, one channel pair per neighbor with full frame windows, one REQ
/// in flight.
double time_snapshot(const Graph& graph, const FrameSet& set,
                     const RecoveryOptions& recovery) {
    ProcessId busiest = 0;
    for (ProcessId p = 0; p < graph.num_vertices(); ++p) {
        if (graph.degree(p) > graph.degree(busiest)) busiest = p;
    }
    const WireFrame* last = nullptr;
    for (const WireFrame& f : set.frames) {
        if (f.epoch == set.frames.front().epoch && f.source == busiest) last = &f;
    }
    if (last == nullptr) return 0.0;
    Snapshot snapshot;
    ProcessState& state = snapshot.state;
    state.self = busiest;
    state.cursor = 100;
    state.steps = 100;
    state.clock.assign(set.stamp(*last).begin(), set.stamp(*last).end());
    const std::span<const std::uint8_t> frame = set.full(*last);
    for (const ProcessId peer : graph.neighbors(busiest)) {
        OutChannelState out{peer, recovery.window, FrameWindow(recovery.window)};
        InChannelState in{peer, recovery.window, FrameWindow(recovery.window)};
        for (std::uint64_t s = 1; s <= recovery.window; ++s) {
            out.req_window.put(s, frame);
            in.ack_window.put(s, frame);
        }
        state.out.push_back(std::move(out));
        state.in.push_back(std::move(in));
    }
    state.outstanding.active = true;
    state.outstanding.receiver = state.out.front().peer;
    state.outstanding.sequence = recovery.window + 1;
    state.outstanding.frame.assign(frame.begin(), frame.end());
    snapshot.wal_lsn = 1000;
    constexpr int kCalls = 256;
    std::vector<std::uint8_t> out;
    std::uint64_t check = 0;
    const std::uint64_t start = now_ns();
    for (int i = 0; i < kCalls; ++i) {
        encode_snapshot_into(snapshot, out);
        check += out.size();
    }
    const double ns = ns_per(start, kCalls);
    keep(check);
    return ns;
}

/// IncrementalPrecedenceIndex::ingest_message per message, phase (a)'s
/// configuration: 65,536-stamp window (no larger than the data, which
/// never wraps it), no closure.
double time_ingest(const DataSegment& data) {
    StreamingIndexOptions options;
    options.window = std::min(kIndexWindow, data.computation->num_messages());
    const std::uint64_t start = now_ns();
    IncrementalPrecedenceIndex index(data.decomposition, options);
    for (const SyncMessage& m : data.computation->messages()) {
        index.ingest_message(m.sender, m.receiver);
    }
    const double ns = ns_per(start, data.computation->num_messages());
    keep(index.size());
    return ns;
}

double time_closure_ingest(const DataSegment& data, std::size_t processes) {
    StreamingClosureOptions options;
    options.chunk_rows = kChunkRows;
    const std::size_t messages = data.computation->num_messages();
    const std::uint64_t start = now_ns();
    StreamingClosure closure(processes, messages, options);
    for (const SyncMessage& m : data.computation->messages()) {
        closure.ingest(m.sender, m.receiver);
    }
    closure.finish();
    const double ns = ns_per(start, messages);
    keep(closure.relation_count());
    return ns;
}

/// Phase (b)'s configuration built over the data: a 2,048-stamp window in
/// front of an in-memory closure.
struct QueryIndex {
    StreamingClosure closure;
    IncrementalPrecedenceIndex index;  ///< holds &closure

    QueryIndex(const QueryIndex&) = delete;
    QueryIndex& operator=(const QueryIndex&) = delete;
    QueryIndex(const DataSegment& data, std::size_t processes)
        : closure(processes, data.computation->num_messages(),
                  StreamingClosureOptions{.chunk_rows = kChunkRows}),
          index(data.decomposition,
                StreamingIndexOptions{.window = kClosureWindow, .closure = &closure}) {
        for (const SyncMessage& m : data.computation->messages()) {
            index.ingest_message(m.sender, m.receiver);
        }
        closure.finish();
    }
};

/// ns per call of `ask(a, b)` over kQueries pairs drawn in [lo, size).
template <typename Ask>
double time_queries(Rng& rng, std::uint64_t lo, std::uint64_t size, Ask&& ask) {
    std::uint64_t yes = 0;
    const std::uint64_t start = now_ns();
    for (std::size_t q = 0; q < kQueries; ++q) {
        const auto a = static_cast<MessageId>(lo + rng.below(size - lo));
        const auto b = static_cast<MessageId>(lo + rng.below(size - lo));
        yes += ask(a, b) ? 1 : 0;
    }
    const double ns = ns_per(start, kQueries);
    keep(yes);
    return ns;
}

double time_decomposition(const Graph& graph) {
    const std::uint64_t start = now_ns();
    const EdgeDecomposition decomposition = default_decomposition(graph);
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    keep(decomposition.size());
    return ms;
}

/// Applying kReconfigOps seeded random reconfiguration ops to the data's
/// first-epoch topology.
double time_reconfig(const Graph& graph, std::uint64_t seed) {
    TopologyManager manager{Graph(graph)};
    const std::vector<ReconfigOp> ops =
        random_reconfig_schedule(graph, kReconfigOps, seed);
    const std::uint64_t start = now_ns();
    for (const ReconfigOp& op : ops) apply(manager, op);
    const double ms = static_cast<double>(now_ns() - start) / 1e6;
    keep(manager.num_epochs());
    return ms;
}

}  // namespace

std::vector<std::uint64_t> oracle_hashes(
    const std::shared_ptr<const EdgeDecomposition>& decomposition,
    const SyncComputation& script) {
    OnlineTimestamper direct(decomposition);
    TimestampArena slot(decomposition->size(), 1);
    std::vector<std::uint64_t> hashes;
    hashes.reserve(script.num_messages());
    for (const SyncMessage& m : script.messages()) {
        slot.clear();
        hashes.push_back(
            stamp_hash(slot.span(direct.timestamp_message(m.sender, m.receiver, slot))));
    }
    return hashes;
}

LayerTimes time_layers(const LayerInputs& in, double budget_s, int min_reps) {
    const FrameSet frames = derive_frames(in);
    const DataSegment& first = in.segments.front();
    const Graph& graph = first.decomposition->graph();
    const std::size_t messages = first.computation->num_messages();
    std::size_t frame_bytes = 0;
    for (const WireFrame& f : frames.frames) frame_bytes += f.wire_len;
    frame_bytes /= std::max<std::size_t>(frames.frames.size(), 1);

    constexpr int kTimers = 15;
    const double slice = budget_s / kTimers;
    const auto median_of = [&](auto&& fn) { return median_over(slice, min_reps, fn); };
    LayerTimes t;
    t.stamp_hashes = frames.stamp_hashes;
    t.stamp_ns = median_of([&] { return time_stamping(in); });
    t.encode_ns = median_of([&] { return time_encode(frames); });
    t.decode_ns = median_of([&] { return time_decode(frames); });
    t.batch_ns = median_of([&] { return time_batch(frames, in.batch_entries); });
    t.sim_ns = median_of([&] {
        return time_sim(graph, in.processes, frames.frames.size(), frame_bytes, in.seed);
    });
    t.admit_ns = median_of([&] { return time_admit(in.bandwidth, frames, in.processes); });
    t.wal_ns = median_of([&] { return time_wal(frames, in.recovery.wal_flush_interval); });
    t.snapshot_ns = median_of([&] { return time_snapshot(graph, frames, in.recovery); });
    t.ingest_ns = median_of([&] { return time_ingest(first); });
    t.closure_ingest_ns =
        median_of([&] { return time_closure_ingest(first, in.processes); });
    const QueryIndex q(first, in.processes);
    Rng rng(in.seed ^ 0xFA57);
    t.query_ns = median_of([&] {
        return time_queries(rng, 0, messages,
                            [&](MessageId a, MessageId b) { return q.index.precedes(a, b); });
    });
    t.fastpath_query_ns = median_of([&] {
        return time_queries(rng, q.index.resident_frontier(), messages,
                            [&](MessageId a, MessageId b) { return q.index.precedes(a, b); });
    });
    t.fallback_query_ns = median_of([&] {
        return time_queries(rng, 0, messages,
                            [&](MessageId a, MessageId b) { return q.closure.less(a, b); });
    });
    t.decomp_ms = median_of([&] { return time_decomposition(graph); });
    t.topo_apply_ms = median_of([&] { return time_reconfig(graph, in.seed); });
    return t;
}

LayerValues layer_values(const LayerTimes& t, double scale) {
    return {
        {"clocks.stamp_ns", t.stamp_ns * scale},
        {"wire.encode_ns", t.encode_ns * scale},
        {"wire.decode_ns", t.decode_ns * scale},
        {"wire.batch_ns", t.batch_ns * scale},
        {"runtime.sim_ns_per_packet", t.sim_ns * scale},
        {"runtime.bsched_admit_ns", t.admit_ns * scale},
        {"recover.wal_append_ns", t.wal_ns * scale},
        {"recover.snapshot_ns", t.snapshot_ns * scale},
        {"core.ingest_ns", t.ingest_ns * scale},
        {"core.query_ns", t.query_ns * scale},
        {"core.fastpath_query_ns", t.fastpath_query_ns * scale},
        {"poset.closure_ingest_ns", t.closure_ingest_ns * scale},
        {"poset.fallback_query_ns", t.fallback_query_ns * scale},
        {"topo.apply_ms", t.topo_apply_ms * scale},
        {"decomp.ms", t.decomp_ms * scale},
    };
}

Breakdown breakdown(double total_ns, std::span<const Part> parts) {
    Breakdown out;
    double attributed = 0.0;
    Json json;
    for (const Part& part : parts) {
        attributed += part.self_ns * part.calls_per_op;
        Json row;
        row.num("self_ns", part.self_ns)
            .num("calls_per_op", part.calls_per_op)
            .num("ns_per_op", part.self_ns * part.calls_per_op);
        json.raw(part.layer, row.text());
    }
    out.residual_ns = total_ns - attributed;
    out.sums = std::abs(attributed + out.residual_ns - total_ns) <= 1e-9 * total_ns;
    json.num("residual_ns", out.residual_ns).num("total_ns", total_ns);
    out.json = json.text();
    return out;
}

}  // namespace syncts::bench
