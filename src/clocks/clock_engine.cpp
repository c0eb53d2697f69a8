#include "clocks/clock_engine.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <utility>

#include "clocks/offline_timestamper.hpp"
#include "clocks/online_clock.hpp"
#include "clocks/wire.hpp"
#include "common/check.hpp"
#include "common/ts_kernels.hpp"

namespace syncts {

const char* to_string(ClockFamily family) noexcept {
    switch (family) {
        case ClockFamily::online: return "online";
        case ClockFamily::fm_sync: return "fm_sync";
        case ClockFamily::fm_event: return "fm_event";
        case ClockFamily::lamport: return "lamport";
        case ClockFamily::direct_dependency: return "direct_dependency";
        case ClockFamily::offline: return "offline";
    }
    return "unknown";
}

std::vector<VectorTimestamp> EngineStamps::materialize_messages() const {
    std::vector<VectorTimestamp> result;
    result.reserve(message_stamps.size());
    for (const TsHandle h : message_stamps) {
        result.emplace_back(arena.span(h));
    }
    return result;
}

void ClockEngine::on_internal(ProcessId, std::span<std::uint64_t>) {}

void ClockEngine::on_epoch(const EpochTransition&) {
    SYNCTS_REQUIRE(false, std::string("clock family ") + to_string(family()) +
                              " does not implement epoch transitions");
}

void ClockEngine::advance_epoch(const EpochTransition& transition) {
    SYNCTS_REQUIRE(transition.from_epoch == epoch_,
                   "epoch transition does not continue this engine's epoch");
    epoch_ = transition.to_epoch;
}

void ClockEngine::fold_epoch_floor(const EpochTransition& transition,
                                   std::span<const std::uint64_t> high_water,
                                   bool by_process) {
    const std::size_t old_len = by_process ? transition.old_num_processes
                                           : transition.old_width();
    SYNCTS_REQUIRE(high_water.size() == old_len,
                   "epoch high-water mark has the wrong width");
    std::vector<std::uint64_t> absolute(high_water.begin(), high_water.end());
    if (!floor_.empty()) {
        SYNCTS_ENSURE(floor_.size() == old_len,
                      "accumulated floor width diverged from the engine");
        for (std::size_t i = 0; i < absolute.size(); ++i) {
            absolute[i] += floor_[i];
        }
    }
    advance_epoch(transition);
    const std::size_t new_len = by_process ? transition.new_num_processes
                                           : transition.new_width();
    floor_.assign(new_len, 0);
    if (by_process) {
        transition.migrate_processes(absolute, floor_);
    } else {
        transition.migrate_components(absolute, floor_);
    }
}

namespace {

/// Magic prefix of a serialized clock state (docs/RECOVERY.md).
constexpr std::uint8_t kStateMagic[4] = {'S', 'Y', 'C', 'K'};

/// Current clock-state capture format.
constexpr std::uint64_t kStateVersion = 1;

}  // namespace

void ClockEngine::save_state(std::vector<std::uint8_t>& out) const {
    std::vector<std::uint64_t> payload;
    save_payload(payload);
    codec::Writer writer(out, 32 + 2 * (floor_.size() + payload.size()));
    writer.bytes(kStateMagic);
    writer.varint(kStateVersion);
    writer.varint(static_cast<std::uint64_t>(family()));
    writer.varint(epoch_);
    writer.varint(floor_.size());
    writer.varints(floor_);
    writer.varint(payload.size());
    writer.varints(payload);
    writer.seal();
}

std::vector<std::uint8_t> ClockEngine::save_state() const {
    std::vector<std::uint8_t> out;
    save_state(out);
    return out;
}

void ClockEngine::restore_state(std::span<const std::uint8_t> bytes) {
    WireReader in(bytes, throw_wire_error);
    in.need(sizeof(kStateMagic) + codec::kTrailerBytes,
            "clock state shorter than magic plus checksum");
    in.unseal();
    if (!std::ranges::equal(in.bytes(sizeof(kStateMagic)), kStateMagic)) {
        throw WireError(WireError::Kind::unsupported_version,
                        "clock state magic mismatch");
    }
    const std::uint64_t version = in.varint();
    if (version != kStateVersion) {
        throw WireError(WireError::Kind::unsupported_version,
                        "clock state from an unsupported format version");
    }
    const std::uint64_t tag = in.varint();
    SYNCTS_REQUIRE(tag == static_cast<std::uint64_t>(family()),
                   std::string("clock state family does not match this "
                               "engine (") +
                       to_string(family()) + ")");
    const std::uint64_t epoch = in.varint();
    SYNCTS_REQUIRE(epoch <= std::numeric_limits<EpochId>::max(),
                   "clock state epoch exceeds the epoch id range");
    const std::uint64_t floor_count = in.varint();
    SYNCTS_REQUIRE(floor_count <= in.size(),
                   "clock state floor length exceeds the frame");
    std::vector<std::uint64_t> restored_floor(floor_count);
    in.varints(restored_floor);
    const std::uint64_t payload_count = in.varint();
    SYNCTS_REQUIRE(payload_count <= in.size(),
                   "clock state payload length exceeds the frame");
    std::vector<std::uint64_t> payload(payload_count);
    in.varints(payload);
    in.end();
    // The payload restore validates the shape; only after it succeeds is
    // any engine state mutated.
    restore_payload(payload);
    floor_ = std::move(restored_floor);
    epoch_ = static_cast<EpochId>(epoch);
}

void ClockEngine::attach_metrics(obs::MetricsRegistry& registry) {
    const std::string prefix = std::string("clock_") + to_string(family());
    metric_stamps_ = &registry.counter(prefix + "_stamps");
    metric_internal_ = &registry.counter(prefix + "_internal_ticks");
    metric_width_ = &registry.gauge("clock_width");
    metric_width_->set(static_cast<std::int64_t>(width()));
}

TsHandle ClockEngine::timestamp_message(ProcessId sender, ProcessId receiver,
                                        TimestampArena& arena) {
    const std::size_t w = width();
    SYNCTS_REQUIRE(arena.width() == w,
                   "arena width does not match the engine width");
    if (scratch_piggy_.size() != w) {
        scratch_piggy_.resize(w);
        scratch_ack_.resize(w);
        scratch_echo_.resize(w);
    }
    prepare_send(sender, scratch_piggy_);
    const TsHandle h = arena.allocate();
    on_receive(sender, receiver, scratch_piggy_, scratch_ack_, arena.span(h));
    on_ack(sender, receiver, scratch_ack_, scratch_echo_);
    SYNCTS_ENSURE(ts::equal(arena.span(h), scratch_echo_),
                  "sender and receiver disagree on the message timestamp");
    if (metric_stamps_ != nullptr) metric_stamps_->inc();
    return h;
}

void ClockEngine::replay(const SyncComputation& computation,
                         TimestampArena& arena,
                         std::vector<TsHandle>& message_out,
                         std::vector<TsHandle>* internal_out) {
    const std::size_t n = computation.num_processes();
    SYNCTS_REQUIRE(n == num_processes(),
                   "computation size does not match the engine");
    const std::size_t w = width();
    SYNCTS_REQUIRE(arena.width() == w,
                   "arena width does not match the engine width");
    scratch_piggy_.resize(w);
    scratch_ack_.resize(w);
    scratch_echo_.resize(w);
    message_out.assign(computation.num_messages(), kNoTimestamp);
    const bool want_internal = internal_out != nullptr &&
                               stamps_internal_events();
    if (internal_out != nullptr) {
        internal_out->assign(
            want_internal ? computation.num_internal_events() : 0,
            kNoTimestamp);
    }

    // Replay in instant order: per-process cursors drain internal events
    // that precede each endpoint's rendezvous (same walk as the legacy
    // per-family replays, so stamps are bit-identical).
    std::vector<std::size_t> cursor(n, 0);
    const auto drain = [&](ProcessId p, MessageId until_message) {
        const auto events = computation.process_events(p);
        while (cursor[p] < events.size()) {
            const ProcessEvent& e = events[cursor[p]];
            if (e.kind == ProcessEvent::Kind::message) {
                SYNCTS_ENSURE(until_message != kNoMessage &&
                                  e.index == until_message,
                              "event replay out of order");
                ++cursor[p];
                return;
            }
            if (want_internal) {
                const TsHandle h = arena.allocate();
                on_internal(p, arena.span(h));
                (*internal_out)[e.index] = h;
            } else {
                on_internal(p, {});
            }
            if (metric_internal_ != nullptr) metric_internal_->inc();
            ++cursor[p];
        }
        SYNCTS_ENSURE(until_message == kNoMessage,
                      "message missing from process event sequence");
    };

    for (const SyncMessage& m : computation.messages()) {
        drain(m.sender, m.id);
        drain(m.receiver, m.id);
        prepare_send(m.sender, scratch_piggy_);
        const TsHandle h = arena.allocate();
        on_receive(m.sender, m.receiver, scratch_piggy_, scratch_ack_,
                   arena.span(h));
        on_ack(m.sender, m.receiver, scratch_ack_, scratch_echo_);
        SYNCTS_ENSURE(ts::equal(arena.span(h), scratch_echo_),
                      "sender and receiver disagree on the message timestamp");
        if (metric_stamps_ != nullptr) metric_stamps_->inc();
        message_out[m.id] = h;
    }
    for (ProcessId p = 0; p < n; ++p) drain(p, kNoMessage);
}

std::vector<TsHandle> ClockEngine::stamp_messages(
    const SyncComputation& computation, TimestampArena& arena) {
    std::vector<TsHandle> stamps;
    replay(computation, arena, stamps, nullptr);
    return stamps;
}

EngineStamps ClockEngine::stamp_computation(
    const SyncComputation& computation) {
    const std::size_t slots =
        computation.num_messages() +
        (stamps_internal_events() ? computation.num_internal_events() : 0);
    EngineStamps result{TimestampArena(width(), slots), {}, {}};
    replay(computation, result.arena, result.message_stamps,
           &result.internal_stamps);
    return result;
}

namespace {

/// Shared rendezvous math of the two Fidge–Mattern adaptations: merge
/// both participants' width-N vectors and tick both their components.
class FmRendezvousBase : public ClockEngine {
public:
    explicit FmRendezvousBase(std::size_t num_processes)
        : clocks_(num_processes) {
        for (std::size_t p = 0; p < num_processes; ++p) {
            clocks_.allocate();
        }
    }

    std::size_t width() const noexcept override { return clocks_.size(); }
    std::size_t num_processes() const noexcept override {
        return clocks_.size();
    }

    void reset() override {
        for (std::size_t p = 0; p < clocks_.size(); ++p) {
            ts::zero(clocks_.span(static_cast<TsHandle>(p)));
        }
        floor_.clear();
        epoch_ = 0;
    }

    /// FM vectors are indexed by process, so the floor migrates by the
    /// process rule; the per-process clock slab is rebuilt arena-to-arena
    /// at the new width, zeroed (the barrier model — per-epoch stamps are
    /// those of a fresh engine).
    void on_epoch(const EpochTransition& transition) override {
        std::vector<std::uint64_t> high_water(clocks_.size(), 0);
        for (std::size_t p = 0; p < clocks_.size(); ++p) {
            const auto row = clocks_.span(static_cast<TsHandle>(p));
            for (std::size_t q = 0; q < row.size(); ++q) {
                high_water[q] = std::max(high_water[q], row[q]);
            }
        }
        fold_epoch_floor(transition, high_water, /*by_process=*/true);
        TimestampArena next(transition.new_num_processes,
                            transition.new_num_processes);
        for (std::size_t p = 0; p < transition.new_num_processes; ++p) {
            next.allocate();
        }
        clocks_ = std::move(next);
    }

    void prepare_send(ProcessId sender,
                      std::span<std::uint64_t> out) override {
        check_process(sender);
        check_span(out);
        ts::copy(out, clocks_.span(sender));
    }

    void on_receive(ProcessId sender, ProcessId receiver,
                    std::span<const std::uint64_t> piggyback,
                    std::span<std::uint64_t> ack_out,
                    std::span<std::uint64_t> stamp_out) override {
        check_rendezvous(sender, receiver);
        check_span(piggyback);
        check_span(ack_out);
        check_span(stamp_out);
        const std::span<std::uint64_t> mine = clocks_.span(receiver);
        ts::copy(ack_out, mine);
        ts::join(mine, piggyback);
        ts::increment(mine, sender);
        ts::increment(mine, receiver);
        ts::copy(stamp_out, mine);
    }

    void on_ack(ProcessId sender, ProcessId receiver,
                std::span<const std::uint64_t> acknowledgement,
                std::span<std::uint64_t> stamp_out) override {
        check_rendezvous(sender, receiver);
        check_span(acknowledgement);
        check_span(stamp_out);
        const std::span<std::uint64_t> mine = clocks_.span(sender);
        ts::join(mine, acknowledgement);
        ts::increment(mine, sender);
        ts::increment(mine, receiver);
        ts::copy(stamp_out, mine);
    }

    /// State payload: the N width-N process vectors, row-major.
    void save_payload(std::vector<std::uint64_t>& out) const override {
        for (std::size_t p = 0; p < clocks_.size(); ++p) {
            const auto row = clocks_.span(static_cast<TsHandle>(p));
            out.insert(out.end(), row.begin(), row.end());
        }
    }

    void restore_payload(std::span<const std::uint64_t> payload) override {
        const std::size_t n = clocks_.size();
        SYNCTS_REQUIRE(payload.size() == n * n,
                       "FM state payload does not match the process count");
        for (std::size_t p = 0; p < n; ++p) {
            ts::copy(clocks_.span(static_cast<TsHandle>(p)),
                     payload.subspan(p * n, n));
        }
    }

protected:
    void check_process(ProcessId p) const {
        SYNCTS_REQUIRE(p < clocks_.size(), "process id out of range");
    }
    void check_rendezvous(ProcessId sender, ProcessId receiver) const {
        check_process(sender);
        check_process(receiver);
        SYNCTS_REQUIRE(sender != receiver, "no self-messages");
    }
    template <typename Span>
    void check_span(Span s) const {
        SYNCTS_REQUIRE(s.size() == clocks_.size(),
                       "span width does not match the engine width");
    }

    /// clocks_.span(p) — process p's current width-N vector.
    TimestampArena clocks_;
};

/// FM vector clocks over sync messages only (width N, message stamps).
class FmSyncEngine final : public FmRendezvousBase {
public:
    using FmRendezvousBase::FmRendezvousBase;
    ClockFamily family() const noexcept override {
        return ClockFamily::fm_sync;
    }
};

/// Classic FM event clocks: rendezvous as above plus a tick per internal
/// event (width N, message and internal-event stamps).
class FmEventEngine final : public FmRendezvousBase {
public:
    using FmRendezvousBase::FmRendezvousBase;
    ClockFamily family() const noexcept override {
        return ClockFamily::fm_event;
    }
    bool stamps_internal_events() const noexcept override { return true; }

    void on_internal(ProcessId process,
                     std::span<std::uint64_t> stamp_out) override {
        check_process(process);
        const std::span<std::uint64_t> mine = clocks_.span(process);
        ts::increment(mine, process);
        if (!stamp_out.empty()) {
            check_span(stamp_out);
            ts::copy(stamp_out, mine);
        }
    }
};

/// Lamport scalar clocks as width-1 vectors.
class LamportEngine final : public ClockEngine {
public:
    explicit LamportEngine(std::size_t num_processes)
        : clocks_(num_processes, 0) {}

    ClockFamily family() const noexcept override {
        return ClockFamily::lamport;
    }
    std::size_t width() const noexcept override { return 1; }
    std::size_t num_processes() const noexcept override {
        return clocks_.size();
    }
    bool stamps_internal_events() const noexcept override { return true; }

    void reset() override {
        clocks_.assign(clocks_.size(), 0);
        floor_.clear();
        epoch_ = 0;
    }

    /// Scalar clocks have one component that always survives: the floor
    /// is the running maximum across every epoch so far.
    void on_epoch(const EpochTransition& transition) override {
        std::uint64_t high_water = 0;
        for (const std::uint64_t c : clocks_) {
            high_water = std::max(high_water, c);
        }
        const std::uint64_t base = floor_.empty() ? 0 : floor_[0];
        advance_epoch(transition);
        floor_.assign(1, base + high_water);
        clocks_.assign(transition.new_num_processes, 0);
    }

    void prepare_send(ProcessId sender,
                      std::span<std::uint64_t> out) override {
        check(sender, out);
        out[0] = clocks_[sender];
    }

    void on_receive(ProcessId sender, ProcessId receiver,
                    std::span<const std::uint64_t> piggyback,
                    std::span<std::uint64_t> ack_out,
                    std::span<std::uint64_t> stamp_out) override {
        check(sender, stamp_out);
        check(receiver, ack_out);
        SYNCTS_REQUIRE(piggyback.size() == 1, "lamport stamps have width 1");
        ack_out[0] = clocks_[receiver];
        clocks_[receiver] =
            std::max(clocks_[receiver], piggyback[0]) + 1;
        stamp_out[0] = clocks_[receiver];
    }

    void on_ack(ProcessId sender, ProcessId /*receiver*/,
                std::span<const std::uint64_t> acknowledgement,
                std::span<std::uint64_t> stamp_out) override {
        check(sender, stamp_out);
        SYNCTS_REQUIRE(acknowledgement.size() == 1,
                       "lamport stamps have width 1");
        clocks_[sender] =
            std::max(clocks_[sender], acknowledgement[0]) + 1;
        stamp_out[0] = clocks_[sender];
    }

    void on_internal(ProcessId process,
                     std::span<std::uint64_t> stamp_out) override {
        SYNCTS_REQUIRE(process < clocks_.size(), "process id out of range");
        ++clocks_[process];
        if (!stamp_out.empty()) stamp_out[0] = clocks_[process];
    }

    /// State payload: the N scalar clocks.
    void save_payload(std::vector<std::uint64_t>& out) const override {
        out.insert(out.end(), clocks_.begin(), clocks_.end());
    }

    void restore_payload(std::span<const std::uint64_t> payload) override {
        SYNCTS_REQUIRE(
            payload.size() == clocks_.size(),
            "lamport state payload does not match the process count");
        clocks_.assign(payload.begin(), payload.end());
    }

private:
    void check(ProcessId p, std::span<std::uint64_t> out) const {
        SYNCTS_REQUIRE(p < clocks_.size(), "process id out of range");
        SYNCTS_REQUIRE(out.size() == 1, "lamport stamps have width 1");
    }

    std::vector<std::uint64_t> clocks_;
};

/// Fowler–Zwaenepoel direct dependencies as width-2 "timestamps": the
/// stamp of message m is (prev message of sender, prev message of
/// receiver), with kNoDirectDep encoding "none". The piggyback/ack carry
/// the O(1) channel state the real protocol would ship (the sender's
/// previous message id; the ack returns the receiver's previous id plus
/// the id the receiver assigned to the commit).
class DirectDependencyEngine final : public ClockEngine {
public:
    static constexpr std::uint64_t kNone =
        std::numeric_limits<std::uint64_t>::max();

    explicit DirectDependencyEngine(std::size_t num_processes)
        : last_(num_processes, kNone) {}

    ClockFamily family() const noexcept override {
        return ClockFamily::direct_dependency;
    }
    std::size_t width() const noexcept override { return 2; }
    std::size_t num_processes() const noexcept override {
        return last_.size();
    }

    void reset() override {
        last_.assign(last_.size(), kNone);
        next_id_ = 0;
        floor_.clear();
        epoch_ = 0;
    }

    /// Direct-dependency stamps are message *identifiers*, not counters —
    /// there is no meaningful floor to carry; ids restart per epoch, as a
    /// fresh engine's would.
    void on_epoch(const EpochTransition& transition) override {
        advance_epoch(transition);
        last_.assign(transition.new_num_processes, kNone);
        next_id_ = 0;
        floor_.clear();
    }

    void prepare_send(ProcessId sender,
                      std::span<std::uint64_t> out) override {
        check(sender, out);
        out[0] = last_[sender];
        out[1] = kNone;
    }

    void on_receive(ProcessId sender, ProcessId receiver,
                    std::span<const std::uint64_t> piggyback,
                    std::span<std::uint64_t> ack_out,
                    std::span<std::uint64_t> stamp_out) override {
        check(sender, stamp_out);
        check(receiver, ack_out);
        SYNCTS_REQUIRE(piggyback.size() == 2,
                       "direct-dependency stamps have width 2");
        stamp_out[0] = piggyback[0];
        stamp_out[1] = last_[receiver];
        ack_out[0] = last_[receiver];
        ack_out[1] = next_id_;
        last_[receiver] = next_id_++;
    }

    void on_ack(ProcessId sender, ProcessId /*receiver*/,
                std::span<const std::uint64_t> acknowledgement,
                std::span<std::uint64_t> stamp_out) override {
        check(sender, stamp_out);
        SYNCTS_REQUIRE(acknowledgement.size() == 2,
                       "direct-dependency stamps have width 2");
        stamp_out[0] = last_[sender];
        stamp_out[1] = acknowledgement[0];
        last_[sender] = acknowledgement[1];
    }

    /// State payload: the N last-message ids, then the id counter.
    void save_payload(std::vector<std::uint64_t>& out) const override {
        out.insert(out.end(), last_.begin(), last_.end());
        out.push_back(next_id_);
    }

    void restore_payload(std::span<const std::uint64_t> payload) override {
        SYNCTS_REQUIRE(payload.size() == last_.size() + 1,
                       "direct-dependency state payload does not match the "
                       "process count");
        last_.assign(payload.begin(), payload.end() - 1);
        next_id_ = payload.back();
    }

private:
    void check(ProcessId p, std::span<std::uint64_t> out) const {
        SYNCTS_REQUIRE(p < last_.size(), "process id out of range");
        SYNCTS_REQUIRE(out.size() == 2,
                       "direct-dependency stamps have width 2");
    }

    std::vector<std::uint64_t> last_;  // per process: last message id
    std::uint64_t next_id_ = 0;
};

/// Fig. 9 wrapped as a batch-only engine. The vector width is the realizer
/// size of each stamped computation, so width() is only known after a
/// stamp_* call.
class OfflineEngine final : public ClockEngine {
public:
    explicit OfflineEngine(std::size_t num_processes)
        : num_processes_(num_processes) {}

    ClockFamily family() const noexcept override {
        return ClockFamily::offline;
    }
    std::size_t width() const noexcept override { return width_; }
    std::size_t num_processes() const noexcept override {
        return num_processes_;
    }
    bool online() const noexcept override { return false; }

    void reset() override {
        width_ = 0;
        floor_.clear();
        epoch_ = 0;
    }

    /// Batch-only: an epoch transition just moves the process space; each
    /// stamp_* call realizes one epoch's computation from scratch anyway.
    void on_epoch(const EpochTransition& transition) override {
        advance_epoch(transition);
        num_processes_ = transition.new_num_processes;
        width_ = 0;
    }

    void prepare_send(ProcessId, std::span<std::uint64_t>) override {
        no_hooks();
    }
    void on_receive(ProcessId, ProcessId, std::span<const std::uint64_t>,
                    std::span<std::uint64_t>,
                    std::span<std::uint64_t>) override {
        no_hooks();
    }
    void on_ack(ProcessId, ProcessId, std::span<const std::uint64_t>,
                std::span<std::uint64_t>) override {
        no_hooks();
    }

    std::vector<TsHandle> stamp_messages(const SyncComputation& computation,
                                         TimestampArena& arena) override {
        const OfflineResult result = offline_timestamps(computation);
        width_ = result.width;
        SYNCTS_REQUIRE(arena.width() == width_,
                       "arena width does not match the realizer width");
        std::vector<TsHandle> stamps;
        stamps.reserve(result.timestamps.size());
        for (const VectorTimestamp& v : result.timestamps) {
            stamps.push_back(arena.allocate(v.components()));
        }
        return stamps;
    }

    EngineStamps stamp_computation(
        const SyncComputation& computation) override {
        const OfflineResult result = offline_timestamps(computation);
        width_ = result.width;
        EngineStamps stamps{
            TimestampArena(width_, result.timestamps.size()), {}, {}};
        stamps.message_stamps.reserve(result.timestamps.size());
        for (const VectorTimestamp& v : result.timestamps) {
            stamps.message_stamps.push_back(
                stamps.arena.allocate(v.components()));
        }
        return stamps;
    }

    /// State payload: the realizer width of the last stamped computation
    /// (the only mutable state of a batch engine).
    void save_payload(std::vector<std::uint64_t>& out) const override {
        out.push_back(width_);
    }

    void restore_payload(std::span<const std::uint64_t> payload) override {
        SYNCTS_REQUIRE(payload.size() == 1,
                       "offline state payload must be a single width word");
        width_ = payload[0];
    }

private:
    [[noreturn]] void no_hooks() const {
        SYNCTS_REQUIRE(false,
                       "the offline engine is batch-only: it has no "
                       "rendezvous protocol hooks");
        std::abort();  // unreachable: SYNCTS_REQUIRE(false) throws
    }

    std::size_t num_processes_;
    std::size_t width_ = 0;
};

}  // namespace

std::unique_ptr<ClockEngine> make_clock_engine(
    ClockFamily family,
    std::shared_ptr<const EdgeDecomposition> decomposition) {
    SYNCTS_REQUIRE(decomposition != nullptr, "decomposition must be set");
    const std::size_t n = decomposition->graph().num_vertices();
    switch (family) {
        case ClockFamily::online:
            return std::make_unique<OnlineTimestamper>(
                std::move(decomposition));
        case ClockFamily::fm_sync:
            return std::make_unique<FmSyncEngine>(n);
        case ClockFamily::fm_event:
            return std::make_unique<FmEventEngine>(n);
        case ClockFamily::lamport:
            return std::make_unique<LamportEngine>(n);
        case ClockFamily::direct_dependency:
            return std::make_unique<DirectDependencyEngine>(n);
        case ClockFamily::offline:
            return std::make_unique<OfflineEngine>(n);
    }
    throw std::invalid_argument("unknown clock family");
}

}  // namespace syncts
