#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "clocks/event_timestamp.hpp"
#include "decomp/edge_decomposition.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_sink.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/process.hpp"
#include "trace/computation.hpp"

/// \file network.hpp
/// The threaded synchronous network: one thread per process, pairwise
/// rendezvous restricted to topology edges, Fig. 5 piggybacking on every
/// message and acknowledgement, and a post-run record that reconstructs
/// the computation for offline analysis (ground truth, Section 5 event
/// timestamps, offline retimestamping).
///
/// A watchdog detects whole-system deadlocks (every unfinished process
/// blocked, no rendezvous progress for a grace period), closes all
/// mailboxes and fails the run — synchronous programs deadlock easily and
/// a hung harness is worse than an exception.

namespace syncts {

/// Thrown by run() when the watchdog trips.
class NetworkDeadlock : public std::runtime_error {
public:
    NetworkDeadlock()
        : std::runtime_error(
              "synchronous network deadlock: all unfinished processes are "
              "blocked and no rendezvous is progressing") {}
};

/// Thrown by run() when a send's channel watchdog expires: the receiver
/// did not accept the rendezvous within the channel's timeout. Typed so
/// callers can tell a slow/crashed *peer* (degrade, consult the failure
/// detector) from a whole-system deadlock (NetworkDeadlock) or a wire
/// problem.
class ChannelTimeoutError : public std::runtime_error {
public:
    ChannelTimeoutError(ProcessId sender, ProcessId receiver,
                        std::chrono::milliseconds timeout)
        : std::runtime_error("send from P" + std::to_string(sender) +
                             " to P" + std::to_string(receiver) +
                             " timed out after " +
                             std::to_string(timeout.count()) +
                             "ms on the channel watchdog"),
          sender_(sender),
          receiver_(receiver),
          timeout_(timeout) {}

    ProcessId sender() const noexcept { return sender_; }
    ProcessId receiver() const noexcept { return receiver_; }
    std::chrono::milliseconds timeout() const noexcept { return timeout_; }

private:
    ProcessId sender_;
    ProcessId receiver_;
    std::chrono::milliseconds timeout_;
};

/// Per-directed-channel override of the send watchdog timeout.
struct ChannelTimeoutRule {
    ProcessId sender = 0;
    ProcessId receiver = 0;
    std::chrono::milliseconds timeout{0};  ///< 0 = wait forever
};

/// Tunables for TimestampedNetwork. The watchdog declares deadlock after
/// `watchdog_grace_polls` consecutive polls (every `watchdog_poll`) during
/// which every unfinished process is blocked and no rendezvous completed,
/// so the grace period is roughly watchdog_poll * watchdog_grace_polls.
/// Tests shrink it to fail fast; slow CI machines can stretch it.
struct TimestampedNetworkOptions {
    std::chrono::milliseconds watchdog_poll{10};
    int watchdog_grace_polls = 20;

    /// Default per-send watchdog: a sender blocked longer than this on
    /// one rendezvous withdraws its offer and run() fails with
    /// ChannelTimeoutError. 0 (the default) waits forever — the classic
    /// synchronous-send semantics, policed only by the whole-system
    /// deadlock watchdog above.
    std::chrono::milliseconds send_timeout{0};

    /// Per-directed-channel overrides of send_timeout (last matching
    /// rule wins; timeout 0 restores wait-forever for that channel).
    std::vector<ChannelTimeoutRule> channel_timeouts;

    /// When set, every completed rendezvous records a heartbeat for the
    /// receiver and every channel-watchdog expiry records silence, so
    /// suspicion accrues per peer (see failure_detector.hpp). Must
    /// outlive the call.
    FailureDetector* detector = nullptr;

    /// When set, run() publishes `net_rendezvous`, `net_internal_events`,
    /// `net_watchdog_polls`, `net_watchdog_idle_polls` (polls with every
    /// unfinished process blocked and no progress), `net_deadlocks`,
    /// `net_channel_timeouts` (send watchdogs expired), and
    /// `net_suspicions` (timeouts that tipped a peer over the detector
    /// threshold) into this registry. Must outlive the call. The
    /// watchdog and the process threads write concurrently — the metrics
    /// are relaxed atomics, so no additional synchronization is needed.
    obs::MetricsRegistry* metrics = nullptr;

    /// When set, every rendezvous records send/commit/ack trace events
    /// with wall-clock nanosecond offsets from run() start as the
    /// timebase, the same event shapes the simulated runtime emits —
    /// causal_profiler.hpp consumes either stream unchanged. The sink is
    /// not thread-safe, so recording takes an internal mutex (off the
    /// mailbox fast path; enable for profiling runs, not throughput
    /// benchmarks). Must outlive the call.
    obs::TraceSink* trace = nullptr;
};

/// Post-run results.
struct RunRecord {
    std::vector<MessageRecord> messages;  // in global rendezvous order

    /// The run reconstructed as a SyncComputation (messages in rendezvous
    /// order, internal events at their per-process positions).
    SyncComputation computation;

    /// message_stamps[m] for the reconstructed computation (same order).
    std::vector<VectorTimestamp> message_stamps;

    /// Section 5 timestamps for the internal events recorded via
    /// ProcessContext::internal_event, indexed by InternalId of
    /// `computation`.
    std::vector<EventTimestamp> internal_stamps;

    /// notes[i] — the user note attached to internal event i.
    std::vector<std::string> internal_notes;
};

class TimestampedNetwork {
public:
    /// Network over a shared decomposition (which fixes the topology).
    explicit TimestampedNetwork(
        std::shared_ptr<const EdgeDecomposition> decomposition,
        TimestampedNetworkOptions options = {});

    /// Convenience: default decomposition of `topology`.
    explicit TimestampedNetwork(const Graph& topology,
                                TimestampedNetworkOptions options = {});

    std::size_t num_processes() const noexcept;
    std::size_t width() const noexcept { return decomposition_->size(); }
    const EdgeDecomposition& decomposition() const noexcept {
        return *decomposition_;
    }

    /// Runs one program per process to completion on its own thread and
    /// returns the reconstructed record. Throws the first user exception
    /// (after closing all mailboxes so every blocked process unwinds), or
    /// NetworkDeadlock when the watchdog trips. `programs.size()` must
    /// equal the number of processes.
    RunRecord run(const std::vector<ProcessProgram>& programs);

private:
    friend class ProcessContext;

    /// Sender-side rendezvous (blocking): offers `piggyback`, waits up to
    /// the channel's send watchdog for the receiver to write its
    /// acknowledgement into `ack`, and returns the global sequence number.
    /// Throws ChannelTimeoutError when the watchdog expires.
    std::uint64_t rendezvous_send(ProcessId from, ProcessId to,
                                  std::string payload,
                                  std::span<const std::uint64_t> piggyback,
                                  std::span<std::uint64_t> ack);

    /// Receiver-side accept (blocking), with blocked-state tracking.
    Mailbox::Accepted accept_for(ProcessId self,
                                 std::optional<ProcessId> from);

    Mailbox& mailbox(ProcessId p);
    std::uint64_t next_seq() noexcept { return seq_.fetch_add(1) + 1; }

    /// Records one wall-timed trace event (no-op without a sink). The
    /// mutex serializes process threads into the single-writer ring.
    void trace_event(obs::TraceEventKind kind, ProcessId process,
                     ProcessId peer, std::uint64_t a, std::uint64_t b,
                     std::uint64_t logical);

    /// Effective send watchdog for the directed channel from -> to.
    std::chrono::milliseconds channel_timeout(ProcessId from,
                                              ProcessId to) const;

    void close_all();

    std::shared_ptr<const EdgeDecomposition> decomposition_;
    TimestampedNetworkOptions options_;
    std::vector<std::unique_ptr<Mailbox>> mailboxes_;
    std::atomic<std::uint64_t> seq_{0};
    std::atomic<std::size_t> blocked_{0};
    std::atomic<std::size_t> finished_{0};
    std::atomic<bool> deadlocked_{false};
    /// Registered once in run() before the process threads start, so the
    /// hot path never mutates the registry concurrently.
    obs::Counter* timeout_counter_ = nullptr;
    obs::Counter* suspicion_counter_ = nullptr;
    /// Trace timebase origin, reset at each run() entry.
    std::chrono::steady_clock::time_point trace_start_{};
    std::mutex trace_mutex_;
};

}  // namespace syncts
