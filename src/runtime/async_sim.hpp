#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/rng.hpp"
#include "runtime/fault_plan.hpp"

/// \file async_sim.hpp
/// A deterministic discrete-event simulator for an asynchronous
/// point-to-point network: packets carry opaque byte payloads, experience
/// per-packet latencies, and are delivered to per-process handlers in
/// timestamp order. This is the substrate *underneath* synchronous
/// messages — the paper (citing Murty & Garg) notes that implementing a
/// synchronous message requires the sender to wait for an acknowledgement;
/// runtime/synchronizer.hpp builds exactly that protocol on top of this
/// network.
///
/// The simulator optionally runs under a FaultPlan (drop / duplicate /
/// corrupt / extra-delay, plus targeted drop rules) and supports timers so
/// protocols can implement retransmission. A timer is a plain Timer
/// record, held by value in the event queue and handed back unchanged to
/// the one timer handler when it fires: arming one allocates nothing.
/// Determinism: ties in delivery and firing time break by schedule
/// sequence number, latencies come from a seeded Rng, and faults from the
/// plan's own seeded Rng, so a run is a pure function of (programs, seed,
/// fault plan).
///
/// Body ownership: send() moves the packet into the event queue (only an
/// injected duplicate copies it), run() moves each event out of the queue,
/// and once the handler returns the delivered body joins a free list that
/// take_body() hands back to the next sender. A steady packet flow thus
/// reuses a bounded set of body buffers instead of allocating per packet.

namespace syncts {

/// One packet in flight. `kind` and `body` are protocol-defined; the body
/// is raw bytes so the fault layer can corrupt it the way a real network
/// would, and so protocols must frame/validate it (clocks/wire.hpp).
struct Packet {
    ProcessId source = 0;
    ProcessId destination = 0;
    std::uint32_t kind = 0;
    std::uint64_t tag = 0;             // protocol correlation id
    std::vector<std::uint8_t> body;    // wire-encoded payload
};

/// One armed timer. The simulator reads none of its fields: the protocol
/// names the process, the kind of timer, the incarnation it was armed in
/// and two arguments, and gets the record back as it was when it fires.
struct Timer {
    ProcessId process = 0;
    std::uint32_t kind = 0;
    std::uint64_t incarnation = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

class AsyncSimulator {
public:
    /// Handler invoked at delivery time on the destination process.
    using Handler = std::function<void(std::uint64_t now, const Packet&)>;

    /// Handler invoked with each timer record at its scheduled time.
    using TimerHandler = std::function<void(std::uint64_t now, const Timer&)>;

    AsyncSimulator(std::size_t num_processes, std::uint64_t seed);

    /// Fixed latency for every packet; draws nothing from the Rng.
    void set_fixed_latency(std::uint64_t latency);

    /// Uniform random latency in [lo, hi], one Rng draw per delivered
    /// copy (none when lo == hi).
    void set_uniform_latency(std::uint64_t lo, std::uint64_t hi);

    /// Runs every subsequent send through `plan`. Resets fault statistics.
    void set_fault_plan(FaultPlan plan);

    /// Registers the delivery handler for process p (one per process).
    void on_deliver(ProcessId p, Handler handler);

    /// Registers the one handler every timer fires through.
    void on_timer(TimerHandler handler);

    /// Marks process p down (crashed) or back up. Packets delivered to a
    /// down process are silently lost — exactly what a dead NIC does —
    /// and counted as fault_stats().down_drops (corrupted ones also as
    /// corrupt_down_drops). Timers still fire (the runtime uses one to
    /// restart the process).
    void set_down(ProcessId p, bool down);

    /// Counts one executed crash rule into the fault statistics.
    void note_crash() noexcept { ++crash_stats_.crashes; }

    /// Queues a packet for delivery at now + latency (per delivered copy).
    /// Under a fault plan the packet may be dropped, duplicated, delayed,
    /// or its body corrupted in flight.
    void send(std::uint64_t now, Packet packet);

    /// An empty body buffer for the next send, recycled from a delivered
    /// (or dropped) packet when one is spare, so its capacity is reused.
    /// The spare list never holds more buffers than the most packets that
    /// were ever queued at once.
    std::vector<std::uint8_t> take_body();

    /// The inverse of take_body(): hands a body the caller no longer
    /// needs back to the spare list (dropped when the list is full or the
    /// body has no capacity).
    void recycle(std::vector<std::uint8_t>&& body);

    /// Schedules `timer` to fire at virtual time `when`, through the
    /// handler on_timer() registered. Timers cannot be cancelled;
    /// protocols check their own state when one fires.
    void schedule(std::uint64_t when, const Timer& timer);

    /// Runs until the event queue drains; returns the final virtual time.
    /// `max_events` bounds deliveries + timer firings and guards against
    /// protocol bugs that flood the network.
    std::uint64_t run(std::uint64_t max_events = 10'000'000);

    std::uint64_t packets_delivered() const noexcept { return delivered_; }

    /// What the fault plan actually injected so far, including the
    /// crash/down-drop counts the runtime reported.
    FaultStats fault_stats() const noexcept {
        FaultStats stats = injector_.stats();
        stats.crashes = crash_stats_.crashes;
        stats.down_drops = crash_stats_.down_drops;
        stats.corrupt_down_drops = crash_stats_.corrupt_down_drops;
        return stats;
    }

private:
    struct Scheduled {
        std::uint64_t time;
        std::uint64_t seq;
        Packet packet;           // a delivery event unless is_timer
        Timer timer;             // a timer event when is_timer
        bool is_timer = false;
        bool corrupted = false;  // the fault plan mutated the body
    };

    /// Heap order: the root is the earliest (time, seq). Keys are unique,
    /// so the pop order is a pure function of the schedule.
    static bool later(const Scheduled& a, const Scheduled& b) noexcept {
        return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }

    void push(Scheduled event);

    std::vector<Handler> handlers_;
    TimerHandler timer_handler_;
    std::vector<bool> down_;
    FaultStats crash_stats_;  ///< crash/down-drop counts only
    std::vector<Scheduled> queue_;  ///< binary heap under later()
    std::size_t queued_packets_ = 0;
    std::size_t peak_queued_packets_ = 0;
    std::vector<std::vector<std::uint8_t>> spare_bodies_;
    std::uint64_t latency_lo_ = 1;
    std::uint64_t latency_hi_ = 1;
    Rng rng_;
    FaultInjector injector_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t delivered_ = 0;
    std::uint64_t timers_fired_ = 0;
};

}  // namespace syncts
