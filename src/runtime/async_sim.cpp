#include "runtime/async_sim.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace syncts {

AsyncSimulator::AsyncSimulator(std::size_t num_processes, std::uint64_t seed)
    : handlers_(num_processes), down_(num_processes, false), rng_(seed) {
    set_fixed_latency(1);
}

void AsyncSimulator::set_down(ProcessId p, bool down) {
    SYNCTS_REQUIRE(p < down_.size(), "process out of range");
    down_[p] = down;
}

void AsyncSimulator::set_fixed_latency(std::uint64_t latency) {
    SYNCTS_REQUIRE(latency > 0, "latency must be positive");
    latency_lo_ = latency_hi_ = latency;
}

void AsyncSimulator::set_uniform_latency(std::uint64_t lo, std::uint64_t hi) {
    SYNCTS_REQUIRE(lo > 0 && lo <= hi, "invalid latency range");
    latency_lo_ = lo;
    latency_hi_ = hi;
}

void AsyncSimulator::set_fault_plan(FaultPlan plan) {
    injector_ = FaultInjector(std::move(plan));
}

void AsyncSimulator::on_deliver(ProcessId p, Handler handler) {
    SYNCTS_REQUIRE(p < handlers_.size(), "process out of range");
    handlers_[p] = std::move(handler);
}

void AsyncSimulator::on_timer(TimerHandler handler) {
    timer_handler_ = std::move(handler);
}

void AsyncSimulator::send(std::uint64_t now, Packet packet) {
    SYNCTS_REQUIRE(packet.destination < handlers_.size(),
                   "packet destination out of range");
    const FaultInjector::Disposition fate = injector_.disposition(
        packet.source, packet.destination, packet.kind);
    if (fate.count == 0) {
        recycle(std::move(packet.body));
        return;
    }
    for (std::size_t c = 0; c < fate.count; ++c) {
        const FaultInjector::Copy& copy = fate.copies[c];
        // The Rng feeds latencies only, so a fixed latency need not draw.
        const std::uint64_t latency =
            latency_lo_ == latency_hi_ ? latency_lo_
                                       : rng_.between(latency_lo_, latency_hi_);
        Packet delivered;
        if (c + 1 < fate.count) {
            // An injected duplicate: the one copy a send makes.
            delivered = Packet{packet.source, packet.destination, packet.kind,
                               packet.tag, take_body()};
            delivered.body.assign(packet.body.begin(), packet.body.end());
        } else {
            delivered = std::move(packet);
        }
        if (copy.corrupt) injector_.corrupt_body(delivered.body);
        ++queued_packets_;
        peak_queued_packets_ = std::max(peak_queued_packets_, queued_packets_);
        push({now + latency + copy.extra_delay, next_seq_++,
              std::move(delivered), Timer{}, false, copy.corrupt});
    }
}

std::vector<std::uint8_t> AsyncSimulator::take_body() {
    if (spare_bodies_.empty()) return {};
    std::vector<std::uint8_t> body = std::move(spare_bodies_.back());
    spare_bodies_.pop_back();
    body.clear();
    return body;
}

void AsyncSimulator::recycle(std::vector<std::uint8_t>&& body) {
    if (body.capacity() == 0 ||
        spare_bodies_.size() >= peak_queued_packets_) {
        return;
    }
    spare_bodies_.push_back(std::move(body));
}

void AsyncSimulator::push(Scheduled event) {
    queue_.push_back(std::move(event));
    std::push_heap(queue_.begin(), queue_.end(), later);
}

void AsyncSimulator::schedule(std::uint64_t when, const Timer& timer) {
    SYNCTS_REQUIRE(timer_handler_ != nullptr,
                   "register a timer handler before scheduling timers");
    push({when, next_seq_++, Packet{}, timer, true, false});
}

std::uint64_t AsyncSimulator::run(std::uint64_t max_events) {
    std::uint64_t now = 0;
    while (!queue_.empty()) {
        SYNCTS_REQUIRE(delivered_ + timers_fired_ < max_events,
                       "event budget exhausted: protocol livelock?");
        std::pop_heap(queue_.begin(), queue_.end(), later);
        Scheduled next = std::move(queue_.back());
        queue_.pop_back();
        now = next.time;
        if (next.is_timer) {
            ++timers_fired_;
            timer_handler_(now, next.timer);
            continue;
        }
        --queued_packets_;
        if (down_[next.packet.destination]) {
            // The destination is crashed: the packet reaches a dead NIC.
            ++crash_stats_.down_drops;
            if (next.corrupted) ++crash_stats_.corrupt_down_drops;
            recycle(std::move(next.packet.body));
            continue;
        }
        ++delivered_;
        const Handler& handler = handlers_[next.packet.destination];
        SYNCTS_ENSURE(handler != nullptr,
                      "packet delivered to a process with no handler");
        handler(now, next.packet);
        recycle(std::move(next.packet.body));
    }
    return now;
}

}  // namespace syncts
