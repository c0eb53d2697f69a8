#include "runtime/network.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "decomp/cover_decomposer.hpp"

namespace syncts {

TimestampedNetwork::TimestampedNetwork(
    std::shared_ptr<const EdgeDecomposition> decomposition,
    TimestampedNetworkOptions options)
    : decomposition_(std::move(decomposition)), options_(options) {
    SYNCTS_REQUIRE(decomposition_ != nullptr, "decomposition must be set");
    SYNCTS_REQUIRE(decomposition_->complete(),
                   "decomposition must cover every channel");
    SYNCTS_REQUIRE(options_.watchdog_poll.count() > 0,
                   "watchdog poll interval must be positive");
    SYNCTS_REQUIRE(options_.watchdog_grace_polls > 0,
                   "watchdog grace must be at least one poll");
    SYNCTS_REQUIRE(options_.send_timeout.count() >= 0,
                   "send timeout must be non-negative");
    for (const ChannelTimeoutRule& rule : options_.channel_timeouts) {
        SYNCTS_REQUIRE(rule.sender < num_processes() &&
                           rule.receiver < num_processes(),
                       "channel timeout rule names an unknown process");
        SYNCTS_REQUIRE(rule.timeout.count() >= 0,
                       "channel timeout must be non-negative");
    }
    mailboxes_.reserve(num_processes());
    for (std::size_t p = 0; p < num_processes(); ++p) {
        mailboxes_.push_back(std::make_unique<Mailbox>());
    }
}

TimestampedNetwork::TimestampedNetwork(const Graph& topology,
                                       TimestampedNetworkOptions options)
    : TimestampedNetwork(std::make_shared<const EdgeDecomposition>(
                             default_decomposition(topology)),
                         options) {}

std::size_t TimestampedNetwork::num_processes() const noexcept {
    return decomposition_->graph().num_vertices();
}

Mailbox& TimestampedNetwork::mailbox(ProcessId p) {
    SYNCTS_REQUIRE(p < mailboxes_.size(), "process id out of range");
    return *mailboxes_[p];
}

namespace {

/// RAII counter bump for blocked-state tracking.
class ScopedCount {
public:
    explicit ScopedCount(std::atomic<std::size_t>& counter)
        : counter_(counter) {
        counter_.fetch_add(1);
    }
    ~ScopedCount() { counter_.fetch_sub(1); }
    ScopedCount(const ScopedCount&) = delete;
    ScopedCount& operator=(const ScopedCount&) = delete;

private:
    std::atomic<std::size_t>& counter_;
};

}  // namespace

std::chrono::milliseconds TimestampedNetwork::channel_timeout(
    ProcessId from, ProcessId to) const {
    std::chrono::milliseconds timeout = options_.send_timeout;
    for (const ChannelTimeoutRule& rule : options_.channel_timeouts) {
        if (rule.sender == from && rule.receiver == to) {
            timeout = rule.timeout;
        }
    }
    return timeout;
}

std::uint64_t TimestampedNetwork::rendezvous_send(
    ProcessId from, ProcessId to, std::string payload,
    std::span<const std::uint64_t> piggyback, std::span<std::uint64_t> ack) {
    SYNCTS_REQUIRE(decomposition_->graph().has_edge(from, to),
                   "no channel between sender and receiver in the topology");
    const std::chrono::milliseconds timeout = channel_timeout(from, to);
    FailureDetector* detector = options_.detector;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed_ms = [&start] {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    const ScopedCount blocked(blocked_);
    const std::optional<std::uint64_t> seq = mailbox(to).offer_and_wait(
        from, std::move(payload), piggyback, ack, timeout);
    if (!seq.has_value()) {
        if (timeout_counter_ != nullptr) timeout_counter_->inc();
        if (detector != nullptr) {
            detector->record_timeout(to, elapsed_ms());
            if (detector->suspected(to) && suspicion_counter_ != nullptr) {
                suspicion_counter_->inc();
            }
        }
        throw ChannelTimeoutError(from, to, timeout);
    }
    if (detector != nullptr) detector->record_success(to, elapsed_ms());
    return *seq;
}

Mailbox::Accepted TimestampedNetwork::accept_for(
    ProcessId self, std::optional<ProcessId> from) {
    const ScopedCount blocked(blocked_);
    return *mailbox(self).accept(from);
}

void TimestampedNetwork::trace_event(obs::TraceEventKind kind,
                                     ProcessId process, ProcessId peer,
                                     std::uint64_t a, std::uint64_t b,
                                     std::uint64_t logical) {
    obs::TraceSink* const sink = options_.trace;
    if (sink == nullptr) return;
    obs::TraceEvent event;
    event.virtual_time = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - trace_start_)
            .count());
    event.logical = logical;
    event.arg_a = a;
    event.arg_b = b;
    event.process = process;
    event.peer = peer;
    event.kind = kind;
    const std::lock_guard lock(trace_mutex_);
    sink->record(event);
}

void TimestampedNetwork::close_all() {
    for (const auto& box : mailboxes_) box->close();
}

RunRecord TimestampedNetwork::run(const std::vector<ProcessProgram>& programs) {
    const std::size_t n = num_processes();
    SYNCTS_REQUIRE(programs.size() == n, "one program per process required");
    seq_.store(0);
    blocked_.store(0);
    finished_.store(0);
    deadlocked_.store(false);
    trace_start_ = std::chrono::steady_clock::now();

    std::vector<std::unique_ptr<ProcessContext>> contexts;
    contexts.reserve(n);
    for (ProcessId p = 0; p < n; ++p) {
        contexts.push_back(
            std::make_unique<ProcessContext>(p, *this, decomposition_));
    }

    std::mutex error_mutex;
    std::exception_ptr first_error;
    const auto report_error = [&](std::exception_ptr error) {
        bool is_first = false;
        {
            const std::lock_guard lock(error_mutex);
            if (!first_error) {
                first_error = error;
                is_first = true;
            }
        }
        // Unblock everyone so the run can unwind. Secondary MailboxClosed
        // exceptions in other processes are expected and swallowed below.
        if (is_first) close_all();
    };

    // Register every counter before the process threads start: the send
    // path reads timeout_counter_/suspicion_counter_ concurrently, and
    // the registry itself is only mutated here.
    obs::Counter* watchdog_polls = nullptr;
    obs::Counter* watchdog_idle = nullptr;
    obs::Counter* deadlock_count = nullptr;
    if (options_.metrics != nullptr) {
        watchdog_polls = &options_.metrics->counter("net_watchdog_polls");
        watchdog_idle = &options_.metrics->counter("net_watchdog_idle_polls");
        deadlock_count = &options_.metrics->counter("net_deadlocks");
        timeout_counter_ = &options_.metrics->counter("net_channel_timeouts");
        suspicion_counter_ = &options_.metrics->counter("net_suspicions");
    }

    std::vector<std::thread> threads;
    threads.reserve(n);
    for (ProcessId p = 0; p < n; ++p) {
        threads.emplace_back([&, p] {
            try {
                programs[p](*contexts[p]);
            } catch (const MailboxClosed&) {
                // Shutdown ripple; the primary error is already recorded
                // (or this is a watchdog-initiated teardown).
            } catch (...) {
                report_error(std::current_exception());
            }
            finished_.fetch_add(1);
        });
    }

    // Deadlock watchdog: if every unfinished process is blocked and no
    // rendezvous completes across the configured grace period, tear the
    // network down.
    std::thread watchdog([&] {
        std::uint64_t last_seq = seq_.load();
        int stable_polls = 0;
        while (finished_.load() < n) {
            std::this_thread::sleep_for(options_.watchdog_poll);
            const std::size_t done = finished_.load();
            if (done >= n) break;
            if (watchdog_polls != nullptr) watchdog_polls->inc();
            const std::uint64_t current_seq = seq_.load();
            const bool all_blocked = blocked_.load() + done >= n;
            if (all_blocked && current_seq == last_seq) {
                if (watchdog_idle != nullptr) watchdog_idle->inc();
                if (++stable_polls >= options_.watchdog_grace_polls) {
                    deadlocked_.store(true);
                    if (deadlock_count != nullptr) deadlock_count->inc();
                    report_error(std::make_exception_ptr(NetworkDeadlock()));
                    break;
                }
            } else {
                stable_polls = 0;
            }
            last_seq = current_seq;
        }
    });

    for (auto& t : threads) t.join();
    watchdog.join();

    if (first_error) std::rethrow_exception(first_error);

    // ---- Post-run reconstruction -------------------------------------
    RunRecord record{.messages = {},
                     .computation = SyncComputation(decomposition_->graph()),
                     .message_stamps = {},
                     .internal_stamps = {},
                     .internal_notes = {}};

    for (const auto& context : contexts) {
        record.messages.insert(record.messages.end(),
                               context->received_.begin(),
                               context->received_.end());
    }
    std::ranges::sort(record.messages,
                      [](const MessageRecord& a, const MessageRecord& b) {
                          return a.seq < b.seq;
                      });

    // Interleave: walk messages in global order, draining each journal's
    // internal events that precede the corresponding send/receive entry.
    std::vector<std::size_t> cursor(n, 0);
    const auto drain_until = [&](ProcessId p, std::uint64_t seq) {
        const auto& journal = contexts[p]->journal_;
        while (cursor[p] < journal.size()) {
            const JournalEntry& entry = journal[cursor[p]];
            if (entry.kind == JournalEntry::Kind::internal) {
                record.computation.add_internal(p);
                record.internal_notes.push_back(entry.note);
                ++cursor[p];
                continue;
            }
            SYNCTS_ENSURE(seq != 0 && entry.seq == seq,
                          "journal replay out of order");
            ++cursor[p];
            return;
        }
        SYNCTS_ENSURE(seq == 0, "journal missing a rendezvous entry");
    };
    for (const MessageRecord& m : record.messages) {
        drain_until(m.sender, m.seq);
        drain_until(m.receiver, m.seq);
        record.computation.add_message(m.sender, m.receiver);
        record.message_stamps.push_back(m.timestamp);
    }
    for (ProcessId p = 0; p < n; ++p) drain_until(p, 0);

    record.internal_stamps = timestamp_internal_events(
        record.computation, record.message_stamps, width());
    if (options_.metrics != nullptr) {
        options_.metrics->counter("net_rendezvous")
            .inc(record.messages.size());
        options_.metrics->counter("net_internal_events")
            .inc(record.computation.num_internal_events());
    }
    return record;
}

}  // namespace syncts
