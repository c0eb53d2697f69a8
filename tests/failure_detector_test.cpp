#include <gtest/gtest.h>

#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "graph/generators.hpp"
#include "obs/metrics.hpp"
#include "runtime/failure_detector.hpp"
#include "runtime/network.hpp"

namespace syncts {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------------
// FailureDetector unit behaviour: phi-accrual under the exponential model.
// ---------------------------------------------------------------------------

TEST(FailureDetector, PhiGrowsWithSilenceAndResetsOnSuccess) {
    FailureDetector detector(3.0);
    EXPECT_DOUBLE_EQ(detector.phi(0), 0.0);
    EXPECT_FALSE(detector.suspected(0));

    // Establish a ~10ms heartbeat cadence.
    for (int i = 0; i < 8; ++i) detector.record_success(0, 10.0);
    EXPECT_DOUBLE_EQ(detector.phi(0), 0.0);

    // Under the exponential model phi = silence / (mean * ln 10): 100ms
    // of silence over a 10ms cadence is phi ~= 4.34 — past threshold 3.
    detector.record_timeout(0, 100.0);
    EXPECT_GT(detector.phi(0), 4.0);
    EXPECT_LT(detector.phi(0), 5.0);
    EXPECT_TRUE(detector.suspected(0));
    EXPECT_EQ(detector.suspects(), std::vector<ProcessId>{0});

    // One heartbeat clears the silence: suspicion is never sticky.
    detector.record_success(0, 10.0);
    EXPECT_DOUBLE_EQ(detector.phi(0), 0.0);
    EXPECT_FALSE(detector.suspected(0));
    EXPECT_TRUE(detector.suspects().empty());
}

TEST(FailureDetector, SilenceAccumulatesAcrossTimeouts) {
    FailureDetector detector(3.0);
    for (int i = 0; i < 4; ++i) detector.record_success(2, 20.0);
    detector.record_timeout(2, 50.0);
    const double one = detector.phi(2);
    detector.record_timeout(2, 50.0);
    EXPECT_NEAR(detector.phi(2), 2 * one, 1e-9);
    EXPECT_EQ(detector.timeouts(), 2u);
    EXPECT_EQ(detector.successes(), 4u);

    detector.clear(2);
    EXPECT_DOUBLE_EQ(detector.phi(2), 0.0);
}

TEST(FailureDetector, NeverHeardFromPeerUsesFloorCadence) {
    // A peer with no successful rendezvous ever still accrues suspicion
    // once a timeout is observed (the interval floor avoids divide-by-
    // zero rather than masking the silence).
    FailureDetector detector(3.0);
    detector.record_timeout(7, 10.0);
    EXPECT_TRUE(detector.suspected(7));
}

TEST(FailureDetector, RejectsNonPositiveThreshold) {
    EXPECT_THROW(FailureDetector(0.0), std::invalid_argument);
    EXPECT_THROW(FailureDetector(-1.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Timed mailbox primitives.
// ---------------------------------------------------------------------------

TEST(MailboxTimeout, OfferWithdrawnWhenNobodyAccepts) {
    Mailbox box;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack(1);
    const auto result = box.offer_and_wait(0, "ping", piggyback, ack, 20ms);
    EXPECT_FALSE(result.has_value());
    // The withdrawn offer must not linger for a late receiver.
    EXPECT_FALSE(box.has_offer(std::nullopt));
}

TEST(MailboxTimeout, CompletesNormallyWhenAcceptedInTime) {
    Mailbox box;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack(1, 0);
    std::thread receiver([&] {
        Mailbox::Accepted accepted = *box.accept(std::nullopt);
        accepted.ack()[0] = 9;
        accepted.complete(4);
    });
    const auto result =
        box.offer_and_wait(1, "ping", piggyback, ack, 5000ms);
    receiver.join();
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(ack[0], 9u);
    EXPECT_EQ(*result, 4u);
}

TEST(MailboxTimeout, AcceptForTimesOutWithoutOffer) {
    Mailbox box;
    EXPECT_FALSE(box.accept(std::nullopt, 20ms).has_value());
}

TEST(MailboxTimeout, AcceptForReturnsQueuedOffer) {
    Mailbox box;
    const std::vector<std::uint64_t> piggyback(1, 0);
    std::vector<std::uint64_t> ack(1);
    std::thread sender([&] {
        const auto seq = box.offer_and_wait(5, "x", piggyback, ack);
        EXPECT_EQ(seq, 11u);
    });
    std::optional<Mailbox::Accepted> accepted;
    while (!accepted.has_value()) {
        accepted = box.accept(5, 100ms);
    }
    accepted->complete(11);
    sender.join();
}

// ---------------------------------------------------------------------------
// TimestampedNetwork integration: typed timeout error, per-channel rules,
// metrics, and detector composition.
// ---------------------------------------------------------------------------

TEST(ChannelWatchdog, ExpirySurfacesAsTypedErrorWithMetrics) {
    obs::MetricsRegistry metrics;
    FailureDetector detector(1.0);
    TimestampedNetworkOptions options;
    options.send_timeout = 30ms;
    options.metrics = &metrics;
    options.detector = &detector;
    TimestampedNetwork network(topology::complete(2), options);

    std::vector<ProcessProgram> programs(2);
    programs[0] = [](ProcessContext& self) { self.send(1, "hello?"); };
    programs[1] = [](ProcessContext&) { /* never accepts */ };

    try {
        network.run(programs);
        FAIL() << "expected ChannelTimeoutError";
    } catch (const ChannelTimeoutError& error) {
        EXPECT_EQ(error.sender(), 0u);
        EXPECT_EQ(error.receiver(), 1u);
        EXPECT_EQ(error.timeout(), 30ms);
    }
    EXPECT_EQ(metrics.counter("net_channel_timeouts").value(), 1u);
    // A peer that never completed a rendezvous is suspected after one
    // expiry, and the suspicion is published.
    EXPECT_TRUE(detector.suspected(1));
    EXPECT_EQ(metrics.counter("net_suspicions").value(), 1u);
    EXPECT_EQ(detector.timeouts(), 1u);
}

TEST(ChannelWatchdog, PerChannelRuleOverridesDefault) {
    // Default waits forever; only the P0 -> P1 channel is policed, so
    // the typed error must name exactly that channel.
    TimestampedNetworkOptions options;
    options.channel_timeouts.push_back({0, 1, 25ms});
    TimestampedNetwork network(topology::complete(3), options);

    std::vector<ProcessProgram> programs(3);
    programs[0] = [](ProcessContext& self) { self.send(1, "hello?"); };
    programs[1] = [](ProcessContext&) {};
    programs[2] = [](ProcessContext&) {};

    EXPECT_THROW(network.run(programs), ChannelTimeoutError);
}

TEST(ChannelWatchdog, HealthyRunRecordsHeartbeatsNotTimeouts) {
    obs::MetricsRegistry metrics;
    FailureDetector detector(1.0);
    TimestampedNetworkOptions options;
    options.send_timeout = 5000ms;
    options.metrics = &metrics;
    options.detector = &detector;
    TimestampedNetwork network(topology::complete(2), options);

    std::vector<ProcessProgram> programs(2);
    programs[0] = [](ProcessContext& self) {
        self.send(1, "a");
        self.send(1, "b");
    };
    programs[1] = [](ProcessContext& self) {
        self.receive();
        self.receive();
    };

    const RunRecord record = network.run(programs);
    EXPECT_EQ(record.messages.size(), 2u);
    EXPECT_EQ(metrics.counter("net_channel_timeouts").value(), 0u);
    EXPECT_EQ(detector.successes(), 2u);
    EXPECT_EQ(detector.timeouts(), 0u);
    EXPECT_FALSE(detector.suspected(1));
}

TEST(ChannelWatchdog, RejectsInvalidRules) {
    TimestampedNetworkOptions options;
    options.channel_timeouts.push_back({0, 9, 10ms});
    EXPECT_THROW(TimestampedNetwork(topology::complete(2), options),
                 std::invalid_argument);
}

}  // namespace
}  // namespace syncts
