#include "runtime/fault_plan.hpp"

#include <utility>

#include "common/check.hpp"

namespace syncts {

std::string FaultStats::to_string() const {
    std::string text = "dropped=" + std::to_string(dropped) +
                       " targeted=" + std::to_string(targeted_drops) +
                       " duplicated=" + std::to_string(duplicated) +
                       " corrupted=" + std::to_string(corrupted) +
                       " delayed=" + std::to_string(delayed);
    if (crashes > 0 || down_drops > 0) {
        text += " crashes=" + std::to_string(crashes) +
                " down_drops=" + std::to_string(down_drops);
    }
    return text;
}

namespace {

void require_probability(double p, const char* name) {
    SYNCTS_REQUIRE(p >= 0.0 && p <= 1.0,
                   std::string(name) + " must be a probability in [0, 1]");
}

}  // namespace

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)),
      rng_(plan_.seed),
      rule_hits_(plan_.targeted_drops.size(), 0) {
    require_probability(plan_.drop_probability, "drop_probability");
    require_probability(plan_.duplicate_probability, "duplicate_probability");
    require_probability(plan_.corrupt_probability, "corrupt_probability");
    require_probability(plan_.delay_probability, "delay_probability");
    for (const TargetedDrop& rule : plan_.targeted_drops) {
        SYNCTS_REQUIRE(rule.occurrence >= 1,
                       "targeted drop occurrences are 1-based");
    }
    for (const CrashRule& rule : plan_.crashes) {
        SYNCTS_REQUIRE(rule.at_step >= 1, "crash rule steps are 1-based");
    }
}

FaultInjector::Disposition FaultInjector::disposition(
    ProcessId source, ProcessId destination, std::uint32_t kind) {
    Disposition fate;
    if (!active()) {
        fate.count = 1;
        return fate;
    }

    // Targeted rules fire regardless of the probabilistic dice so test
    // scenarios stay exact.
    for (std::size_t r = 0; r < plan_.targeted_drops.size(); ++r) {
        const TargetedDrop& rule = plan_.targeted_drops[r];
        if (rule.source != source || rule.destination != destination) continue;
        if (rule.kind != TargetedDrop::kAnyKind && rule.kind != kind) continue;
        if (++rule_hits_[r] == rule.occurrence) {
            ++stats_.targeted_drops;
            return fate;
        }
    }

    if (plan_.drop_probability > 0.0 &&
        rng_.uniform01() < plan_.drop_probability) {
        ++stats_.dropped;
        return fate;
    }

    fate.count = 1;
    if (plan_.duplicate_probability > 0.0 &&
        rng_.uniform01() < plan_.duplicate_probability) {
        ++stats_.duplicated;
        fate.count = 2;
    }

    for (std::size_t c = 0; c < fate.count; ++c) {
        Copy& copy = fate.copies[c];
        if (plan_.corrupt_probability > 0.0 &&
            rng_.uniform01() < plan_.corrupt_probability) {
            ++stats_.corrupted;
            copy.corrupt = true;
        }
        if (plan_.delay_probability > 0.0 && plan_.max_extra_delay > 0 &&
            rng_.uniform01() < plan_.delay_probability) {
            ++stats_.delayed;
            copy.extra_delay = rng_.between(1, plan_.max_extra_delay);
        }
    }
    return fate;
}

void FaultInjector::corrupt_body(std::vector<std::uint8_t>& body) {
    if (body.empty()) {
        body.push_back(static_cast<std::uint8_t>(rng_.below(256)));
        return;
    }
    switch (rng_.below(3)) {
        case 0: {  // flip one bit
            const std::size_t byte = rng_.below(body.size());
            body[byte] ^= static_cast<std::uint8_t>(1u << rng_.below(8));
            break;
        }
        case 1:  // truncate the tail
            body.resize(rng_.below(body.size()));
            break;
        default:  // append garbage
            body.push_back(static_cast<std::uint8_t>(rng_.below(256)));
            break;
    }
}

}  // namespace syncts
