#include "common/region.hpp"

#include <bit>

namespace syncts {

// ---- SlabPool --------------------------------------------------------

std::size_t SlabPool::size_class(std::size_t words) noexcept {
    return static_cast<std::size_t>(
        std::bit_width(std::bit_ceil(words < 1 ? std::size_t{1} : words)) -
        1);
}

Slab SlabPool::acquire(std::size_t min_words) {
    const std::size_t words =
        std::bit_ceil(min_words < 1 ? std::size_t{1} : min_words);
    const std::size_t cls = size_class(words);
    ++acquires_;
    if (metric_acquires_ != nullptr) metric_acquires_->inc();
    std::vector<Slab>& bucket = buckets_[cls];
    Slab slab;
    if (!bucket.empty()) {
        slab = std::move(bucket.back());
        bucket.pop_back();
        cached_bytes_ -= slab.capacity_words * sizeof(std::uint64_t);
        ++reuses_;
        if (metric_reuses_ != nullptr) metric_reuses_->inc();
    } else {
        slab = Slab{std::make_unique<std::uint64_t[]>(words), words};
    }
    leased_bytes_ += slab.capacity_words * sizeof(std::uint64_t);
    note_footprint();
    return slab;
}

void SlabPool::release(Slab&& slab) noexcept {
    if (!slab) return;
    const std::size_t bytes = slab.capacity_words * sizeof(std::uint64_t);
    if (leased_bytes_ >= bytes) leased_bytes_ -= bytes;
    cached_bytes_ += bytes;
    ++releases_;
    buckets_[size_class(slab.capacity_words)].push_back(std::move(slab));
    if (metric_releases_ != nullptr) metric_releases_->inc();
    note_footprint();
}

void SlabPool::trim() noexcept {
    for (auto& bucket : buckets_) bucket.clear();
    cached_bytes_ = 0;
    if (metric_cached_bytes_ != nullptr) metric_cached_bytes_->set(0);
}

void SlabPool::note_footprint() noexcept {
    const std::size_t footprint = cached_bytes_ + leased_bytes_;
    if (footprint > peak_bytes_) peak_bytes_ = footprint;
    if (metric_cached_bytes_ != nullptr) {
        metric_cached_bytes_->set(static_cast<std::int64_t>(cached_bytes_));
        metric_leased_bytes_->set(static_cast<std::int64_t>(leased_bytes_));
        metric_peak_bytes_->set_max(static_cast<std::int64_t>(peak_bytes_));
    }
}

void SlabPool::attach_metrics(obs::MetricsRegistry& registry,
                              std::string_view prefix) {
    const std::string p(prefix);
    metric_acquires_ = &registry.counter(p + "_acquires");
    metric_reuses_ = &registry.counter(p + "_reuses");
    metric_releases_ = &registry.counter(p + "_releases");
    metric_cached_bytes_ = &registry.gauge(p + "_cached_bytes");
    metric_leased_bytes_ = &registry.gauge(p + "_leased_bytes");
    metric_peak_bytes_ = &registry.gauge(p + "_peak_bytes");
    metric_acquires_->inc(acquires_);
    metric_reuses_->inc(reuses_);
    metric_releases_->inc(releases_);
    note_footprint();
}

}  // namespace syncts
