#include "common/dyn_bitset.hpp"

namespace syncts {

DynBitset& DynBitset::operator|=(const DynBitset& other) noexcept {
    const std::size_t n = words_.size() < other.words_.size()
                              ? words_.size()
                              : other.words_.size();
    for (std::size_t i = 0; i < n; ++i) words_[i] |= other.words_[i];
    return *this;
}

DynBitset& DynBitset::operator&=(const DynBitset& other) noexcept {
    const std::size_t n = words_.size() < other.words_.size()
                              ? words_.size()
                              : other.words_.size();
    for (std::size_t i = 0; i < n; ++i) words_[i] &= other.words_[i];
    for (std::size_t i = n; i < words_.size(); ++i) words_[i] = 0;
    return *this;
}

std::size_t DynBitset::or_with(const DynBitset& other, std::size_t word_begin,
                               std::size_t word_end) noexcept {
    std::size_t end = words_.size() < other.words_.size()
                          ? words_.size()
                          : other.words_.size();
    if (word_end < end) end = word_end;
    if (word_begin >= end) return 0;
    for (std::size_t i = word_begin; i < end; ++i) {
        words_[i] |= other.words_[i];
    }
    return end - word_begin;
}

std::size_t DynBitset::count_and(const DynBitset& other) const noexcept {
    const std::size_t n = words_.size() < other.words_.size()
                              ? words_.size()
                              : other.words_.size();
    std::size_t total = 0;
    for (std::size_t i = 0; i < n; ++i) {
        total += popcount64(words_[i] & other.words_[i]);
    }
    return total;
}

bool DynBitset::is_subset_of(const DynBitset& other) const noexcept {
    if (other.words_.size() < words_.size()) {
        for (std::size_t i = other.words_.size(); i < words_.size(); ++i) {
            if (words_[i] != 0) return false;
        }
    }
    const std::size_t n = words_.size() < other.words_.size()
                              ? words_.size()
                              : other.words_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if ((words_[i] & ~other.words_[i]) != 0) return false;
    }
    return true;
}

bool DynBitset::intersects(const DynBitset& other) const noexcept {
    const std::size_t n = words_.size() < other.words_.size()
                              ? words_.size()
                              : other.words_.size();
    for (std::size_t i = 0; i < n; ++i) {
        if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
}

std::size_t DynBitset::count() const noexcept {
    std::size_t total = 0;
    for (const auto w : words_) {
        total += popcount64(w);
    }
    return total;
}

std::size_t DynBitset::find_next(std::size_t from) const noexcept {
    if (from >= size_) return size_;
    std::size_t w = from / kBits;
    std::uint64_t bits = words_[w] & (~std::uint64_t{0} << (from % kBits));
    for (;;) {
        if (bits != 0) {
            const std::size_t pos =
                w * kBits + static_cast<unsigned>(__builtin_ctzll(bits));
            return pos < size_ ? pos : size_;
        }
        if (++w >= words_.size()) return size_;
        bits = words_[w];
    }
}

}  // namespace syncts
