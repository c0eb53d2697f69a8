#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file dyn_bitset.hpp
/// A compact runtime-sized bitset used for transitive-closure rows,
/// reachability sets, and adjacency tests. Supports the bulk operations the
/// poset and trace modules need (or-assign, subset test, popcount, iteration
/// over set bits) which std::vector<bool> does not provide efficiently.

namespace syncts {

/// Set bits in one word, branch-free (SWAR). Every bitset popcount in
/// the library goes through it: the portable build has no popcnt
/// instruction, and there std::popcount and __builtin_popcountll are a
/// libgcc call per word.
inline unsigned popcount64(std::uint64_t x) noexcept {
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<unsigned>((x * 0x0101010101010101ULL) >> 56);
}

class DynBitset {
public:
    DynBitset() = default;

    /// Creates a bitset of `size` bits, all clear.
    explicit DynBitset(std::size_t size)
        : size_(size), words_((size + kBits - 1) / kBits, 0) {}

    std::size_t size() const noexcept { return size_; }
    bool empty() const noexcept { return size_ == 0; }

    bool test(std::size_t pos) const noexcept {
        return (words_[pos / kBits] >> (pos % kBits)) & 1u;
    }

    void set(std::size_t pos) noexcept {
        words_[pos / kBits] |= (std::uint64_t{1} << (pos % kBits));
    }

    void reset(std::size_t pos) noexcept {
        words_[pos / kBits] &= ~(std::uint64_t{1} << (pos % kBits));
    }

    void clear() noexcept {
        for (auto& w : words_) w = 0;
    }

    /// Number of 64-bit words backing the set (ceil(size / 64)).
    std::size_t num_words() const noexcept { return words_.size(); }

    /// Word i, bits [i*64, i*64+64) — the closure kernel's unit of work.
    std::uint64_t word(std::size_t i) const noexcept { return words_[i]; }

    /// words_[i] |= bits. The caller owns bit bookkeeping past size().
    void or_word(std::size_t i, std::uint64_t bits) noexcept {
        words_[i] |= bits;
    }

    /// this |= other over the word range [word_begin, word_end) only —
    /// the blocked row-OR at the heart of the parallel transitive
    /// closure. Returns the number of words touched.
    std::size_t or_with(const DynBitset& other, std::size_t word_begin = 0,
                        std::size_t word_end = SIZE_MAX) noexcept;

    /// popcount(*this & other) without materializing the intersection.
    std::size_t count_and(const DynBitset& other) const noexcept;

    /// Bitwise OR-assign; both operands must have the same size.
    DynBitset& operator|=(const DynBitset& other) noexcept;

    /// Bitwise AND-assign; both operands must have the same size.
    DynBitset& operator&=(const DynBitset& other) noexcept;

    /// True when every bit set here is also set in `other`.
    bool is_subset_of(const DynBitset& other) const noexcept;

    /// True when the two sets share at least one bit.
    bool intersects(const DynBitset& other) const noexcept;

    /// Number of set bits.
    std::size_t count() const noexcept;

    /// Index of the first set bit at or after `from`; size() when none.
    std::size_t find_next(std::size_t from) const noexcept;

    /// Calls fn(index) for every set bit in ascending order.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t w = 0; w < words_.size(); ++w) {
            std::uint64_t bits = words_[w];
            while (bits != 0) {
                const auto bit =
                    static_cast<unsigned>(__builtin_ctzll(bits));
                fn(w * kBits + bit);
                bits &= bits - 1;
            }
        }
    }

    friend bool operator==(const DynBitset& a, const DynBitset& b) noexcept {
        return a.size_ == b.size_ && a.words_ == b.words_;
    }

private:
    static constexpr std::size_t kBits = 64;

    std::size_t size_ = 0;
    std::vector<std::uint64_t> words_;
};

}  // namespace syncts
