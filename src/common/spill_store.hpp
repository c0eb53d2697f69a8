#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"

/// \file spill_store.hpp
/// Checksummed spill files for out-of-core analysis (docs/STREAMING.md).
///
/// The streaming closure retires completed chunk of bitset rows below the
/// frontier to disk and rehydrates them on demand. `SpillStore` owns that
/// directory: each chunk becomes one self-validating file
///
///   "SYSP" | version u8 | chunk id u64le | payload length u64le |
///   payload bytes | CRC32C trailer over everything before it
///
/// encoded through the codec every binary format shares (codec.hpp, which
/// holds the trailer rule and the u64le fields). Its encode buffer is
/// reused across put() calls, so a steady-state spill loop performs no
/// per-chunk heap allocation beyond the file I/O itself. Files the store wrote are unlinked when the
/// store is destroyed.
///
/// Corruption is a typed `SpillError`, never silent: a truncated file, a
/// flipped bit, a wrong chunk id, or a hostile length field all throw.

namespace syncts {

inline constexpr std::uint8_t kSpillMagic[4] = {'S', 'Y', 'S', 'P'};
inline constexpr std::uint8_t kSpillVersion = 1;

/// Header bytes before the payload: magic + version + id + length.
inline constexpr std::size_t kSpillHeaderBytes = 4 + 1 + 8 + 8;

/// Typed error for spill-file corruption or I/O failure.
class SpillError : public std::runtime_error {
public:
    enum class Kind { io, format, checksum };

    SpillError(Kind kind, std::uint64_t chunk_id, const std::string& what)
        : std::runtime_error("spill chunk " + std::to_string(chunk_id) +
                             ": " + what),
          kind_(kind),
          chunk_id_(chunk_id) {}

    Kind kind() const noexcept { return kind_; }
    std::uint64_t chunk_id() const noexcept { return chunk_id_; }

private:
    Kind kind_;
    std::uint64_t chunk_id_;
};

class SpillStore {
public:
    /// Opens (creating if needed) `directory` as the spill root.
    /// Throws SpillError{io} if the directory cannot be created.
    explicit SpillStore(std::string directory);

    ~SpillStore();

    SpillStore(const SpillStore&) = delete;
    SpillStore& operator=(const SpillStore&) = delete;

    /// Writes chunk `id` (overwriting any previous payload for the id).
    void put(std::uint64_t id, std::span<const std::uint8_t> payload);

    /// Reads and validates chunk `id` into `out` (replacing its
    /// contents; capacity is reused across calls by the caller).
    /// Throws SpillError on a missing, truncated, or corrupt file.
    void get(std::uint64_t id, std::vector<std::uint8_t>& out);

    bool contains(std::uint64_t id) const;

    /// Unlinks chunk `id` (no-op when absent).
    void remove(std::uint64_t id);

    const std::string& directory() const noexcept { return directory_; }
    std::size_t chunk_count() const noexcept { return sizes_.size(); }
    std::uint64_t bytes_written() const noexcept { return bytes_written_; }
    std::uint64_t bytes_read() const noexcept { return bytes_read_; }

    /// Registers spill_* metrics under `prefix` (docs/OBSERVABILITY.md):
    ///   <prefix>_writes / _reads     chunk put / get counts
    ///   <prefix>_bytes_written / _bytes_read   file payload traffic
    ///   <prefix>_chunks              live chunk files (gauge)
    void attach_metrics(obs::MetricsRegistry& registry,
                        const std::string& prefix = "spill");

    /// Pure codec halves, separated from the filesystem so the format is
    /// fuzzable in-memory (tests/fuzz_parsers_test.cpp). encode_chunk
    /// appends the framed bytes to `out`; decode_chunk validates a full
    /// frame and returns a span over the payload inside `bytes`.
    static void encode_chunk(std::uint64_t id,
                             std::span<const std::uint8_t> payload,
                             std::vector<std::uint8_t>& out);
    static std::span<const std::uint8_t> decode_chunk(
        std::span<const std::uint8_t> bytes, std::uint64_t expected_id);

private:
    std::string path_for(std::uint64_t id) const;

    std::string directory_;
    std::unordered_map<std::uint64_t, std::uint64_t> sizes_;
    std::vector<std::uint8_t> encode_buffer_;
    std::vector<std::uint8_t> read_buffer_;
    std::uint64_t bytes_written_ = 0;
    std::uint64_t bytes_read_ = 0;

    obs::Counter* writes_metric_ = nullptr;
    obs::Counter* reads_metric_ = nullptr;
    obs::Counter* bytes_written_metric_ = nullptr;
    obs::Counter* bytes_read_metric_ = nullptr;
    obs::Gauge* chunks_metric_ = nullptr;
};

}  // namespace syncts
