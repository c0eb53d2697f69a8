#include "common/spill_store.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "common/check.hpp"
#include "common/codec.hpp"

namespace syncts {

void SpillStore::encode_chunk(std::uint64_t id,
                              std::span<const std::uint8_t> payload,
                              std::vector<std::uint8_t>& out) {
    codec::Writer writer(
        out, kSpillHeaderBytes + payload.size() + codec::kTrailerBytes);
    writer.bytes(kSpillMagic);
    writer.byte(kSpillVersion);
    writer.le64(id);
    writer.le64(payload.size());
    writer.bytes(payload);
    writer.seal();
}

std::span<const std::uint8_t> SpillStore::decode_chunk(
    std::span<const std::uint8_t> bytes, std::uint64_t expected_id) {
    const auto format_error = [&](const std::string& what) {
        return SpillError(SpillError::Kind::format, expected_id, what);
    };
    if (bytes.size() < kSpillHeaderBytes + codec::kTrailerBytes) {
        throw format_error("truncated frame (" + std::to_string(bytes.size()) +
                           " bytes)");
    }
    codec::Reader in(bytes, [&](codec::Fault fault, const char* what) {
        if (fault != codec::Fault::checksum) throw format_error(what);
        throw SpillError(SpillError::Kind::checksum, expected_id, what);
    });
    if (!std::ranges::equal(in.bytes(sizeof(kSpillMagic)), kSpillMagic)) {
        throw format_error("bad magic");
    }
    const std::uint8_t version = in.u8();
    if (version != kSpillVersion) {
        throw format_error("unsupported version " + std::to_string(version));
    }
    const std::uint64_t id = in.le64();
    if (id != expected_id) {
        throw format_error("frame carries id " + std::to_string(id));
    }
    const std::uint64_t payload_len = in.le64();
    if (payload_len > bytes.size() ||
        kSpillHeaderBytes + payload_len + codec::kTrailerBytes !=
            bytes.size()) {
        throw format_error("length field " + std::to_string(payload_len) +
                           " does not match frame of " +
                           std::to_string(bytes.size()) + " bytes");
    }
    in.unseal();
    return in.bytes(static_cast<std::size_t>(payload_len));
}

SpillStore::SpillStore(std::string directory)
    : directory_(std::move(directory)) {
    SYNCTS_REQUIRE(!directory_.empty(), "spill directory must be non-empty");
    std::error_code ec;
    std::filesystem::create_directories(directory_, ec);
    if (ec) {
        throw SpillError(SpillError::Kind::io, 0,
                         "cannot create directory " + directory_ + ": " +
                             ec.message());
    }
}

SpillStore::~SpillStore() {
    for (const auto& [id, size] : sizes_) {
        (void)size;
        std::error_code ec;
        std::filesystem::remove(path_for(id), ec);
    }
}

std::string SpillStore::path_for(std::uint64_t id) const {
    return directory_ + "/chunk-" + std::to_string(id) + ".spill";
}

void SpillStore::put(std::uint64_t id, std::span<const std::uint8_t> payload) {
    encode_buffer_.clear();
    encode_chunk(id, payload, encode_buffer_);
    const std::string path = path_for(id);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        throw SpillError(SpillError::Kind::io, id, "cannot open " + path);
    }
    const std::size_t written =
        std::fwrite(encode_buffer_.data(), 1, encode_buffer_.size(), f);
    const bool closed_ok = std::fclose(f) == 0;
    if (written != encode_buffer_.size() || !closed_ok) {
        throw SpillError(SpillError::Kind::io, id, "short write to " + path);
    }
    sizes_[id] = encode_buffer_.size();
    bytes_written_ += payload.size();
    if (writes_metric_ != nullptr) writes_metric_->inc();
    if (bytes_written_metric_ != nullptr) {
        bytes_written_metric_->inc(payload.size());
    }
    if (chunks_metric_ != nullptr) {
        chunks_metric_->set(static_cast<std::int64_t>(sizes_.size()));
    }
}

void SpillStore::get(std::uint64_t id, std::vector<std::uint8_t>& out) {
    const auto it = sizes_.find(id);
    if (it == sizes_.end()) {
        throw SpillError(SpillError::Kind::io, id, "chunk was never written");
    }
    const std::string path = path_for(id);
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        throw SpillError(SpillError::Kind::io, id, "cannot open " + path);
    }
    read_buffer_.resize(it->second);
    const std::size_t got =
        std::fread(read_buffer_.data(), 1, read_buffer_.size(), f);
    // Probe one extra byte so a file that grew behind our back is a typed
    // format error, not a silently ignored tail.
    const bool at_eof = std::fgetc(f) == EOF;
    std::fclose(f);
    if (got != read_buffer_.size() || !at_eof) {
        throw SpillError(SpillError::Kind::format, id,
                         "file size does not match recorded frame size");
    }
    const std::span<const std::uint8_t> payload =
        decode_chunk(read_buffer_, id);
    out.assign(payload.begin(), payload.end());
    bytes_read_ += payload.size();
    if (reads_metric_ != nullptr) reads_metric_->inc();
    if (bytes_read_metric_ != nullptr) bytes_read_metric_->inc(payload.size());
}

bool SpillStore::contains(std::uint64_t id) const {
    return sizes_.find(id) != sizes_.end();
}

void SpillStore::remove(std::uint64_t id) {
    const auto it = sizes_.find(id);
    if (it == sizes_.end()) return;
    std::error_code ec;
    std::filesystem::remove(path_for(id), ec);
    sizes_.erase(it);
    if (chunks_metric_ != nullptr) {
        chunks_metric_->set(static_cast<std::int64_t>(sizes_.size()));
    }
}

void SpillStore::attach_metrics(obs::MetricsRegistry& registry,
                                const std::string& prefix) {
    writes_metric_ = &registry.counter(prefix + "_writes");
    reads_metric_ = &registry.counter(prefix + "_reads");
    bytes_written_metric_ = &registry.counter(prefix + "_bytes_written");
    bytes_read_metric_ = &registry.counter(prefix + "_bytes_read");
    chunks_metric_ = &registry.gauge(prefix + "_chunks");
    chunks_metric_->set(static_cast<std::int64_t>(sizes_.size()));
}

}  // namespace syncts
