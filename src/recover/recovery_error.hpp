#pragma once

#include <stdexcept>
#include <string>

#include "common/codec.hpp"

/// \file recovery_error.hpp
/// Typed failure for damaged or inconsistent durable recovery state
/// (snapshots and write-ahead logs; docs/RECOVERY.md).

namespace syncts {

/// Malformed snapshot or WAL input. Derives from std::runtime_error —
/// unlike wire damage (WireError, an input-validation failure the
/// protocol retransmits around), broken durable state is an environment
/// fault the caller must surface, not retry.
class RecoveryError : public std::runtime_error {
public:
    enum class Kind {
        truncated,            ///< input ended mid-value
        bad_magic,            ///< not a snapshot / WAL record at all
        unsupported_version,  ///< format from a future version
        checksum_mismatch,    ///< trailer does not match the payload
        malformed,            ///< fields decode but are inconsistent
        log_gap,              ///< WAL is missing records the snapshot needs
    };

    RecoveryError(Kind kind, const std::string& what)
        : std::runtime_error(what), kind_(kind) {}

    Kind kind() const noexcept { return kind_; }

private:
    Kind kind_;
};

/// The codec fail function of the WAL and snapshot decoders: a value or
/// length that runs past the input is `truncated` (an over-long varint
/// too), leftover bytes or an out-of-range field `malformed`.
[[noreturn]] inline void throw_recovery_error(codec::Fault fault,
                                              const char* what) {
    using Kind = RecoveryError::Kind;
    Kind kind = Kind::truncated;
    switch (fault) {
        case codec::Fault::truncated:
        case codec::Fault::overlong_varint:
        case codec::Fault::count: break;
        case codec::Fault::trailing:
        case codec::Fault::malformed: kind = Kind::malformed; break;
        case codec::Fault::checksum: kind = Kind::checksum_mismatch; break;
    }
    throw RecoveryError(kind, what);
}

/// A codec reader whose failures raise RecoveryError.
using RecoveryReader = codec::Reader<decltype(&throw_recovery_error)>;

}  // namespace syncts
