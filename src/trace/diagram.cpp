#include "trace/diagram.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

#include "common/check.hpp"

namespace syncts {

namespace {

struct Column {
    bool is_message = false;
    MessageId message = 0;
    ProcessId internal_process = 0;
};

/// One column per instant, in for_each_instant's order (the trace
/// writers' order).
std::vector<Column> build_columns(const SyncComputation& computation) {
    std::vector<Column> columns;
    for_each_instant(
        computation,
        [&](ProcessId p, InternalId) { columns.push_back({false, 0, p}); },
        [&](const SyncMessage& m) { columns.push_back({true, m.id, 0}); });
    return columns;
}

}  // namespace

std::string to_diagram(const SyncComputation& computation) {
    return to_diagram(computation, {});
}

std::string to_diagram(const SyncComputation& computation,
                       std::span<const VectorTimestamp> message_stamps) {
    SYNCTS_REQUIRE(
        message_stamps.empty() ||
            message_stamps.size() == computation.num_messages(),
        "need zero or one timestamp per message");
    const std::vector<Column> columns = build_columns(computation);

    // Cell width fits the widest label.
    std::size_t label_width = 1;
    for (const Column& column : columns) {
        if (column.is_message) {
            label_width = std::max(
                label_width,
                1 + std::to_string(column.message + 1).size());
        }
    }
    const auto pad = [&](std::string text) {
        while (text.size() < label_width + 1) text.push_back(' ');
        return text;
    };

    std::ostringstream os;
    const std::size_t name_width =
        2 + std::to_string(computation.num_processes()).size();
    for (ProcessId p = 0; p < computation.num_processes(); ++p) {
        std::string name = "P";
        name += std::to_string(p + 1);
        while (name.size() < name_width) name.push_back(' ');
        os << name << "| ";
        for (const Column& column : columns) {
            if (column.is_message) {
                const SyncMessage& m = computation.message(column.message);
                std::string label = ".";
                if (m.involves(p)) {
                    label = "m";
                    label += std::to_string(column.message + 1);
                }
                os << pad(std::move(label));
            } else {
                os << pad(column.internal_process == p ? "i" : ".");
            }
        }
        os << '\n';
    }
    if (!message_stamps.empty()) {
        os << '\n';
        for (MessageId m = 0; m < computation.num_messages(); ++m) {
            os << 'm' << (m + 1) << " = "
               << message_stamps[m].to_string() << '\n';
        }
    }
    return os.str();
}

}  // namespace syncts
