#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/scaled.hpp"
#include "graph/generators.hpp"

/// Shared command-line parsing for the syncts tools: topology specs
///   star:<n> | ring:<n> | path:<n> | complete:<n> | tree:<n>:<arity> |
///   cs:<servers>:<clients> | grid:<w>:<h> | triangles:<t> |
///   gnp:<n>:<p%>:<seed> | fig2b | fig4
/// and the strict flag values (counts, thread counts, probabilities, LO:HI
/// ranges).

namespace syncts::tools {

inline std::vector<std::string> split(const std::string& text, char sep) {
    std::vector<std::string> parts;
    std::size_t start = 0;
    for (;;) {
        const std::size_t pos = text.find(sep, start);
        parts.push_back(text.substr(start, pos - start));
        if (pos == std::string::npos) return parts;
        start = pos + 1;
    }
}

/// Builds the graph a spec names. A malformed spec — an unknown kind, the
/// wrong number of fields, a field that is not a count, or a count the
/// generator rejects (ring:2) — prints `bad topology spec '<spec>':
/// <reason>` and exits 2.
inline Graph build_topology(const std::string& spec) {
    const auto reject = [&](const std::string& reason) {
        std::fprintf(stderr, "bad topology spec '%s': %s\n", spec.c_str(),
                     reason.c_str());
        std::exit(2);
    };
    std::vector<std::string> fields = split(spec, ':');
    std::string kind = fields.front();
    fields.erase(fields.begin());
    // tri<k> — compact alias for triangles:<k> (e.g. the CI smoke job's
    // `tri3`: nine processes in three disjoint triangles).
    if (kind.size() > 3 && kind.compare(0, 3, "tri") == 0 &&
        kind.find_first_not_of("0123456789", 3) == std::string::npos) {
        if (!fields.empty()) reject("'" + kind + "' takes no fields");
        fields.push_back(kind.substr(3));
        kind = "triangles";
    }

    struct Kind {
        std::string_view name;
        std::size_t fields;
    };
    static constexpr Kind kKinds[] = {
        {"star", 1}, {"ring", 1},  {"path", 1}, {"complete", 1},
        {"tree", 2}, {"cs", 2},    {"grid", 2}, {"triangles", 1},
        {"gnp", 3},  {"fig2b", 0}, {"fig4", 0}};
    const Kind* known = nullptr;
    for (const Kind& k : kKinds) {
        if (k.name == kind) known = &k;
    }
    if (known == nullptr) reject("unknown kind '" + kind + "'");
    if (fields.size() != known->fields) {
        reject("'" + kind + "' takes " + std::to_string(known->fields) +
               " field(s), got " + std::to_string(fields.size()));
    }
    std::vector<std::size_t> n;
    for (const std::string& field : fields) {
        const auto value = common::parse_scaled_count(field);
        if (!value) reject("'" + field + "' is not a count");
        n.push_back(static_cast<std::size_t>(*value));
    }

    try {
        if (kind == "star") return topology::star(n[0]);
        if (kind == "ring") return topology::ring(n[0]);
        if (kind == "path") return topology::path(n[0]);
        if (kind == "complete") return topology::complete(n[0]);
        if (kind == "tree") return topology::kary_tree(n[0], n[1]);
        if (kind == "cs") return topology::client_server(n[0], n[1]);
        if (kind == "grid") return topology::grid(n[0], n[1]);
        if (kind == "triangles") return topology::disjoint_triangles(n[0]);
        if (kind == "gnp") {
            Rng rng(n[2]);
            return topology::random_gnp(
                n[0], static_cast<double>(n[1]) / 100.0, rng);
        }
        if (kind == "fig2b") return topology::paper_fig2b();
        return topology::paper_fig4_tree();
    } catch (const std::invalid_argument& error) {
        // A generator precondition (SYNCTS_REQUIRE): report its reason,
        // the text after the " — " that follows the failed expression.
        const std::string what = error.what();
        const std::string_view dash = " — ";
        const std::size_t at = what.rfind(dash);
        reject(at == std::string::npos ? what : what.substr(at + dash.size()));
    }
    return Graph{};
}

/// Rejects a flag value the way every tool does: prints `bad value
/// '<value>' for <flag>: <why>` and exits 2.
[[noreturn]] inline void reject_value(std::string_view flag,
                                      std::string_view value,
                                      std::string_view why) {
    std::fprintf(stderr, "bad value '%.*s' for %.*s: %.*s\n",
                 static_cast<int>(value.size()), value.data(),
                 static_cast<int>(flag.size()), flag.data(),
                 static_cast<int>(why.size()), why.data());
    std::exit(2);
}

/// A count: decimal digits with an optional k (×1e3) or m (×1e6) suffix,
/// overflow-checked (common/scaled.hpp), so "2k" is 2000 and "abc" or
/// "2x" is rejected rather than read as 0 or 2.
inline std::uint64_t parse_count(std::string_view flag,
                                 std::string_view text) {
    const std::optional<std::uint64_t> value =
        common::parse_scaled_count(text);
    if (!value.has_value()) reject_value(flag, text, "not a count");
    return *value;
}

/// A count of at least 1.
inline std::uint64_t parse_positive(std::string_view flag,
                                    std::string_view text) {
    const std::uint64_t value = parse_count(flag, text);
    if (value == 0) reject_value(flag, text, "must be at least 1");
    return value;
}

/// Most threads a tool's analysis pool may have: a typo such as
/// "--threads 100k" is rejected instead of asking the host for that many.
inline constexpr std::uint64_t kMaxThreads = 256;

/// Most events a trace ring may hold. Each ring sizes its 48-byte events
/// up front, so this bounds one ring at 192 MB.
inline constexpr std::uint64_t kMaxTraceCapacity = 4'000'000;

/// A count in [1, max], such as a thread count up to kMaxThreads.
inline std::uint64_t parse_bounded(std::string_view flag,
                                   std::string_view text, std::uint64_t max) {
    const std::uint64_t value = parse_positive(flag, text);
    if (value > max) {
        reject_value(flag, text, "must be at most " + std::to_string(max));
    }
    return value;
}

/// A probability: a number that parses whole and lies in [0, 1].
inline double parse_probability(std::string_view flag,
                                const std::string& text) {
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size()) {
        reject_value(flag, text, "not a number");
    }
    if (!(value >= 0.0 && value <= 1.0)) {
        reject_value(flag, text, "not a probability in [0, 1]");
    }
    return value;
}

/// A tick range LO:HI of counts with 1 <= LO <= HI.
inline std::pair<std::uint64_t, std::uint64_t> parse_range(
    std::string_view flag, std::string_view text) {
    const std::size_t colon = text.find(':');
    if (colon == std::string_view::npos) reject_value(flag, text, "not LO:HI");
    const auto lo = common::parse_scaled_count(text.substr(0, colon));
    const auto hi = common::parse_scaled_count(text.substr(colon + 1));
    if (!lo.has_value() || !hi.has_value()) {
        reject_value(flag, text, "LO and HI must be counts");
    }
    if (*lo < 1 || *lo > *hi) reject_value(flag, text, "needs 1 <= LO <= HI");
    return {*lo, *hi};
}

inline const char* spec_help() {
    return "star:<n> ring:<n> path:<n> complete:<n> tree:<n>:<k> cs:<s>:<c> "
           "grid:<w>:<h> triangles:<t> (alias tri<t>) gnp:<n>:<p%>:<seed> "
           "fig2b fig4";
}

}  // namespace syncts::tools
