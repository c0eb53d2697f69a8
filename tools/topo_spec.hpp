#pragma once

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/scaled.hpp"
#include "graph/generators.hpp"

/// Shared command-line topology specs for the syncts tools:
///   star:<n> | ring:<n> | path:<n> | complete:<n> | tree:<n>:<arity> |
///   cs:<servers>:<clients> | grid:<w>:<h> | triangles:<t> |
///   gnp:<n>:<p%>:<seed> | fig2b | fig4

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

inline std::size_t parse_count(const std::string& token) {
    return static_cast<std::size_t>(
        std::strtoull(token.c_str(), nullptr, 10));
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

inline const char* spec_help() {
    return "star:<n> ring:<n> path:<n> complete:<n> tree:<n>:<k> cs:<s>:<c> "
           "grid:<w>:<h> triangles:<t> (alias tri<t>) gnp:<n>:<p%>:<seed> "
           "fig2b fig4";
}

}  // namespace syncts::tools
