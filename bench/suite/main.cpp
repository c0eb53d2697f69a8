// syncts_bench — the end-to-end benchmark of the rendezvous stack and the
// streaming analysis (README.md in this directory has the metric catalog).
//
//     syncts_bench --workload <name> --seed <S> [--seconds <T>] [--trace 0|1]
//     syncts_bench --workload <name> --seed <S> --smoke
//
// --trace 0 is the timed pass (end-to-end metrics, observability off);
// --trace 1 the traced pass (per-layer metrics). --smoke runs both passes
// with two rounds each and every check on.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage: syncts_bench --workload <rdv_uniform_classic|"
                 "rdv_bursty_batched|rdv_hostile|analysis_stream> --seed <n> "
                 "[--seconds <s>] [--trace 0|1] [--smoke]\n");
    return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
    if (*text < '0' || *text > '9') return false;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0') return false;
    out = v;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace syncts::bench;
#if defined(__GLIBC__)
    // Keep freed memory in the heap instead of returning it to the OS:
    // otherwise every analysis round faults ~3,000 fresh pages back in
    // (about 4% of its time), and page-fault cost follows host load far
    // more than computation does.
    mallopt(M_MMAP_THRESHOLD, 256 << 20);
    mallopt(M_TRIM_THRESHOLD, 512 << 20);
#endif
    RunConfig config;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        const bool has_value = i + 1 < argc;
        std::uint64_t value = 0;
        if (arg == "--smoke") {
            config.smoke = true;
        } else if (arg == "--workload" && has_value) {
            config.workload = argv[++i];
        } else if (arg == "--seed" && has_value && parse_u64(argv[i + 1], value)) {
            config.seed = value;
            ++i;
        } else if (arg == "--seconds" && has_value &&
                   parse_u64(argv[i + 1], value) && value > 0) {
            config.seconds = static_cast<double>(value);
            ++i;
        } else if (arg == "--trace" && has_value &&
                   parse_u64(argv[i + 1], value) && value <= 1) {
            config.trace = value == 1;
            ++i;
        } else {
            return usage();
        }
    }
    const bool rdv = config.workload == "rdv_uniform_classic" ||
                     config.workload == "rdv_bursty_batched" ||
                     config.workload == "rdv_hostile";
    if (!rdv && config.workload != "analysis_stream") return usage();

    const auto run_pass = [&](RunConfig pass) {
        return rdv ? run_rdv_workload(pass) : run_analysis_workload(pass);
    };
    try {
        if (!config.smoke) return run_pass(config);
        RunConfig timed = config;
        timed.trace = false;
        RunConfig traced = config;
        traced.trace = true;
        const int timed_code = run_pass(timed);
        const int traced_code = run_pass(traced);
        return timed_code != 0 ? timed_code : traced_code;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "syncts_bench: %s\n", e.what());
        return 1;
    }
}
