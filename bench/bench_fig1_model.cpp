// Experiment FIG1 — the paper's running example (Fig. 1).
//
// Reproduces the 4-process synchronous computation and checks every order
// fact the paper states about it: m1 ‖ m2, m1 ▷ m3, m2 ↦ m6, m3 ↦ m5, and
// a synchronous chain of size 4 from m1 to m5. Prints the computation, the
// full order matrix from ground truth, and the same matrix as recovered
// from the online algorithm's timestamps.

#include <cstdio>

#include "core/sync_system.hpp"
#include "core/timestamped_trace.hpp"
#include "trace/generator.hpp"
#include "trace/ground_truth.hpp"

using namespace syncts;

namespace {

char order_char(const Poset& p, std::size_t a, std::size_t b) {
    if (a == b) return '=';
    if (p.less(a, b)) return '<';
    if (p.less(b, a)) return '>';
    return '|';
}

char stamp_order_char(const TimestampedTrace& t, MessageId a, MessageId b) {
    if (a == b) return '=';
    if (t.precedes(a, b)) return '<';
    if (t.precedes(b, a)) return '>';
    return '|';
}

}  // namespace

int main() {
    std::printf("== FIG1: the paper's running example ==\n\n");
    const SyncComputation c = paper_fig1_computation();
    std::printf("%s\n", c.to_string().c_str());

    const Poset truth = message_poset(c);
    const SyncSystem system(c.topology());
    const TimestampedTrace trace = system.analyze(c);

    std::printf("timestamp width d = %zu (FM baseline would use N = %zu)\n\n",
                system.width(), system.num_processes());

    std::printf("order matrix (ground truth | from timestamps):\n      ");
    for (MessageId m = 0; m < c.num_messages(); ++m) {
        std::printf("  m%u", m + 1);
    }
    std::printf("\n");
    bool all_match = true;
    for (MessageId a = 0; a < c.num_messages(); ++a) {
        std::printf("  m%u  ", a + 1);
        for (MessageId b = 0; b < c.num_messages(); ++b) {
            const char t = order_char(truth, a, b);
            const char s = stamp_order_char(trace, a, b);
            if (t != s) all_match = false;
            std::printf(" %c|%c", t, s);
        }
        std::printf("\n");
    }

    std::printf("\npaper facts:\n");
    std::printf("  m1 || m2            : %s\n",
                truth.incomparable(0, 1) ? "ok" : "FAIL");
    std::printf("  m1 -> m3 (direct)   : %s\n",
                truth.less(0, 2) ? "ok" : "FAIL");
    std::printf("  m2 |-> m6           : %s\n",
                truth.less(1, 5) ? "ok" : "FAIL");
    std::printf("  m3 |-> m5           : %s\n",
                truth.less(2, 4) ? "ok" : "FAIL");
    const bool chain =
        truth.less(0, 2) && truth.less(2, 3) && truth.less(3, 4);
    std::printf("  chain m1->m3->m4->m5 (size 4): %s\n", chain ? "ok" : "FAIL");
    std::printf("  timestamps encode poset exactly: %s (%zu mismatches)\n",
                trace.verify_against_ground_truth() == 0 ? "ok" : "FAIL",
                trace.verify_against_ground_truth());
    std::printf("  matrices agree: %s\n", all_match ? "ok" : "FAIL");

    std::printf("\ntimestamps:\n%s", trace.to_string().c_str());
    return 0;
}
