// Self-test of the benchmark's own arithmetic (stats.hpp): the percentile
// reporting rule, the F1 scorer, and open-loop due-time latency when the
// consumer stalls. run.py runs it before every measurement; exit status 1
// when any check fails.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

void percentile_rule() {
  using namespace perfbench;
  expect(percentile_rank(200, 95) == 190, "rank of p95 in 200 is 190");
  expect(samples_beyond(200, 95) == 10, "200 samples leave 10 beyond p95");
  expect(percentile_supported(200, 95), "p95 reportable from 200 samples");
  expect(!percentile_supported(199, 95), "p95 not reportable from 199");
  expect(percentile_supported(20, 50), "p50 reportable from 20 samples");
  expect(!percentile_supported(19, 50), "p50 not reportable from 19");
  expect(percentile_supported(1000, 99), "p99 reportable from 1000");
  expect(!percentile_supported(999, 99), "p99 not reportable from 999");
  expect(!percentile_supported(0, 50), "nothing reportable from 0 samples");

  std::vector<double> values;
  for (int i = 200; i >= 1; --i) values.push_back(i);  // unsorted input
  expect(percentile(values, 95) == 190.0, "nearest-rank p95 of 1..200");
  expect(percentile(values, 100) == 200.0, "p100 is the maximum");
  expect(near(median(values), 100.5), "even-count median averages");
  expect(median({3.0, 1.0, 2.0}) == 2.0, "odd-count median");
  expect(median({}) == 0.0, "empty median is 0");
}

void f1_scorer() {
  using namespace perfbench;
  const Detection perfect = score_detection({1, 2, 3}, {3, 2, 1});
  expect(near(perfect.f1, 1.0), "identical sets score F1 = 1");
  const Detection none = score_detection({4, 5}, {1, 2});
  expect(none.f1 == 0.0 && none.true_positives == 0, "disjoint sets score 0");
  const Detection empty = score_detection({}, {1, 2});
  expect(empty.f1 == 0.0 && empty.recall == 0.0, "flagging nothing scores 0");
  // 2 of 4 flagged are true; 2 of 5 true were found.
  const Detection half = score_detection({1, 2, 8, 9}, {1, 2, 3, 4, 5});
  expect(near(half.precision, 0.5) && near(half.recall, 0.4),
         "precision 2/4 and recall 2/5");
  expect(near(half.f1, 2.0 * 2.0 / (4.0 + 5.0)),
         "F1 = 2TP / (flagged + truth)");
  const Detection dup = score_detection({1, 1, 1}, {1, 2});
  expect(dup.flagged == 1 && near(dup.precision, 1.0),
         "duplicate flags count once");
}

void stalled_consumer() {
  using namespace perfbench;
  // 10 requests/s, 1 ms of service each, and the consumer stalls for 1 s
  // while serving request 3. The open loop keeps sending on schedule.
  const double rate = 10.0;
  const std::size_t n = 20;
  const std::vector<double> due = due_schedule(5.0, rate, n);
  expect(near(due[0], 5.0) && near(due[10], 6.0), "due schedule t0 + k/rate");
  std::vector<double> done(n);
  double free_at = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double service = k == 3 ? 1.0 : 0.001;
    const double begin = std::max(due[k], free_at);
    done[k] = begin + service;
    free_at = done[k];
  }
  const std::vector<double> latency = due_latencies(due, done);
  expect(near(latency[0], 0.001), "an idle consumer adds only service time");
  expect(near(latency[3], 1.0), "the stalled request waits its stall");
  // Request 4 was due at 5.4 and could only start at 6.3: 0.901 s, not the
  // 1 ms a clock started at the send would show.
  expect(near(latency[4], 0.901), "the stall is charged to queued requests");
  // Requests 4..12 were all due before the consumer recovered at 6.3 + a
  // few ms; each shows the backlog, decreasing by the 0.1 s spacing.
  for (std::size_t k = 5; k <= 12; ++k) {
    expect(latency[k] > 0.0 && latency[k] < latency[k - 1],
           "backlog drains one interval per request");
  }
  expect(near(latency[19], 0.001), "latency recovers once the backlog drained");
  expect(percentile(latency, 95) >= 0.9, "the stall shows in the tail");
}

}  // namespace

int main() {
  percentile_rule();
  f1_scorer();
  stalled_consumer();
  if (failures == 0) std::printf("perfbench selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
