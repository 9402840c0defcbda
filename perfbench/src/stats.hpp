// The benchmark's own arithmetic: order statistics, the "ten samples beyond
// the percentile" reporting rule, the detection F1 scorer, and open-loop
// due-time latency. Header-only so the runner and its self-test share one
// definition (selftest.cpp checks every function here).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// 1-based nearest rank of the `percent`-th percentile of `n` samples:
/// ceil(percent * n / 100), in integer arithmetic so 95% of 200 is exactly
/// rank 190.
inline std::size_t percentile_rank(std::size_t n, unsigned percent) {
  return (static_cast<std::size_t>(percent) * n + 99) / 100;
}

/// Samples strictly beyond the nearest-rank `percent`-th percentile.
inline std::size_t samples_beyond(std::size_t n, unsigned percent) {
  const std::size_t rank = percentile_rank(n, percent);
  return n > rank ? n - rank : 0;
}

/// The reporting rule: a percentile may be reported only when at least ten
/// samples lie beyond it (p95 therefore needs n >= 200).
inline bool percentile_supported(std::size_t n, unsigned percent) {
  return n > 0 && samples_beyond(n, percent) >= 10;
}

/// Nearest-rank percentile (0 when empty). Callers gate on
/// percentile_supported before reporting it.
inline double percentile(std::vector<double> values, unsigned percent) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank =
      std::clamp<std::size_t>(percentile_rank(values.size(), percent), 1,
                              values.size());
  return values[rank - 1];
}

/// Detection quality of a flagged set against the ground truth.
struct Detection {
  std::size_t flagged = 0;
  std::size_t truth = 0;
  std::size_t true_positives = 0;
  double precision = 0.0;
  double recall = 0.0;
  /// Harmonic mean of precision and recall; 0 when nothing true was found.
  double f1 = 0.0;
};

/// Scores `flagged` against `truth` (both sets of ids; duplicates ignored).
inline Detection score_detection(const std::vector<std::size_t>& flagged,
                                 const std::vector<std::size_t>& truth) {
  const std::set<std::size_t> f(flagged.begin(), flagged.end());
  const std::set<std::size_t> t(truth.begin(), truth.end());
  Detection d;
  d.flagged = f.size();
  d.truth = t.size();
  for (std::size_t id : f) d.true_positives += t.count(id);
  if (d.true_positives == 0) return d;
  d.precision = static_cast<double>(d.true_positives) /
                static_cast<double>(d.flagged);
  d.recall =
      static_cast<double>(d.true_positives) / static_cast<double>(d.truth);
  d.f1 = 2.0 * d.precision * d.recall / (d.precision + d.recall);
  return d;
}

/// Open-loop latency: each request is timed from when it was DUE, not from
/// when the generator got round to sending it, so a stalled consumer
/// charges its wait to every request queued behind it. Element k is
/// done[k] - due[k]; both vectors hold times on one clock.
inline std::vector<double> due_latencies(const std::vector<double>& due,
                                         const std::vector<double>& done) {
  std::vector<double> out;
  const std::size_t n = std::min(due.size(), done.size());
  out.reserve(n);
  for (std::size_t k = 0; k < n; ++k) out.push_back(done[k] - due[k]);
  return out;
}

/// Due times of an open loop at `rate` per second starting at `t0`: request
/// k is due at t0 + k / rate, whatever the consumer's progress.
inline std::vector<double> due_schedule(double t0, double rate,
                                        std::size_t count) {
  std::vector<double> due(count);
  for (std::size_t k = 0; k < count; ++k) {
    due[k] = t0 + static_cast<double>(k) / rate;
  }
  return due;
}

/// 64-bit FNV-1a, the digest the runner folds snapshot fields into.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ ^= p[i];
      hash_ *= 0x100000001b3ull;
    }
  }
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(T));
  }
  template <typename T>
  void values(const std::vector<T>& v) {
    value(v.size());
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(T));
  }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace perfbench
