// The three benchmark workloads. Each builds its inputs from the seed
// before anything is timed, runs the program under test, checks its
// outputs, and returns the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  /// Measuring budget of the run, in seconds.
  double seconds = 20.0;
  /// False: end-to-end metrics. True: one untraced and one traced pass of
  /// the same inputs, per-layer metrics from the traced one.
  bool trace = false;
  /// Scratch directory for sink, checkpoint and journal files.
  std::string work_dir;
  /// Worker lanes / hardware threads the workloads size themselves to.
  std::size_t threads = 4;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  /// One message per failed correctness gate; empty means correct.
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void gate(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

Outcome run_soak_mono(const RunOptions& options);
Outcome run_fleet_hier(const RunOptions& options);
Outcome run_socket_serve(const RunOptions& options);

}  // namespace perfbench
