// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload soak_mono|fleet_hier|socket_serve
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Human-readable lines first, then, as the last line of standard output,
// one JSON object {"correct", "attempted", "failed", "metrics"}. Exit
// status 1 when a correctness gate failed, 2 on a usage error.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_environment(std::size_t threads) {
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::printf("env: nproc=%zu OMP_NUM_THREADS=%s compiler=\"%s\" "
              "build_type=%s backend=reference\n",
              threads, omp != nullptr ? omp : "unset", __VERSION__,
              PERFBENCH_BUILD_TYPE);
  for (const char* name :
       {"IMRDMD_LINALG_BACKEND", "IMRDMD_HIERARCHY_STRIDE",
        "IMRDMD_INGEST_MODE", "IMRDMD_CHECKPOINT_DELTA"}) {
    if (const char* value = std::getenv(name)) {
      std::printf("env: %s=%s is set; the workload configs pin it\n", name,
                  value);
    }
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_runner: %s\nusage: perfbench_runner --workload "
               "soak_mono|fleet_hier|socket_serve --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.work_dir.empty() ||
      !std::filesystem::is_directory(options.work_dir)) {
    return usage("--work-dir must name an existing directory");
  }
  options.threads = std::max(1u, std::thread::hardware_concurrency());

  perfbench::Outcome (*run)(const perfbench::RunOptions&) = nullptr;
  if (workload == "soak_mono") run = perfbench::run_soak_mono;
  if (workload == "fleet_hier") run = perfbench::run_fleet_hier;
  if (workload == "socket_serve") run = perfbench::run_socket_serve;
  if (run == nullptr) {
    return usage(("unknown workload '" + workload + "'").c_str());
  }

  print_environment(options.threads);
  perfbench::Outcome outcome;
  try {
    outcome = run(options);
  } catch (const std::exception& e) {
    outcome.failures.push_back(std::string("exception: ") + e.what());
    outcome.attempted = std::max<std::size_t>(outcome.attempted, 1);
    outcome.failed = outcome.attempted;
  }

  for (const std::string& note : outcome.notes) {
    std::printf("%s: %s\n", workload.c_str(), note.c_str());
  }
  for (const perfbench::Metric& m : outcome.metrics) {
    if (!std::isfinite(m.value)) {
      outcome.failures.push_back("metric " + m.name + " is not finite");
    }
    std::printf("%s: %-28s %.6g %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const std::string& failure : outcome.failures) {
    std::printf("%s: GATE FAILED: %s\n", workload.c_str(), failure.c_str());
  }
  const bool correct = outcome.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              std::max<std::size_t>(outcome.attempted, 1), outcome.failed);
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", json_escape(m.name).c_str(),
                std::isfinite(m.value) ? m.value : 0.0,
                json_escape(m.unit).c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
