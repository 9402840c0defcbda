#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "core/assessor.hpp"
#include "core/sinks.hpp"
#include "net/listener.hpp"
#include "net/shipper.hpp"
#include "net/tcp_source.hpp"
#include "probes.hpp"
#include "serve/metrics.hpp"
#include "serve/service.hpp"
#include "stats.hpp"
#include "telemetry/scenario.hpp"
#include "telemetry/sharded_env.hpp"

namespace perfbench {
namespace {

using namespace imrdmd;

/// Every configuration pins the backend, so IMRDMD_LINALG_BACKEND is
/// inert; the traced pass swaps in the forwarding tracer over it.
constexpr const char* kBackend = "reference";
/// Seed of the simulated facility (job schedule, fault placement, sensor
/// model) shared by every workload. The run seed draws a measurement-noise
/// layer on top (kMeasurementNoiseC), so inputs differ per seed while the
/// ground truth and the baseline populations stay comparable across seeds.
constexpr std::uint64_t kLayoutSeed = 7;
/// Standard deviation of the seeded measurement noise, degrees C.
constexpr double kMeasurementNoiseC = 0.02;
/// Extra set-up-only repetitions behind the setup_s median.
constexpr std::size_t kSetupReps = 8;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

std::string fmt(const char* format, double a, double b = 0.0,
                double c = 0.0) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), format, a, b, c);
  return buf;
}

// --- inputs ------------------------------------------------------------------

/// A case-study-1 stream: rows are machine nodes (Theta has one sensor per
/// node), `hot` the ground-truth overheating nodes.
struct CaseStudyStream {
  linalg::Mat data;
  std::vector<std::size_t> nodes;
  std::vector<std::size_t> hot;
  telemetry::MachineSpec machine;
  /// Stream column at which the overheat faults begin (0 when the stream
  /// opens after the onset).
  std::size_t onset = 0;
};

/// Builds `cols` snapshots of case study 1 on a Theta reduced by `scale`.
/// `pick` chooses the node rows; `from_onset` opens the stream at the fault
/// onset instead of at t = 0. `hot_every` > 0 adds the scenario's overheat
/// fault to every hot_every-th analyzed node as well, so the ground truth
/// is large enough for F1 to resolve small changes (case study 1 alone
/// makes ~1% of the analyzed nodes hot).
CaseStudyStream case_study_stream(
    double scale, std::size_t cols, std::uint64_t seed, bool from_onset,
    std::size_t hot_every,
    const std::function<std::vector<std::size_t>(const telemetry::Scenario&)>&
        pick) {
  std::size_t horizon = cols;
  if (from_onset) {
    while (horizon - horizon / 8 < cols) horizon += 8;
  }
  telemetry::ScenarioOptions options;
  options.machine_scale = scale;
  options.horizon = horizon;
  options.seed = kLayoutSeed;
  telemetry::Scenario scenario = telemetry::make_case_study_1(options);

  for (std::size_t i = 0; hot_every > 0 && i < scenario.analyzed_nodes.size();
       i += hot_every) {
    const std::size_t node = scenario.analyzed_nodes[i];
    const auto faulty = [node](const std::vector<std::size_t>& set) {
      return std::find(set.begin(), set.end(), node) != set.end();
    };
    if (faulty(scenario.hot_nodes) || faulty(scenario.stalled_nodes) ||
        faulty(scenario.memory_error_nodes)) {
      continue;
    }
    scenario.sensors->add_fault({telemetry::FaultSpec::Kind::Overheat, node,
                                 horizon / 8, horizon, 12.0});
    scenario.hot_nodes.push_back(node);
  }

  CaseStudyStream stream;
  stream.machine = scenario.machine;
  stream.hot = scenario.hot_nodes;
  std::sort(stream.hot.begin(), stream.hot.end());
  stream.nodes = pick(scenario);
  const std::size_t t0 = from_onset ? horizon / 8 : 0;
  stream.onset = from_onset ? 0 : horizon / 8;
  stream.data = scenario.sensors->window_for(stream.nodes, t0, cols);
  // Box-Muller over a splitmix64 stream keyed by the run seed.
  std::uint64_t state = splitmix64(seed);
  const auto uniform = [&state] {
    state = splitmix64(state);
    return (static_cast<double>(state >> 11) + 0.5) * 0x1.0p-53;
  };
  constexpr double kTwoPi = 6.283185307179586;
  for (std::size_t r = 0; r < stream.data.rows(); ++r) {
    for (std::size_t c = 0; c < stream.data.cols(); ++c) {
      stream.data(r, c) += kMeasurementNoiseC *
                           std::sqrt(-2.0 * std::log(uniform())) *
                           std::cos(kTwoPi * uniform());
    }
  }
  return stream;
}

/// The hot nodes first, then analyzed nodes, up to `count` distinct nodes.
std::vector<std::size_t> hot_then_analyzed(const telemetry::Scenario& s,
                                           std::size_t count) {
  std::vector<std::size_t> nodes = s.hot_nodes;
  for (std::size_t node : s.analyzed_nodes) {
    if (nodes.size() >= count) break;
    if (std::find(nodes.begin(), nodes.end(), node) == nodes.end()) {
      nodes.push_back(node);
    }
  }
  nodes.resize(std::min(nodes.size(), count));
  return nodes;
}

core::PipelineOptions case_study_pipeline() {
  core::PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 15.0;
  options.band.max_frequency_hz = 1.0;
  options.baseline = {40.0, 62.0};
  return options;
}

/// Pins every environment-defaulted engine knob.
core::AssessorConfig& pin(core::AssessorConfig& config,
                          const std::string& backend, std::size_t stride) {
  core::IngestOptions ingest;
  ingest.prefetch_depth = 1;
  ingest.with_mode(core::IngestMode::Scatterv);
  config.hierarchy(stride).linalg(backend).ingest(ingest);
  config.checkpoint_policy.with_delta(false);
  return config;
}

// --- accuracy scorers --------------------------------------------------------

/// Maps the sensors a workload flags to machine nodes and scores them
/// against the scenario's ground truth.
class Scorer {
 public:
  Scorer(std::vector<std::size_t> nodes, std::vector<std::size_t> truth)
      : nodes_(std::move(nodes)), truth_(std::move(truth)) {}
  virtual ~Scorer() = default;
  virtual void observe(const core::AssessmentSnapshot& snapshot) = 0;
  /// Flagged machine nodes.
  virtual std::vector<std::size_t> flagged() const = 0;
  Detection result() const { return score_detection(flagged(), truth_); }

 protected:
  std::vector<std::size_t> nodes_;
  std::vector<std::size_t> truth_;
};

/// The final snapshot's Hot set.
class FinalHotScorer final : public Scorer {
 public:
  using Scorer::Scorer;
  void observe(const core::AssessmentSnapshot& snapshot) override {
    last_ = snapshot.zscores;
  }
  std::vector<std::size_t> flagged() const override {
    std::vector<std::size_t> out;
    for (std::size_t row : last_.sensors_in_state(core::ThermalState::Hot)) {
      out.push_back(nodes_[row]);
    }
    return out;
  }

 private:
  core::ZscoreAnalysis last_;
};

/// The bench_q2_accuracy rule: a sensor is flagged when its z-score rises
/// more than kShift above its own pre-onset mean in at least a third of the
/// post-onset snapshots (and at least two). bench_q2_accuracy shifts by 0.8
/// for its sub-noise drift; for +12 C overheats the shift is the paper's
/// hot threshold, 2 (at 0.8 a quarter of the machine's job-heated nodes
/// cross it and F1 swings with the noise realization).
class ShiftScorer final : public Scorer {
 public:
  ShiftScorer(std::vector<std::size_t> nodes, std::vector<std::size_t> truth,
              std::size_t onset)
      : Scorer(std::move(nodes), std::move(truth)),
        onset_(onset),
        pre_sum_(nodes_.size(), 0.0),
        pre_n_(nodes_.size(), 0),
        exceed_(nodes_.size(), 0) {}

  void observe(const core::AssessmentSnapshot& snapshot) override {
    const std::vector<double>& z = snapshot.zscores.zscores;
    if (snapshot.total_snapshots <= onset_) {
      for (std::size_t p = 0; p < z.size(); ++p) {
        if (std::isfinite(z[p])) {
          pre_sum_[p] += z[p];
          ++pre_n_[p];
        }
      }
      return;
    }
    ++post_;
    for (std::size_t p = 0; p < z.size(); ++p) {
      const double pre =
          pre_n_[p] > 0 ? pre_sum_[p] / static_cast<double>(pre_n_[p]) : 0.0;
      if (std::isfinite(z[p]) && z[p] - pre > kShift) ++exceed_[p];
    }
  }

  std::vector<std::size_t> flagged() const override {
    const std::size_t persist = std::max<std::size_t>(2, (post_ + 2) / 3);
    std::vector<std::size_t> out;
    for (std::size_t p = 0; p < nodes_.size(); ++p) {
      if (exceed_[p] >= persist) out.push_back(nodes_[p]);
    }
    return out;
  }

 private:
  static constexpr double kShift = 2.0;
  std::size_t onset_;
  std::vector<double> pre_sum_;
  std::vector<std::size_t> pre_n_;
  std::vector<std::size_t> exceed_;
  std::size_t post_ = 0;
};

// --- metric plumbing ---------------------------------------------------------

std::size_t undelivered(std::size_t expected, std::size_t delivered) {
  return expected - std::min(expected, delivered);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<double> to_ms(const std::vector<double>& seconds) {
  std::vector<double> ms;
  ms.reserve(seconds.size());
  for (double s : seconds) ms.push_back(s * 1e3);
  return ms;
}

/// End-to-end results of a run: each pass (closed loop) or session (open
/// loop) contributes its own latency percentiles, and the run reports the
/// median over passes, so one disturbed pass does not move the figure.
struct EndToEnd {
  std::vector<double> throughput;
  std::vector<double> chunk_p50_ms, chunk_p95_ms, tail_chunk_ms;
  std::vector<double> e2e_p50_ms, e2e_p95_ms;
  std::vector<double> setup_s;
  /// Smallest per-pass sample count behind a p95.
  std::size_t min_samples = ~std::size_t{0};
  Detection detection;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  /// One pass: chunk latencies and due-time latencies (ms), the latencies
  /// of the last tenth of the stream, and snapshot columns per second.
  void add_pass(const std::vector<double>& chunk_ms,
                const std::vector<double>& e2e_ms,
                const std::vector<double>& tail_ms, double columns_per_s) {
    chunk_p50_ms.push_back(median(chunk_ms));
    chunk_p95_ms.push_back(percentile(chunk_ms, 95));
    e2e_p50_ms.push_back(median(e2e_ms));
    e2e_p95_ms.push_back(percentile(e2e_ms, 95));
    tail_chunk_ms.push_back(median(tail_ms));
    throughput.push_back(columns_per_s);
    min_samples = std::min({min_samples, chunk_ms.size(), e2e_ms.size()});
  }
};

void emit(Outcome& out, const EndToEnd& e) {
  out.gate(percentile_supported(e.min_samples, 95),
           "p95 needs >= 10 samples beyond it in every pass (smallest pass "
           "has " + std::to_string(e.min_samples) + ")");
  out.gate(e.detection.f1 > 0.0, "detect_f1 is zero");
  out.attempted = e.attempted;
  out.failed = e.failed;
  const double delivered =
      e.attempted > 0 ? static_cast<double>(e.attempted - e.failed) /
                            static_cast<double>(e.attempted)
                      : 0.0;
  out.add("snapshots_per_s", median(e.throughput), "1/s");
  out.add("chunk_p50_ms", median(e.chunk_p50_ms), "ms");
  out.add("chunk_p95_ms", median(e.chunk_p95_ms), "ms");
  out.add("tail_chunk_ms", median(e.tail_chunk_ms), "ms");
  out.add("e2e_p50_ms", median(e.e2e_p50_ms), "ms");
  out.add("e2e_p95_ms", median(e.e2e_p95_ms), "ms");
  out.add("setup_s", median(e.setup_s), "s");
  out.add("peak_rss_mib", peak_rss_mib(), "MiB");
  out.add("detect_f1", e.detection.f1, "ratio");
  out.add("delivered_ratio", delivered, "ratio");
  out.notes.push_back("passes: " + std::to_string(e.throughput.size()) +
                      ", set-ups: " + std::to_string(e.setup_s.size()) +
                      ", smallest pass: " + std::to_string(e.min_samples) +
                      " chunks");
  std::string p50s = "per-pass chunk p50 ms:";
  for (double v : e.chunk_p50_ms) p50s += fmt(" %.2f", v);
  out.notes.push_back(p50s);
  out.notes.push_back(
      "detection: flagged=" + std::to_string(e.detection.flagged) +
      " truth=" + std::to_string(e.detection.truth) +
      " tp=" + std::to_string(e.detection.true_positives) +
      fmt(" precision=%.3f recall=%.3f", e.detection.precision,
          e.detection.recall));
  out.notes.push_back(
      fmt("fail_ratio = %.6g", e.attempted > 0
                                   ? static_cast<double>(e.failed) /
                                         static_cast<double>(e.attempted)
                                   : 1.0));
}

/// Every per-layer metric, zero where the workload does not reach the
/// layer (the prediction for that layer there is "no change").
struct Layers {
  LinalgTotals linalg;
  double fit_s = 0.0;
  double coarse_fit_s = 0.0;
  std::uint64_t new_nodes = 0;
  std::uint64_t grid_cols = 0;
  double other_s = 0.0;
  double queue_s = 0.0;
  double source_s = 0.0;
  double sink_s = 0.0;
  std::size_t checkpoints = 0;
  double checkpoint_s = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  double serve_fit_s = 0.0;
  double tenant_failures = 0.0;
  double net_frames = 0.0;
  double net_bytes = 0.0;
  double net_reconnects = 0.0;
  double net_digest_failures = 0.0;
  double net_ship_s = 0.0;
  double net_source_wait_s = 0.0;
  double net_backlog = 0.0;
  double net_gen_late_p95_ms = 0.0;
  double overhead = 0.0;
};

void emit(Outcome& out, const Layers& l) {
  out.add("linalg.svd.calls", static_cast<double>(l.linalg.svd.calls), "count");
  out.add("linalg.svd.busy_s", l.linalg.svd.busy_s, "s");
  out.add("linalg.svd.gflop", l.linalg.svd.gflop, "GFLOP");
  out.add("linalg.svd.max_n", static_cast<double>(l.linalg.svd_max_n), "count");
  out.add("linalg.qr.busy_s", l.linalg.qr.busy_s, "s");
  out.add("linalg.gemm.calls", static_cast<double>(l.linalg.gemm.calls),
          "count");
  out.add("linalg.gemm.busy_s", l.linalg.gemm.busy_s, "s");
  out.add("linalg.gemm.gflop", l.linalg.gemm.gflop, "GFLOP");
  out.add("linalg.project_out.busy_s", l.linalg.project_out.busy_s, "s");
  out.add("imrdmd.fit_s", l.fit_s, "s");
  out.add("model_stack.coarse_fit_s", l.coarse_fit_s, "s");
  out.add("imrdmd.new_nodes", static_cast<double>(l.new_nodes), "count");
  out.add("imrdmd.grid_cols", static_cast<double>(l.grid_cols), "count");
  out.add("assessor.other_s", l.other_s, "s");
  out.add("assessor.queue_s", l.queue_s, "s");
  out.add("source.next_s", l.source_s, "s");
  out.add("sink.deliver_s", l.sink_s, "s");
  out.add("checkpoint.count", static_cast<double>(l.checkpoints), "count");
  out.add("checkpoint.save_s", l.checkpoint_s, "s");
  out.add("checkpoint.bytes", static_cast<double>(l.checkpoint_bytes), "bytes");
  out.add("serve.fit_s", l.serve_fit_s, "s");
  out.add("serve.tenant_failures", l.tenant_failures, "count");
  out.add("net.frames", l.net_frames, "count");
  out.add("net.bytes", l.net_bytes, "bytes");
  out.add("net.reconnects", l.net_reconnects, "count");
  out.add("net.digest_failures", l.net_digest_failures, "count");
  out.add("net.ship_s", l.net_ship_s, "s");
  out.add("net.source_wait_s", l.net_source_wait_s, "s");
  out.add("net.backlog_chunks", l.net_backlog, "count");
  out.add("net.gen_late_p95_ms", l.net_gen_late_p95_ms, "ms");
  out.add("trace.overhead", l.overhead, "ratio");
}

/// Per-chunk timing of one delivered stream, chunks after the initial fit.
struct ChunkTiming {
  /// Source hand-out -> snapshot at the sink, seconds.
  std::vector<double> latency;
  /// Last tenth of `latency`.
  std::vector<double> tail;
  /// Snapshot columns delivered after the initial fit.
  std::size_t columns = 0;
  double first_arrival = 0.0;
  double last_arrival = 0.0;
  double fit_s = 0.0;
  double coarse_fit_s = 0.0;
  /// Time handed-out chunks waited while the engine finished earlier work.
  double queue_s = 0.0;
  /// Chunk latency not explained by waiting or fitting.
  double other_s = 0.0;
};

ChunkTiming chunk_timing(const ProbeSource& source, const ProbeSink& sink) {
  ChunkTiming t;
  const std::vector<Arrival> arrivals = sink.arrivals();
  const std::vector<double> released = sink.released();
  if (arrivals.empty()) return t;
  t.first_arrival = arrivals.front().arrived;
  t.last_arrival = arrivals.back().arrived;
  for (const Arrival& a : arrivals) {
    t.fit_s += a.fit_s;
    t.coarse_fit_s += a.coarse_fit_s;
  }
  for (std::size_t k = 1; k < arrivals.size(); ++k) {
    const std::optional<double> handed_out = source.handed_out_at(k);
    if (!handed_out) continue;
    const double latency = arrivals[k].arrived - *handed_out;
    const double queue =
        k - 1 < released.size()
            ? std::max(0.0, released[k - 1] - *handed_out)
            : 0.0;
    t.latency.push_back(latency);
    t.columns += arrivals[k].chunk_snapshots;
    t.queue_s += queue;
    t.other_s += latency - queue - arrivals[k].fit_s;
  }
  const std::size_t tenth = std::max<std::size_t>(1, t.latency.size() / 10);
  t.tail.assign(t.latency.end() - std::min(tenth, t.latency.size()),
                t.latency.end());
  return t;
}

// --- closed-loop workloads ---------------------------------------------------

struct ClosedLoop {
  const linalg::Mat* data = nullptr;
  std::size_t initial = 0;
  std::size_t chunk = 0;
  std::function<core::AssessorConfig(const std::string& backend)> config;
  std::function<std::unique_ptr<core::SnapshotSink>()> terminal;
  std::function<std::unique_ptr<Scorer>()> scorer;

  std::size_t expected_chunks() const {
    return 1 + (data->cols() - initial + chunk - 1) / chunk;
  }
};

struct PassResult {
  double wall_s = 0.0;
  double setup_s = 0.0;
  ChunkTiming timing;
  /// Closed loop: chunk k is due when snapshot k-1 reached the sink.
  std::vector<double> e2e;
  std::uint64_t digest = 0;
  std::size_t delivered = 0;
  bool in_order = false;
  Detection detection;
  double source_s = 0.0;
  double sink_s = 0.0;
  std::size_t checkpoints = 0;
  double checkpoint_s = 0.0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t new_nodes = 0;
  std::uint64_t grid_cols = 0;
};

PassResult run_pass(const ClosedLoop& w, const std::string& backend) {
  core::MatrixChunkSource matrix(*w.data, w.initial, w.chunk);
  ProbeSource source(matrix);
  std::unique_ptr<core::SnapshotSink> terminal = w.terminal();
  std::unique_ptr<Scorer> scorer = w.scorer();
  ProbeSink sink(terminal.get(),
                 [&scorer](const auto& s) { scorer->observe(s); });

  const double t0 = now_s();
  {
    core::Assessor assessor(w.config(backend));
    assessor.run(source, sink);
  }
  PassResult r;
  r.wall_s = now_s() - t0;
  const std::vector<Arrival> arrivals = sink.arrivals();
  if (!arrivals.empty()) r.setup_s = arrivals.front().arrived - t0;
  for (std::size_t k = 1; k < arrivals.size(); ++k) {
    r.e2e.push_back(arrivals[k].arrived - arrivals[k - 1].arrived);
  }
  r.timing = chunk_timing(source, sink);
  r.digest = sink.stream_digest();
  r.delivered = sink.delivered();
  r.in_order = sink.in_order() && source.handed_out() == r.delivered;
  r.detection = scorer->result();
  r.source_s = source.busy_s();
  r.sink_s = sink.deliver_s();
  r.checkpoints = sink.checkpoints();
  r.checkpoint_s = sink.checkpoint_s();
  r.checkpoint_bytes = sink.checkpoint_bytes();
  r.new_nodes = sink.new_nodes();
  r.grid_cols = sink.grid_columns();
  return r;
}

/// Engine construction through the first snapshot, on its own.
double setup_once(const ClosedLoop& w) {
  core::MatrixChunkSource matrix(*w.data, w.initial, w.chunk);
  std::unique_ptr<core::SnapshotSink> terminal = w.terminal();
  ProbeSink sink(terminal.get());
  core::StopCondition stop;
  stop.max_chunks = 1;
  const double t0 = now_s();
  core::Assessor assessor(w.config(kBackend));
  assessor.run_until(matrix, sink, stop);
  const std::vector<Arrival> arrivals = sink.arrivals();
  return arrivals.empty() ? 0.0 : arrivals.front().arrived - t0;
}

void check_pass(Outcome& out, const ClosedLoop& w, const PassResult& r,
                const std::string& label) {
  out.gate(r.delivered == w.expected_chunks() && r.in_order,
           label + ": delivered " + std::to_string(r.delivered) + " of " +
               std::to_string(w.expected_chunks()) +
               " chunks (each once, in order required)");
}

Outcome run_closed(const ClosedLoop& w, const RunOptions& options) {
  Outcome out;
  TracingBackend& tracer = TracingBackend::install(kBackend);
  if (options.trace) {
    const PassResult plain = run_pass(w, kBackend);
    tracer.reset();
    const PassResult traced = run_pass(w, TracingBackend::kName);
    check_pass(out, w, plain, "untraced pass");
    check_pass(out, w, traced, "traced pass");
    out.gate(plain.digest == traced.digest,
             "traced and untraced snapshot digests differ");
    out.gate(traced.detection.f1 > 0.0, "detect_f1 is zero");
    out.attempted = 2 * w.expected_chunks();
    out.failed = undelivered(w.expected_chunks(), plain.delivered) +
                 undelivered(w.expected_chunks(), traced.delivered);
    Layers l;
    l.linalg = tracer.totals();
    l.fit_s = traced.timing.fit_s;
    l.coarse_fit_s = traced.timing.coarse_fit_s;
    l.new_nodes = traced.new_nodes;
    l.grid_cols = traced.grid_cols;
    l.other_s = traced.timing.other_s;
    l.queue_s = traced.timing.queue_s;
    l.source_s = traced.source_s;
    l.sink_s = traced.sink_s;
    l.checkpoints = traced.checkpoints;
    l.checkpoint_s = traced.checkpoint_s;
    l.checkpoint_bytes = traced.checkpoint_bytes;
    l.overhead = traced.wall_s / plain.wall_s - 1.0;
    emit(out, l);
    out.notes.push_back(fmt("walls: untraced %.3f s, traced %.3f s",
                            plain.wall_s, traced.wall_s));
    out.notes.push_back("digest: " + std::to_string(traced.digest));
    return out;
  }

  std::vector<PassResult> passes;
  const double start = now_s();
  do {
    passes.push_back(run_pass(w, kBackend));
  } while (now_s() - start + passes.back().wall_s <= options.seconds);

  EndToEnd e;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const PassResult& p = passes[i];
    check_pass(out, w, p, "pass " + std::to_string(i));
    out.gate(p.digest == passes.front().digest,
             "pass " + std::to_string(i) + " digest differs from pass 0");
    const double span = p.timing.last_arrival - p.timing.first_arrival;
    e.add_pass(to_ms(p.timing.latency), to_ms(p.e2e), to_ms(p.timing.tail),
               span > 0.0 ? static_cast<double>(p.timing.columns) / span : 0.0);
    e.setup_s.push_back(p.setup_s);
    e.attempted += w.expected_chunks();
    e.failed += undelivered(w.expected_chunks(), p.delivered);
  }
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    e.setup_s.push_back(setup_once(w));
  }
  e.detection = passes.front().detection;
  emit(out, e);
  out.notes.push_back("digest: " + std::to_string(passes.front().digest));
  return out;
}

// --- socket_serve ------------------------------------------------------------

/// Releases the paced generators once every tenant finished its set-up.
class StartGate {
 public:
  void open(double t) {
    std::lock_guard<std::mutex> lock(mutex_);
    start_ = t;
    open_ = true;
    cv_.notify_all();
  }
  double wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return open_; });
    return start_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  double start_ = 0.0;
};

/// Open-loop generator: chunk 0 (the initial-fit window) goes at once;
/// stream chunk k >= 1 is due at start + (k - 1) / rate whatever the
/// consumer's progress. Seekable, so a reconnecting shipper can resume.
class PacedSource final : public core::ChunkSource {
 public:
  PacedSource(const linalg::Mat& data, std::size_t initial, std::size_t chunk,
              double rate, StartGate& gate)
      : inner_(data, initial, chunk),
        cols_(data.cols()),
        initial_(initial),
        chunk_(chunk),
        rate_(rate),
        gate_(gate) {}

  std::optional<linalg::Mat> next_chunk() override {
    const std::size_t pos = inner_.position();
    if (pos > 0 && pos < cols_) {
      const std::size_t k = 1 + (pos - initial_) / chunk_;
      const double due =
          gate_.wait() + static_cast<double>(k - 1) / rate_;
      const double wait = due - now_s();
      if (wait > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(wait));
      }
      if (k > lateness_.size()) lateness_.push_back(now_s() - due);
    }
    return inner_.next_chunk();
  }
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }

  /// Generator lateness of each stream chunk, seconds (shipper thread
  /// only; read after it joined).
  const std::vector<double>& lateness() const { return lateness_; }

 private:
  core::MatrixChunkSource inner_;
  std::size_t cols_;
  std::size_t initial_;
  std::size_t chunk_;
  double rate_;
  StartGate& gate_;
  std::vector<double> lateness_;
};

/// Sum of every series of OpenMetrics family sample `name` in `text`.
double openmetrics_sum(const std::string& text, const std::string& name) {
  double total = 0.0;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t end = line.find_first_of("{ ");
    if (line.compare(0, end, name) != 0 || end != name.size()) continue;
    const std::size_t space = line.rfind(' ');
    total += std::stod(line.substr(space + 1));
  }
  return total;
}

struct ServeInput {
  std::vector<linalg::Mat> streams;
  std::vector<std::vector<std::size_t>> nodes;
  std::vector<std::size_t> hot;
  std::size_t onset = 0;
  std::size_t initial = 0;
  std::size_t chunk = 0;
};

struct TenantResult {
  std::vector<Arrival> arrivals;
  std::size_t handed_out = 0;
  std::vector<double> lateness;
  std::uint64_t digest = 0;
  bool in_order = false;
  std::size_t expected = 0;
  std::size_t delivered = 0;
  bool completed = false;
  std::string error;
  double ship_s = 0.0;
  double backlog = 0.0;
  double source_wait_s = 0.0;
  double sink_s = 0.0;
  std::uint64_t new_nodes = 0;
  std::uint64_t grid_cols = 0;
  ChunkTiming timing;
  std::vector<std::size_t> hot_flagged;
};

struct SessionResult {
  double setup_s = 0.0;
  double start = 0.0;
  double wall_s = 0.0;
  std::vector<TenantResult> tenants;
  std::string metrics;
};

core::AssessorConfig serve_config(const std::string& backend,
                                  std::size_t sensors) {
  core::AssessorConfig config;
  config.pipeline(case_study_pipeline());
  config.pipeline_options.imrdmd.isvd.max_rank = 6;
  config.sharded(core::contiguous_groups(sensors, 4)).sensors(sensors);
  return pin(config, backend, 4);
}

/// One full serving session: bind, start tenants, ship, drain. `streams`
/// holds each tenant's whole stream (its first `initial` columns are the
/// initial-fit window).
SessionResult serve_session(const ServeInput& input,
                            const std::vector<linalg::Mat>& streams,
                            double rate, const std::string& backend,
                            const std::string& dir) {
  const std::size_t n = streams.size();
  SessionResult result;
  result.tenants.resize(n);
  std::vector<std::unique_ptr<net::TcpChunkSource>> received;
  std::vector<std::unique_ptr<ProbeSource>> sources;
  std::vector<std::unique_ptr<core::LatestOnlySink>> latest;
  std::vector<std::unique_ptr<Scorer>> scorers;
  std::vector<std::unique_ptr<ProbeSink>> sinks;
  StartGate gate;
  std::vector<std::unique_ptr<PacedSource>> paced;

  const double t0 = now_s();
  serve::MetricsRegistry registry;
  net::IngestListenerOptions listen_options;
  listen_options.metrics = &registry;
  listen_options.recv_timeout_seconds = 30.0;
  net::IngestListener listener(listen_options);
  for (std::size_t i = 0; i < n; ++i) {
    net::TcpChunkSource::Options source_options;
    source_options.journal_path = dir + "/tenant" + std::to_string(i) + ".jnl";
    source_options.idle_timeout_seconds = 60.0;
    std::filesystem::remove(source_options.journal_path);
    received.push_back(std::make_unique<net::TcpChunkSource>(
        streams[i].rows(), source_options));
    listener.register_stream("stream" + std::to_string(i),
                             received.back().get());
    sources.push_back(std::make_unique<ProbeSource>(*received.back()));
    latest.push_back(std::make_unique<core::LatestOnlySink>());
    scorers.push_back(std::make_unique<ShiftScorer>(input.nodes[i], input.hot,
                                                    input.onset));
    Scorer* scorer = scorers.back().get();
    sinks.push_back(std::make_unique<ProbeSink>(
        latest.back().get(), [scorer](const auto& s) { scorer->observe(s); }));
    paced.push_back(std::make_unique<PacedSource>(streams[i], input.initial,
                                                  input.chunk, rate, gate));
  }
  {
    serve::AssessorService::Options service_options;
    service_options.metrics = &registry;
    serve::AssessorService service(service_options);
    for (std::size_t i = 0; i < n; ++i) {
      serve::TenantOptions tenant;
      tenant.config = serve_config(backend, streams[i].rows());
      tenant.source = sources[i].get();
      tenant.sink = sinks[i].get();
      service.add_tenant("tenant" + std::to_string(i), tenant);
    }
    service.start_all();

    std::vector<std::thread> shippers;
    for (std::size_t i = 0; i < n; ++i) {
      shippers.emplace_back([&, i] {
        TenantResult& t = result.tenants[i];
        try {
          net::ShipperOptions ship_options;
          ship_options.port = listener.port();
          ship_options.stream_id = "stream" + std::to_string(i);
          net::ChunkShipper shipper(ship_options);
          const double s0 = now_s();
          shipper.ship(*paced[i]);
          t.ship_s = now_s() - s0;
          t.backlog = static_cast<double>(received[i]->acked_seq()) -
                      static_cast<double>(sinks[i]->delivered());
        } catch (const std::exception& e) {
          t.error = std::string("shipper: ") + e.what();
          gate.open(now_s());
        }
      });
    }

    // Set-up ends when every tenant delivered its initial-fit snapshot.
    const double deadline = t0 + 60.0;
    while (now_s() < deadline) {
      bool ready = true;
      for (const auto& sink : sinks) ready = ready && sink->delivered() > 0;
      if (ready) break;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    result.setup_s = now_s() - t0;
    result.start = now_s();
    gate.open(result.start);
    for (std::thread& shipper : shippers) shipper.join();
    service.drain_all();
    result.wall_s = now_s() - result.start;
    for (std::size_t i = 0; i < n; ++i) {
      const serve::TenantStatus status =
          service.status("tenant" + std::to_string(i));
      TenantResult& t = result.tenants[i];
      t.completed = status.state == serve::TenantState::Completed;
      if (!status.error.empty()) t.error += " tenant: " + status.error;
    }
    result.metrics = registry.render_openmetrics();
  }
  listener.stop();

  for (std::size_t i = 0; i < n; ++i) {
    TenantResult& t = result.tenants[i];
    t.arrivals = sinks[i]->arrivals();
    t.handed_out = sources[i]->handed_out();
    t.lateness = paced[i]->lateness();
    t.digest = sinks[i]->stream_digest();
    t.in_order = sinks[i]->in_order();
    t.expected = 1 + (streams[i].cols() - input.initial + input.chunk - 1) /
                         input.chunk;
    t.delivered = sinks[i]->delivered();
    t.source_wait_s = sources[i]->busy_s();
    t.sink_s = sinks[i]->deliver_s();
    t.new_nodes = sinks[i]->new_nodes();
    t.grid_cols = sinks[i]->grid_columns();
    t.timing = chunk_timing(*sources[i], *sinks[i]);
    t.hot_flagged = scorers[i]->flagged();
    std::filesystem::remove(dir + "/tenant" + std::to_string(i) + ".jnl");
  }
  return result;
}

/// Digest of the same stream fed in-process, for the socket-vs-direct gate.
std::uint64_t in_process_digest(const ServeInput& input,
                                const linalg::Mat& stream) {
  core::MatrixChunkSource matrix(stream, input.initial, input.chunk);
  ProbeSink sink(nullptr);
  core::Assessor assessor(serve_config(kBackend, stream.rows()));
  assessor.run(matrix, sink);
  return sink.stream_digest();
}

}  // namespace

// --- the workloads -----------------------------------------------------------

Outcome run_soak_mono(const RunOptions& options) {
  constexpr std::size_t kSensors = 96;
  constexpr std::size_t kInitial = 512;
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kChunks = 300;
  const CaseStudyStream input = case_study_stream(
      0.25, kInitial + kChunk * kChunks, options.seed, true, 0,
      [](const telemetry::Scenario& s) {
        std::vector<std::size_t> nodes = hot_then_analyzed(s, kSensors);
        std::sort(nodes.begin(), nodes.end());
        return nodes;
      });

  ClosedLoop w;
  w.data = &input.data;
  w.initial = kInitial;
  w.chunk = kChunk;
  w.config = [&](const std::string& backend) {
    core::AssessorConfig config;
    config.pipeline(case_study_pipeline()).monolithic().sensors(kSensors);
    return pin(config, backend, 0);
  };
  w.terminal = [] { return std::make_unique<core::LatestOnlySink>(); };
  w.scorer = [&] {
    return std::make_unique<FinalHotScorer>(input.nodes, input.hot);
  };
  Outcome out = run_closed(w, options);
  out.notes.insert(out.notes.begin(),
                   "input: " + std::to_string(input.data.rows()) +
                       " sensors x " +
                       std::to_string(input.data.cols()) + " snapshots, " +
                       std::to_string(w.expected_chunks()) + " chunks");
  return out;
}

Outcome run_fleet_hier(const RunOptions& options) {
  constexpr std::size_t kInitial = 512;
  constexpr std::size_t kChunk = 32;
  constexpr std::size_t kChunks = 200;
  constexpr std::size_t kCheckpointEvery = 10;
  // Every 10th analyzed node overheats (~117 hot nodes): with every 20th,
  // F1 here moved by a quarter between noise seeds.
  constexpr std::size_t kHotEvery = 10;
  const CaseStudyStream input = case_study_stream(
      0.25, kInitial + kChunk * kChunks, options.seed, false, kHotEvery,
      [](const telemetry::Scenario& s) {
        std::vector<std::size_t> nodes(s.machine.sensor_count());
        for (std::size_t i = 0; i < nodes.size(); ++i) nodes[i] = i;
        return nodes;
      });
  const std::vector<std::vector<std::size_t>> groups =
      telemetry::rack_groups(input.machine);
  const std::string checkpoint = options.work_dir + "/fleet.ckpt";
  const std::string jsonl = options.work_dir + "/fleet.jsonl";

  ClosedLoop w;
  w.data = &input.data;
  w.initial = kInitial;
  w.chunk = kChunk;
  w.config = [&](const std::string& backend) {
    core::AssessorConfig config;
    config.pipeline(case_study_pipeline());
    config.pipeline_options.imrdmd.isvd.max_rank = 6;
    config.sharded(groups, options.threads).sensors(input.data.rows());
    core::CheckpointPolicy policy;
    policy.every_n = kCheckpointEvery;
    policy.path = checkpoint;
    config.checkpoint(policy);
    return pin(config, backend, 4);
  };
  w.terminal = [&] { return std::make_unique<core::JsonlSink>(jsonl); };
  w.scorer = [&] {
    return std::make_unique<ShiftScorer>(input.nodes, input.hot, input.onset);
  };
  Outcome out = run_closed(w, options);
  out.notes.insert(out.notes.begin(),
                   "input: " + std::to_string(input.data.rows()) +
                       " sensors in " +
                       std::to_string(groups.size()) + " rack groups x " +
                       std::to_string(input.data.cols()) + " snapshots, " +
                       std::to_string(w.expected_chunks()) + " chunks");
  return out;
}

Outcome run_socket_serve(const RunOptions& options) {
  constexpr std::size_t kTenants = 2;
  constexpr std::size_t kSensors = 512;
  constexpr double kRate = 24.0;
  constexpr std::size_t kHotEvery = 20;  // ~65 hot nodes
  ServeInput input;
  input.initial = 256;
  input.chunk = 32;
  // A fixed stream of 160 chunks per tenant: 6.7 s at the offered rate.
  // Sessions repeat while the budget lasts, like the closed-loop passes.
  const std::size_t chunks = 160;
  const CaseStudyStream all = case_study_stream(
      0.25, input.initial + input.chunk * chunks, options.seed, false,
      kHotEvery, [](const telemetry::Scenario& s) {
        return hot_then_analyzed(s, kTenants * kSensors);
      });
  input.hot = all.hot;
  input.onset = all.onset;
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::vector<std::size_t> rows;
    for (std::size_t r = i; r < all.nodes.size(); r += kTenants) {
      rows.push_back(r);
    }
    std::sort(rows.begin(), rows.end(), [&](std::size_t a, std::size_t b) {
      return all.nodes[a] < all.nodes[b];
    });
    std::vector<std::size_t> nodes;
    linalg::Mat stream(rows.size(), all.data.cols());
    for (std::size_t r = 0; r < rows.size(); ++r) {
      nodes.push_back(all.nodes[rows[r]]);
      for (std::size_t c = 0; c < all.data.cols(); ++c) {
        stream(r, c) = all.data(rows[r], c);
      }
    }
    input.nodes.push_back(std::move(nodes));
    input.streams.push_back(std::move(stream));
  }
  std::vector<linalg::Mat> initial_only;
  for (const linalg::Mat& s : input.streams) {
    initial_only.push_back(s.block(0, 0, s.rows(), input.initial));
  }

  Outcome out;
  out.notes.push_back("input: " + std::to_string(kTenants) + " tenants x " +
                      std::to_string(kSensors) + " sensors, " +
                      std::to_string(chunks) + " chunks of " +
                      std::to_string(input.chunk) +
                      fmt(" at %.0f chunks/s", kRate));
  TracingBackend& tracer = TracingBackend::install(kBackend);

  const auto check_session = [&](const SessionResult& s,
                                 const std::string& label,
                                 std::size_t& attempted, std::size_t& failed) {
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
      const TenantResult& t = s.tenants[i];
      const std::string who = label + " tenant " + std::to_string(i);
      out.gate(t.error.empty(), who + ":" + t.error);
      out.gate(t.completed, who + " did not complete");
      out.gate(t.delivered == t.expected && t.in_order &&
                   t.handed_out == t.delivered,
               who + ": delivered " + std::to_string(t.delivered) + " of " +
                   std::to_string(t.expected) +
                   " chunks (each once, in order)");
      attempted += t.expected;
      failed += undelivered(t.expected, t.delivered) + (t.completed ? 0 : 1);
    }
  };
  // The socket-fed tenants must match the same stream fed in-process.
  const auto check_in_process = [&](const std::vector<std::uint64_t>& digests) {
    for (std::size_t i = 0; i < kTenants; ++i) {
      out.gate(digests[i] == in_process_digest(input, input.streams[i]),
               "tenant " + std::to_string(i) +
                   " digest differs from the same stream fed in-process");
    }
  };
  const auto detection = [&](const SessionResult& s) {
    std::vector<std::size_t> flagged;
    for (const TenantResult& t : s.tenants) {
      flagged.insert(flagged.end(), t.hot_flagged.begin(), t.hot_flagged.end());
    }
    return score_detection(flagged, input.hot);
  };

  if (options.trace) {
    const SessionResult plain = serve_session(input, input.streams, kRate,
                                              kBackend, options.work_dir);
    tracer.reset();
    const SessionResult traced = serve_session(
        input, input.streams, kRate, TracingBackend::kName, options.work_dir);
    const LinalgTotals linalg_totals = tracer.totals();
    check_session(plain, "untraced", out.attempted, out.failed);
    check_session(traced, "traced", out.attempted, out.failed);
    std::vector<std::uint64_t> digests;
    for (std::size_t i = 0; i < kTenants; ++i) {
      digests.push_back(plain.tenants[i].digest);
      out.gate(digests[i] == traced.tenants[i].digest,
               "traced and untraced digests differ for tenant " +
                   std::to_string(i));
    }
    check_in_process(digests);
    out.gate(detection(traced).f1 > 0.0, "detect_f1 is zero");

    Layers l;
    l.linalg = linalg_totals;
    std::vector<double> lateness;
    for (const TenantResult& t : traced.tenants) {
      l.fit_s += t.timing.fit_s;
      l.coarse_fit_s += t.timing.coarse_fit_s;
      l.new_nodes += t.new_nodes;
      l.grid_cols += t.grid_cols;
      l.other_s += t.timing.other_s;
      l.queue_s += t.timing.queue_s;
      l.source_s += t.source_wait_s;
      l.sink_s += t.sink_s;
      l.net_ship_s += t.ship_s;
      l.net_source_wait_s += t.source_wait_s;
      l.net_backlog += t.backlog;
      lateness.insert(lateness.end(), t.lateness.begin(), t.lateness.end());
    }
    const auto series = [&traced](const char* name) {
      return openmetrics_sum(traced.metrics, name);
    };
    l.serve_fit_s = series("imrdmd_tenant_fit_seconds_total");
    l.tenant_failures = series("imrdmd_tenant_failures_total");
    l.net_frames = series("imrdmd_net_frames_total");
    l.net_bytes = series("imrdmd_net_bytes_total");
    l.net_reconnects = series("imrdmd_net_reconnects_total");
    l.net_digest_failures = series("imrdmd_net_digest_failures_total");
    l.net_gen_late_p95_ms = percentile(to_ms(lateness), 95);
    l.overhead = traced.wall_s / plain.wall_s - 1.0;
    emit(out, l);
    out.notes.push_back(fmt("walls: untraced %.3f s, traced %.3f s",
                            plain.wall_s, traced.wall_s));
    return out;
  }

  // Set-up-only sessions (initial-fit window, then end of stream) first,
  // then measured open-loop sessions while the budget lasts.
  std::vector<double> setups;
  for (std::size_t i = 0; i < 6; ++i) {
    setups.push_back(
        serve_session(input, initial_only, kRate, kBackend, options.work_dir)
            .setup_s);
  }
  EndToEnd e;
  e.setup_s = setups;
  std::vector<double> lateness;
  std::vector<std::uint64_t> digests;
  std::size_t sessions = 0;
  const double start = now_s();
  for (double last_wall = 0.0;
       sessions == 0 || now_s() - start + last_wall <= options.seconds;
       ++sessions) {
    const SessionResult s =
        serve_session(input, input.streams, kRate, kBackend, options.work_dir);
    last_wall = s.setup_s + s.wall_s;
    e.setup_s.push_back(s.setup_s);
    const std::string label = "session " + std::to_string(sessions);
    check_session(s, label, e.attempted, e.failed);
    if (sessions == 0) e.detection = detection(s);
    std::vector<double> chunk_ms, e2e_ms, tail_ms;
    double last = s.start;
    double columns = 0.0;
    for (std::size_t i = 0; i < s.tenants.size(); ++i) {
      const TenantResult& t = s.tenants[i];
      if (sessions == 0) digests.push_back(t.digest);
      out.gate(t.digest == digests[i],
               label + " tenant " + std::to_string(i) + " digest differs");
      const std::vector<double> ms = to_ms(t.timing.latency);
      chunk_ms.insert(chunk_ms.end(), ms.begin(), ms.end());
      const std::vector<double> tail = to_ms(t.timing.tail);
      tail_ms.insert(tail_ms.end(), tail.begin(), tail.end());
      std::vector<double> done;
      for (std::size_t k = 1; k < t.arrivals.size(); ++k) {
        done.push_back(t.arrivals[k].arrived);
      }
      const std::vector<double> e2e =
          to_ms(due_latencies(due_schedule(s.start, kRate, done.size()), done));
      e2e_ms.insert(e2e_ms.end(), e2e.begin(), e2e.end());
      last = std::max(last, t.timing.last_arrival);
      columns += static_cast<double>(t.timing.columns);
      lateness.insert(lateness.end(), t.lateness.begin(), t.lateness.end());
    }
    e.add_pass(chunk_ms, e2e_ms, tail_ms,
               columns / std::max(last - s.start, 1e-9));
  }
  check_in_process(digests);  // after the timed sessions
  emit(out, e);
  out.notes.push_back(fmt("generator lateness p95 %.3f ms",
                          percentile(to_ms(lateness), 95)));
  return out;
}

}  // namespace perfbench
