// The outside-in tracing kit. Everything here sits on a public seam of the
// library and forwards to the real implementation, so the program under
// test runs unmodified:
//
//   * TracingBackend — a linalg::Backend registered through
//     linalg::register_backend that times and counts each kernel and
//     forwards to the backend that would otherwise be active;
//   * ProbeSource — a core::ChunkSource decorator that timestamps every
//     hand-out and times the inner next_chunk (position/seek forward, so
//     checkpoint and shipper resume keep working);
//   * ProbeSink — a core::SnapshotSink decorator that timestamps every
//     arrival, checks the delivery contract (each chunk once, in order),
//     digests the snapshot stream, and times the inner delivery and the
//     checkpoint writer (on_checkpoint_written/on_end forward).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/assessor.hpp"
#include "linalg/backend.hpp"

namespace perfbench {

/// Seconds on the steady clock since a process-wide origin.
double now_s();

/// Bitwise digest of every deterministic field of a snapshot (timings
/// excluded), so two runs of one seed can be compared exactly.
std::uint64_t snapshot_digest(const imrdmd::core::AssessmentSnapshot& s);

/// Totals of one kernel family, read after a traced pass.
struct KernelTotals {
  std::uint64_t calls = 0;
  double busy_s = 0.0;
  double gflop = 0.0;
};

struct LinalgTotals {
  KernelTotals gemm;
  KernelTotals project_out;
  KernelTotals qr;
  KernelTotals svd;
  /// Largest min(rows, cols) handed to svd_into — a proxy for the rank of
  /// the incrementally maintained core.
  std::uint64_t svd_max_n = 0;
};

/// Forwarding linalg::Backend that counts calls, sums per-call busy time
/// across threads, and computes nominal flops from the operand shapes.
class TracingBackend final : public imrdmd::linalg::Backend {
 public:
  static constexpr const char* kName = "perfbench-trace";

  explicit TracingBackend(imrdmd::linalg::Backend& inner) : inner_(inner) {}

  /// Registers (once per process) a tracer forwarding to the backend named
  /// `inner` and returns it.
  static TracingBackend& install(const std::string& inner);

  const char* name() const override { return kName; }
  std::string capabilities() const override;

  void matmul_into(const imrdmd::linalg::Mat& a, const imrdmd::linalg::Mat& b,
                   imrdmd::linalg::Mat& out) override;
  void matmul_at_b_into(const imrdmd::linalg::Mat& a,
                        const imrdmd::linalg::Mat& b,
                        imrdmd::linalg::Mat& out) override;
  void matmul_a_bt_into(const imrdmd::linalg::Mat& a,
                        const imrdmd::linalg::Mat& b,
                        imrdmd::linalg::Mat& out) override;
  void matmul_sub(const imrdmd::linalg::Mat& a, const imrdmd::linalg::Mat& b,
                  imrdmd::linalg::Mat& out) override;
  void project_out(const imrdmd::linalg::Mat& u, imrdmd::linalg::Mat& residual,
                   imrdmd::linalg::Mat& coeff_accum,
                   imrdmd::linalg::Mat& coeff_ws) override;
  void thin_qr_into(const imrdmd::linalg::Mat& a,
                    imrdmd::linalg::QrResult& out,
                    imrdmd::linalg::QrWorkspace& ws) override;
  void svd_into(const imrdmd::linalg::Mat& x, imrdmd::linalg::SvdResult& out,
                imrdmd::linalg::SvdWorkspace& ws) override;

  void reset();
  LinalgTotals totals() const;

 private:
  struct Counter {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> flops{0};
  };
  /// Times `fn` and charges it to `counter`.
  template <typename Fn>
  void timed(Counter& counter, double flops, Fn&& fn);

  imrdmd::linalg::Backend& inner_;
  Counter gemm_, project_out_, qr_, svd_;
  std::atomic<std::uint64_t> svd_max_n_{0};
};

/// Forwarding ChunkSource that records when each chunk was handed out.
class ProbeSource final : public imrdmd::core::ChunkSource {
 public:
  explicit ProbeSource(imrdmd::core::ChunkSource& inner) : inner_(inner) {}

  std::optional<imrdmd::linalg::Mat> next_chunk() override;
  std::size_t sensors() const override { return inner_.sensors(); }
  std::size_t position() const override { return inner_.position(); }
  void seek(std::size_t snapshot) override { inner_.seek(snapshot); }

  /// now_s() at which chunk `k` was handed out, if it has been.
  std::optional<double> handed_out_at(std::size_t k) const;
  std::size_t handed_out() const;
  /// Seconds spent inside the inner next_chunk (end-of-stream call
  /// included).
  double busy_s() const;

 private:
  imrdmd::core::ChunkSource& inner_;
  mutable std::mutex mutex_;
  std::vector<double> handouts_;
  double busy_s_ = 0.0;
};

/// What ProbeSink keeps per delivered snapshot.
struct Arrival {
  double arrived = 0.0;
  std::size_t chunk_snapshots = 0;
  double fit_s = 0.0;
  double coarse_fit_s = 0.0;
};

/// Forwarding SnapshotSink that records arrivals, enforces the delivery
/// contract and digests the stream. `observe` (optional) sees every
/// snapshot before it is forwarded — the workloads' accuracy scorers.
class ProbeSink final : public imrdmd::core::SnapshotSink {
 public:
  using Observer =
      std::function<void(const imrdmd::core::AssessmentSnapshot&)>;

  /// `inner` may be null (the probe is then the terminal sink).
  explicit ProbeSink(imrdmd::core::SnapshotSink* inner,
                     Observer observe = nullptr)
      : inner_(inner), observe_(std::move(observe)) {}

  bool on_snapshot(const imrdmd::core::AssessmentSnapshot& snapshot) override;
  bool on_snapshot(imrdmd::core::AssessmentSnapshot&& snapshot) override;
  void on_checkpoint_written(const std::string& path,
                             std::size_t chunk_index) override;
  void on_end(const imrdmd::core::RunSummary& summary) override;

  /// Copies, safe while deliveries continue on another thread.
  std::vector<Arrival> arrivals() const;
  std::size_t delivered() const;
  /// False once a snapshot arrived out of order or twice.
  bool in_order() const;
  /// Fold of every snapshot digest, in delivery order.
  std::uint64_t stream_digest() const;
  /// Wall time spent inside the inner sink.
  double deliver_s() const;
  /// Sum of exact partial-fit counts over every report (coarse included).
  std::uint64_t new_nodes() const;
  std::uint64_t grid_columns() const;
  /// Checkpoint writer: count, seconds from the delivery's return to the
  /// written notification, and bytes of the files written.
  std::size_t checkpoints() const;
  double checkpoint_s() const;
  std::uint64_t checkpoint_bytes() const;
  /// When each delivery (and any checkpoint that followed it) returned
  /// control to the engine.
  std::vector<double> released() const;

 private:
  void record(const imrdmd::core::AssessmentSnapshot& snapshot, double t);
  void finish_delivery(double t);

  imrdmd::core::SnapshotSink* inner_;
  Observer observe_;
  mutable std::mutex mutex_;
  std::vector<Arrival> arrivals_;
  std::vector<double> released_;
  bool in_order_ = true;
  std::uint64_t digest_ = 0xcbf29ce484222325ull;
  double deliver_s_ = 0.0;
  std::uint64_t new_nodes_ = 0;
  std::uint64_t grid_columns_ = 0;
  std::size_t checkpoints_ = 0;
  double checkpoint_s_ = 0.0;
  std::uint64_t checkpoint_bytes_ = 0;
};

}  // namespace perfbench
