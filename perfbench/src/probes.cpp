#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "stats.hpp"

namespace perfbench {

using imrdmd::core::AssessmentSnapshot;
using imrdmd::core::PartialFitReport;
using imrdmd::linalg::Mat;

double now_s() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

namespace {

void fold_report(Fnv1a& h, const PartialFitReport& r) {
  h.value(r.new_snapshots);
  h.value(r.total_snapshots);
  h.value(r.drift_grid);
  h.value(r.drift_estimate);
  h.value(r.drift_exceeded);
  h.value(r.recomputed);
  h.value(r.new_nodes);
  h.value(r.new_grid_columns);
}

std::uint64_t report_sum(const AssessmentSnapshot& s,
                         std::size_t PartialFitReport::*field) {
  std::uint64_t total = s.coarse_report.*field;
  for (const PartialFitReport& r : s.reports) total += r.*field;
  return total;
}

double gemm_flops(const Mat& a, const Mat& b, bool a_t, bool b_t) {
  const double m = static_cast<double>(a_t ? a.cols() : a.rows());
  const double k = static_cast<double>(a_t ? a.rows() : a.cols());
  const double n = static_cast<double>(b_t ? b.rows() : b.cols());
  return 2.0 * m * k * n;
}

}  // namespace

std::uint64_t snapshot_digest(const AssessmentSnapshot& s) {
  Fnv1a h;
  h.value(s.chunk_index);
  h.value(s.chunk_snapshots);
  h.value(s.total_snapshots);
  h.value(s.reports.size());
  for (const PartialFitReport& r : s.reports) fold_report(h, r);
  h.values(s.magnitudes);
  h.values(s.sensor_means);
  h.values(s.zscores.zscores);
  h.values(s.zscores.baseline_sensors);
  h.value(s.zscores.baseline_mean);
  h.value(s.zscores.baseline_stddev);
  h.values(s.coarse_magnitudes);
  h.values(s.coarse_zscores);
  h.values(s.residual_zscores);
  fold_report(h, s.coarse_report);
  return h.digest();
}

// --- TracingBackend ---------------------------------------------------------

TracingBackend& TracingBackend::install(const std::string& inner) {
  static TracingBackend* installed = [&] {
    imrdmd::linalg::Backend* target = imrdmd::linalg::find_backend(inner);
    if (target == nullptr) {
      throw std::runtime_error("unknown linalg backend " + inner);
    }
    auto owned = std::make_unique<TracingBackend>(*target);
    TracingBackend* raw = owned.get();
    imrdmd::linalg::register_backend(std::move(owned));
    return raw;
  }();
  return *installed;
}

std::string TracingBackend::capabilities() const {
  return std::string("tracing forwarder over ") + inner_.name();
}

template <typename Fn>
void TracingBackend::timed(Counter& counter, double flops, Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  counter.calls.fetch_add(1, std::memory_order_relaxed);
  counter.busy_ns.fetch_add(static_cast<std::uint64_t>(ns),
                            std::memory_order_relaxed);
  counter.flops.fetch_add(static_cast<std::uint64_t>(flops),
                          std::memory_order_relaxed);
}

void TracingBackend::matmul_into(const Mat& a, const Mat& b, Mat& out) {
  timed(gemm_, gemm_flops(a, b, false, false),
        [&] { inner_.matmul_into(a, b, out); });
}

void TracingBackend::matmul_at_b_into(const Mat& a, const Mat& b, Mat& out) {
  timed(gemm_, gemm_flops(a, b, true, false),
        [&] { inner_.matmul_at_b_into(a, b, out); });
}

void TracingBackend::matmul_a_bt_into(const Mat& a, const Mat& b, Mat& out) {
  timed(gemm_, gemm_flops(a, b, false, true),
        [&] { inner_.matmul_a_bt_into(a, b, out); });
}

void TracingBackend::matmul_sub(const Mat& a, const Mat& b, Mat& out) {
  timed(gemm_, gemm_flops(a, b, false, false),
        [&] { inner_.matmul_sub(a, b, out); });
}

void TracingBackend::project_out(const Mat& u, Mat& residual,
                                 Mat& coeff_accum, Mat& coeff_ws) {
  // coeff = U^T R, then R -= U coeff: two P x r x c products.
  const double flops = 4.0 * static_cast<double>(u.rows()) *
                       static_cast<double>(u.cols()) *
                       static_cast<double>(residual.cols());
  timed(project_out_, flops,
        [&] { inner_.project_out(u, residual, coeff_accum, coeff_ws); });
}

void TracingBackend::thin_qr_into(const Mat& a,
                                  imrdmd::linalg::QrResult& out,
                                  imrdmd::linalg::QrWorkspace& ws) {
  // Householder factor plus explicit thin Q: 4mn^2 - 4n^3/3.
  const double m = static_cast<double>(a.rows());
  const double n = static_cast<double>(a.cols());
  timed(qr_, 4.0 * m * n * n - 4.0 * n * n * n / 3.0,
        [&] { inner_.thin_qr_into(a, out, ws); });
}

void TracingBackend::svd_into(const Mat& x, imrdmd::linalg::SvdResult& out,
                              imrdmd::linalg::SvdWorkspace& ws) {
  // Nominal thin-SVD count with U and V (m >= n): 6mn^2 + 20n^3. Jacobi's
  // real work depends on the sweep count; this is a shape-only yardstick.
  const std::size_t small = std::min(x.rows(), x.cols());
  const double m = static_cast<double>(std::max(x.rows(), x.cols()));
  const double n = static_cast<double>(small);
  std::uint64_t seen = svd_max_n_.load(std::memory_order_relaxed);
  while (small > seen &&
         !svd_max_n_.compare_exchange_weak(seen, small,
                                           std::memory_order_relaxed)) {
  }
  timed(svd_, 6.0 * m * n * n + 20.0 * n * n * n,
        [&] { inner_.svd_into(x, out, ws); });
}

void TracingBackend::reset() {
  for (Counter* c : {&gemm_, &project_out_, &qr_, &svd_}) {
    c->calls = 0;
    c->busy_ns = 0;
    c->flops = 0;
  }
  svd_max_n_ = 0;
}

LinalgTotals TracingBackend::totals() const {
  const auto read = [](const Counter& c) {
    KernelTotals t;
    t.calls = c.calls.load();
    t.busy_s = static_cast<double>(c.busy_ns.load()) * 1e-9;
    t.gflop = static_cast<double>(c.flops.load()) * 1e-9;
    return t;
  };
  LinalgTotals t;
  t.gemm = read(gemm_);
  t.project_out = read(project_out_);
  t.qr = read(qr_);
  t.svd = read(svd_);
  t.svd_max_n = svd_max_n_.load();
  return t;
}

// --- ProbeSource ------------------------------------------------------------

std::optional<Mat> ProbeSource::next_chunk() {
  const double requested = now_s();
  std::optional<Mat> chunk = inner_.next_chunk();
  const double handed_out = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  busy_s_ += handed_out - requested;
  if (chunk) handouts_.push_back(handed_out);
  return chunk;
}

std::optional<double> ProbeSource::handed_out_at(std::size_t k) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (k >= handouts_.size()) return std::nullopt;
  return handouts_[k];
}

std::size_t ProbeSource::handed_out() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return handouts_.size();
}

double ProbeSource::busy_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return busy_s_;
}

// --- ProbeSink --------------------------------------------------------------

void ProbeSink::record(const AssessmentSnapshot& snapshot, double t) {
  const std::uint64_t digest = snapshot_digest(snapshot);
  if (observe_) observe_(snapshot);
  std::lock_guard<std::mutex> lock(mutex_);
  if (snapshot.chunk_index != arrivals_.size()) in_order_ = false;
  Fnv1a fold;
  fold.value(digest_);
  fold.value(digest);
  digest_ = fold.digest();
  arrivals_.push_back({t, snapshot.chunk_snapshots, snapshot.fit_seconds,
                       snapshot.coarse_fit_seconds});
  new_nodes_ += report_sum(snapshot, &PartialFitReport::new_nodes);
  grid_columns_ += report_sum(snapshot, &PartialFitReport::new_grid_columns);
}

void ProbeSink::finish_delivery(double t) {
  const double done = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  deliver_s_ += done - t;
  released_.push_back(done);
}

bool ProbeSink::on_snapshot(const AssessmentSnapshot& snapshot) {
  const double t = now_s();
  record(snapshot, t);
  const bool keep_going = inner_ == nullptr || inner_->on_snapshot(snapshot);
  finish_delivery(t);
  return keep_going;
}

bool ProbeSink::on_snapshot(AssessmentSnapshot&& snapshot) {
  const double t = now_s();
  record(snapshot, t);
  const bool keep_going =
      inner_ == nullptr || inner_->on_snapshot(std::move(snapshot));
  finish_delivery(t);
  return keep_going;
}

void ProbeSink::on_checkpoint_written(const std::string& path,
                                      std::size_t chunk_index) {
  const double t = now_s();
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++checkpoints_;
    if (!released_.empty()) checkpoint_s_ += t - released_.back();
    if (!ec) checkpoint_bytes_ += bytes;
  }
  if (inner_ != nullptr) inner_->on_checkpoint_written(path, chunk_index);
  std::lock_guard<std::mutex> lock(mutex_);
  if (!released_.empty()) released_.back() = now_s();
}

void ProbeSink::on_end(const imrdmd::core::RunSummary& summary) {
  if (inner_ != nullptr) inner_->on_end(summary);
}

std::vector<Arrival> ProbeSink::arrivals() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arrivals_;
}

std::size_t ProbeSink::delivered() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return arrivals_.size();
}

bool ProbeSink::in_order() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_order_;
}

std::uint64_t ProbeSink::stream_digest() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return digest_;
}

double ProbeSink::deliver_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deliver_s_;
}

std::uint64_t ProbeSink::new_nodes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return new_nodes_;
}

std::uint64_t ProbeSink::grid_columns() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return grid_columns_;
}

std::size_t ProbeSink::checkpoints() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoints_;
}

double ProbeSink::checkpoint_s() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_s_;
}

std::uint64_t ProbeSink::checkpoint_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_bytes_;
}

std::vector<double> ProbeSink::released() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return released_;
}

}  // namespace perfbench
