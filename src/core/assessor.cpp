#include "core/assessor.hpp"

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "core/checkpoint.hpp"
#include "linalg/backend.hpp"

namespace imrdmd::core {

namespace {

/// Gathers the rows listed in `group` out of `chunk` (group order).
Mat gather_rows(const Mat& chunk, const std::vector<std::size_t>& group) {
  Mat out(group.size(), chunk.cols());
  for (std::size_t i = 0; i < group.size(); ++i) {
    const double* src = chunk.data() + group[i] * chunk.cols();
    std::copy(src, src + chunk.cols(), out.data() + i * chunk.cols());
  }
  return out;
}

/// The groups must partition [0, sensors) exactly: every magnitude slot is
/// written once, so the merged vectors are total and unambiguous.
void validate_partition(const std::vector<std::vector<std::size_t>>& groups,
                        std::size_t sensors) {
  std::vector<bool> covered(sensors, false);
  for (const auto& group : groups) {
    IMRDMD_REQUIRE_ARG(!group.empty(), "assessor group is empty");
    for (std::size_t p : group) {
      IMRDMD_REQUIRE_ARG(p < sensors,
                         "assessor group sensor index out of range");
      IMRDMD_REQUIRE_ARG(!covered[p], "assessor groups overlap");
      covered[p] = true;
    }
  }
  IMRDMD_REQUIRE_ARG(
      std::all_of(covered.begin(), covered.end(), [](bool c) { return c; }),
      "assessor groups do not cover every sensor");
}

/// Doubles a PartialFitReport travels the wire as. The counters are exact
/// through double for any realistic stream (< 2^53 snapshots), so the
/// gathered reports compare bitwise-equal to the single-process engine's.
constexpr std::size_t kReportWords = 8;

void encode_report(std::vector<double>& out, const PartialFitReport& report) {
  out.push_back(static_cast<double>(report.new_snapshots));
  out.push_back(static_cast<double>(report.total_snapshots));
  out.push_back(report.drift_grid);
  out.push_back(report.drift_estimate);
  out.push_back(report.drift_exceeded ? 1.0 : 0.0);
  out.push_back(report.recomputed ? 1.0 : 0.0);
  out.push_back(static_cast<double>(report.new_nodes));
  out.push_back(static_cast<double>(report.new_grid_columns));
}

PartialFitReport decode_report(const double* words) {
  PartialFitReport report;
  report.new_snapshots = static_cast<std::size_t>(words[0]);
  report.total_snapshots = static_cast<std::size_t>(words[1]);
  report.drift_grid = words[2];
  report.drift_estimate = words[3];
  report.drift_exceeded = words[4] != 0.0;
  report.recomputed = words[5] != 0.0;
  report.new_nodes = static_cast<std::size_t>(words[6]);
  report.new_grid_columns = static_cast<std::size_t>(words[7]);
  return report;
}

/// IMRDMD_HIERARCHY_STRIDE supplies the default coarse stride when the
/// config never called hierarchy() — the same opt-in shape as
/// IMRDMD_LINALG_BACKEND, so CI can re-run entire suites with the
/// hierarchy enabled. Unset/empty means flat; anything unparsable throws
/// (a typo must not silently run flat). strtoull would skip leading
/// whitespace and negate a leading '-' without an error, so the first
/// character must already be a digit.
std::size_t hierarchy_stride_from_env() {
  const char* value = std::getenv("IMRDMD_HIERARCHY_STRIDE");
  if (value == nullptr || *value == '\0') return 0;
  IMRDMD_REQUIRE_ARG(*value >= '0' && *value <= '9',
                     "IMRDMD_HIERARCHY_STRIDE is not a non-negative integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(value, &end, 10);
  IMRDMD_REQUIRE_ARG(errno == 0 && end != value && *end == '\0',
                     "IMRDMD_HIERARCHY_STRIDE is not a non-negative integer");
  return static_cast<std::size_t>(parsed);
}

/// "no row here" marker of local_row_of_sensor_.
constexpr std::size_t kNoRow = ~std::size_t{0};

/// Stream positions travel the per-chunk agreement as doubles; unknown is
/// encoded as -1 (a position is exact through double below 2^53).
double encode_position(std::size_t position) {
  return position == ChunkSource::kUnknownPosition
             ? -1.0
             : static_cast<double>(position);
}

std::size_t decode_position(double value) {
  return value < 0.0 ? ChunkSource::kUnknownPosition
                     : static_cast<std::size_t>(value);
}

/// Order-sensitive fold of the chunk's raw bit patterns, squashed into the
/// mantissa of a normal double in [1, 2) so it travels any collective
/// without NaN/Inf hazards. Used to verify SPMD chunk agreement: two ranks
/// disagreeing on the chunk CONTENT (not just its shape) would silently
/// desync their replicated z-score stages otherwise.
double chunk_digest(const Mat& chunk) {
  std::uint64_t acc = 0x9e3779b97f4a7c15ull;
  const double* data = chunk.data();
  for (std::size_t i = 0; i < chunk.size(); ++i) {
    std::uint64_t bits;
    std::memcpy(&bits, data + i, sizeof bits);
    acc ^= bits + 0x9e3779b97f4a7c15ull + (acc << 6) + (acc >> 2);
  }
  acc = (acc & 0x000fffffffffffffull) | 0x3ff0000000000000ull;
  double digest;
  std::memcpy(&digest, &acc, sizeof digest);
  return digest;
}

/// A prefetched chunk with the stream position it started at (read from
/// the source immediately before the pull; kUnknownPosition for sources
/// that cannot report one) — the distributed per-chunk agreement verifies
/// these starts across replicas.
struct Pulled {
  std::size_t start = ChunkSource::kUnknownPosition;
  Mat chunk;
};

/// The backpressure-aware ingestion queue: one producer thread pulls chunks
/// from the source into a bounded queue of `depth` slots, blocking while
/// the queue is full (so a bursty source never runs more than `depth`
/// chunks ahead of compute) and stopping once `budget` chunks have been
/// pulled (so a chunk-bounded run never over-consumes the source). The
/// producer is deliberately NOT a pool task: sources are free to use
/// parallel_for themselves, and a pool task fanning back out onto its own
/// pool would block a worker on work only that worker can run.
///
/// A pulled chunk is never dropped: drain() stops the producer and returns
/// every chunk that was queued but not yet popped, in pull order, so the
/// run loop can park them for the next call.
class ChunkPrefetcher {
 public:
  ChunkPrefetcher(ChunkSource& source, std::size_t depth, std::size_t budget)
      : source_(source),
        depth_(std::max<std::size_t>(depth, 1)),
        budget_(budget) {
    worker_ = std::thread([this] { produce(); });
  }

  ~ChunkPrefetcher() { stop_and_join(); }

  ChunkPrefetcher(const ChunkPrefetcher&) = delete;
  ChunkPrefetcher& operator=(const ChunkPrefetcher&) = delete;

  /// Next chunk in stream order; blocks until the producer has one.
  /// Returns nullopt at end of stream (or once the pull budget is spent —
  /// the caller's own stop condition fires first by construction).
  /// Rethrows a source exception at the position it occurred.
  std::optional<Pulled> pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    data_cv_.wait(lock, [this] {
      return !queue_.empty() || error_ != nullptr || done_;
    });
    if (!queue_.empty()) {
      Pulled pulled = std::move(queue_.front());
      queue_.pop_front();
      room_cv_.notify_all();
      return pulled;
    }
    if (error_ != nullptr) {
      std::rethrow_exception(std::exchange(error_, nullptr));
    }
    return std::nullopt;
  }

  /// Stops the producer and returns the chunks it pulled but the caller
  /// never popped, in pull order.
  std::deque<Pulled> drain() {
    stop_and_join();
    std::lock_guard<std::mutex> lock(mutex_);
    return std::exchange(queue_, {});
  }

 private:
  void produce() {
    try {
      while (true) {
        {
          std::unique_lock<std::mutex> lock(mutex_);
          room_cv_.wait(lock,
                        [this] { return stop_ || queue_.size() < depth_; });
          if (stop_ || pulled_ >= budget_) break;
        }
        // Pull outside the lock; the chunk is pushed unconditionally
        // afterwards so a stop request can never discard a consumed chunk.
        const std::size_t start = source_.position();
        std::optional<Mat> chunk = source_.next_chunk();
        std::lock_guard<std::mutex> lock(mutex_);
        ++pulled_;
        if (!chunk.has_value()) break;
        queue_.push_back(Pulled{start, std::move(*chunk)});
        data_cv_.notify_all();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      error_ = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mutex_);
    done_ = true;
    data_cv_.notify_all();
  }

  void stop_and_join() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
      room_cv_.notify_all();
    }
    if (worker_.joinable()) worker_.join();
  }

  ChunkSource& source_;
  const std::size_t depth_;
  const std::size_t budget_;
  std::thread worker_;
  std::mutex mutex_;
  std::condition_variable data_cv_;
  std::condition_variable room_cv_;
  std::deque<Pulled> queue_;
  std::exception_ptr error_;
  std::size_t pulled_ = 0;
  bool stop_ = false;
  bool done_ = false;
};

}  // namespace

MagnitudeUpdate update_magnitudes(IncrementalMrdmd& model, const Mat& chunk,
                                  const dmd::ModeBand& band) {
  MagnitudeUpdate update;
  WallTimer timer;
  if (!model.fitted()) {
    model.initial_fit(chunk);
  } else {
    update.report = model.partial_fit(chunk);
  }
  update.fit_seconds = timer.seconds();
  update.magnitudes = model.magnitudes(&band);
  update.sensor_means = row_means(chunk);
  return update;
}

Assessor::Assessor(AssessorConfig config)
    : config_(std::move(config)),
      comm_(config_.comm),
      zscore_stage_(config_.pipeline_options.baseline,
                    config_.pipeline_options.zscore,
                    config_.pipeline_options.reselect_baseline_per_chunk) {
  // Backend selection first: it can throw (unknown name), and nothing
  // below should have touched process-wide state by then.
  if (!config_.linalg_backend.empty()) {
    linalg::set_active_backend(config_.linalg_backend);
  }
  // A checkpoint policy armed without a destination would silently never
  // write anything; fail fast at configuration time instead.
  IMRDMD_REQUIRE_ARG(
      config_.checkpoint_policy.every_n == 0 ||
          !config_.checkpoint_policy.path.empty(),
      "checkpoint policy armed (every_n > 0) without a path — the policy "
      "would be silently disarmed; set a path or every_n = 0");
  // Resolve the effective stride once, at construction: an explicit
  // hierarchy() call (including checkpoint resume) pins it; otherwise the
  // environment default applies.
  if (!config_.hierarchy_set) {
    config_.coarse_stride = hierarchy_stride_from_env();
    config_.hierarchy_set = true;
  }
  if (config_.sensor_count == 0) {
    // Deferred sensor count: only the single-process monolithic topology
    // can infer P from the first chunk (a sharded partition names sensor
    // indices up front, and distributed peers size their replica buffers
    // from P before any data arrives).
    IMRDMD_REQUIRE_ARG(
        config_.groups.empty() && comm_ == nullptr,
        "sensor count is required for the sharded and distributed "
        "topologies (only the monolithic topology can infer it from the "
        "first chunk)");
    local_begin_ = 0;
    local_end_ = 1;
    lanes_ = 1;
    stack_.add_fine(config_.pipeline_options.imrdmd);
  } else {
    finalize_topology(config_.sensor_count);
  }
}

void Assessor::finalize_topology(std::size_t sensors) {
  IMRDMD_REQUIRE_ARG(sensors > 0, "assessor needs at least one sensor");
  sensors_ = sensors;
  groups_ = config_.groups;
  if (groups_.empty()) {
    groups_ = contiguous_groups(sensors_, 1);
  }
  validate_partition(groups_, sensors_);

  if (comm_ != nullptr) {
    const auto range = rank_group_range(
        groups_.size(), static_cast<std::size_t>(comm_->size()),
        static_cast<std::size_t>(comm_->rank()));
    local_begin_ = range.first;
    local_end_ = range.second;
  } else {
    local_begin_ = 0;
    local_end_ = groups_.size();
  }
  const std::size_t local_count = local_end_ - local_begin_;

  // Lane count is a *local* knob: each process spreads only its own
  // groups. A rank owning no groups still participates in every collective
  // with an empty contribution.
  lanes_ = config_.lanes == 0 ? std::max<std::size_t>(local_count, 1)
                              : config_.lanes;
  lanes_ = std::min(lanes_, std::max<std::size_t>(local_count, 1));

  ImrdmdOptions model_options = config_.pipeline_options.imrdmd;
  // A single lane runs on the caller thread, where the model may keep its
  // parallel-bin fits (bitwise serial-identical per the determinism suite);
  // with real lanes the updates are pool tasks and must not nest the pool.
  if (lanes_ > 1) model_options.mrdmd.parallel_bins = false;
  // The deferred-monolithic constructor path already created the single
  // model (so model() works before the first chunk); every other path
  // creates the owned fine models here.
  if (stack_.fine_count() == 0) {
    for (std::size_t l = 0; l < local_count; ++l) {
      stack_.add_fine(model_options);
    }
  }
  // The coarse facility model runs unsharded on the caller thread of every
  // engine replica, so it keeps the configured options as-is (its
  // parallel-bin fits never nest the pool).
  if (config_.coarse_stride > 0 && !stack_.hierarchical()) {
    stack_.enable_coarse(groups_, sensors_, config_.coarse_stride,
                         config_.pipeline_options.imrdmd);
  }

  rebuild_owned_maps();
  group_cost_ewma_.assign(local_count, 0.0);
  rebalance_lanes();
}

void Assessor::rebuild_owned_maps() {
  owned_rows_.clear();
  group_of_sensor_.assign(sensors_, 0);
  local_row_of_sensor_.assign(sensors_, kNoRow);
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    for (std::size_t sensor : groups_[g]) group_of_sensor_[sensor] = g;
  }
  for (std::size_t g = local_begin_; g < local_end_; ++g) {
    for (std::size_t sensor : groups_[g]) {
      local_row_of_sensor_[sensor] = owned_rows_.size();
      owned_rows_.push_back(sensor);
    }
  }
  owned_rows_in_order_ = owned_rows_.size() == sensors_;
  for (std::size_t i = 0; owned_rows_in_order_ && i < sensors_; ++i) {
    owned_rows_in_order_ = owned_rows_[i] == i;
  }
}

void Assessor::rebalance_lanes() {
  const std::size_t local_count = local_end_ - local_begin_;
  lane_groups_.assign(lanes_, {});
  if (local_count == 0) return;
  // LPT greedy over the cost model: group width scaled by the observed
  // update-seconds EWMA once one exists (before the first chunk every
  // EWMA is 0 and width alone balances). Deterministic: ties broken by
  // lower group index, then lower lane index.
  std::vector<std::pair<double, std::size_t>> order(local_count);
  for (std::size_t l = 0; l < local_count; ++l) {
    const double width =
        static_cast<double>(groups_[local_begin_ + l].size());
    const double ewma = group_cost_ewma_[l];
    order[l] = {ewma > 0.0 ? width * ewma : width, l};
  }
  std::sort(order.begin(), order.end(),
            [](const std::pair<double, std::size_t>& a,
               const std::pair<double, std::size_t>& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::vector<double> load(lanes_, 0.0);
  for (const auto& [cost, l] : order) {
    std::size_t lane = 0;
    for (std::size_t k = 1; k < lanes_; ++k) {
      if (load[k] < load[lane]) lane = k;
    }
    lane_groups_[lane].push_back(l);
    load[lane] += cost;
  }
  // In-lane order is ascending local index (the merge is global-group
  // ordered regardless; this just keeps per-lane traversal predictable).
  for (auto& lane : lane_groups_) std::sort(lane.begin(), lane.end());
}

ThreadPool& Assessor::pool() const {
  return config_.worker_pool != nullptr ? *config_.worker_pool
                                        : global_pool();
}

const IncrementalMrdmd& Assessor::model(std::size_t group) const {
  IMRDMD_REQUIRE_ARG(group >= local_begin_ && group < local_end_,
                     "this process does not own the requested group");
  return stack_.fine(group - local_begin_);
}

void Assessor::require_agreement(std::span<const double> meta,
                                 const char* what) const {
  // One allgather shows every rank every peer's meta; on any disagreement
  // every rank sees the same slots and finds some slot differing from its
  // own, so all ranks throw together instead of deadlocking in a later
  // collective.
  const std::vector<std::vector<double>> metas = comm_->allgatherv(meta);
  for (const auto& slot : metas) {
    if (slot.size() != meta.size() ||
        std::memcmp(slot.data(), meta.data(), meta.size_bytes()) != 0) {
      throw InvalidArgument(what);
    }
  }
}

AssessmentSnapshot Assessor::process(const Mat& chunk) {
  if (sensors_ == 0) finalize_topology(chunk.rows());
  IMRDMD_REQUIRE_ARG(chunk.cols() > 0,
                     "assessor chunk has no snapshot columns");
  IMRDMD_REQUIRE_ARG(
      chunk.rows() == sensors_,
      "assessor chunk row count differs from the configured sensors");

  if (comm_ != nullptr) {
    // SPMD agreement: every rank must be processing the same chunk — width
    // AND content (a content disagreement would silently desync the
    // replicated coarse models and z-score stages).
    const double meta[2] = {static_cast<double>(chunk.cols()),
                            chunk_digest(chunk)};
    require_agreement(meta,
                      "distributed assessor ranks disagree on the chunk "
                      "(width or content)");
  }

  // Read this process's owned rows and the coarse grid rows off the full
  // chunk. Owned rows that are the chunk's rows in order (monolithic, or
  // every contiguous group on one process) pass straight through — no
  // gather copy.
  Mat owned;
  if (!owned_rows_in_order_) owned = gather_rows(chunk, owned_rows_);
  return fold_and_score(
      owned_rows_in_order_ ? chunk : owned,
      stack_.hierarchical() ? gather_rows(chunk, stack_.coarse_rows())
                            : Mat(),
      chunk.cols());
}

CoarseUpdate Assessor::fold(const Mat& local_rows, const Mat& coarse_chunk,
                            std::size_t cols,
                            std::vector<MagnitudeUpdate>& updates) {
  IMRDMD_REQUIRE_DIMS(
      local_rows.rows() == owned_rows_.size() && local_rows.cols() == cols,
      "chunk slice differs from this process's owned sensor rows");
  const std::size_t local_count = local_end_ - local_begin_;
  updates.assign(local_count, MagnitudeUpdate{});
  const dmd::ModeBand& band = config_.pipeline_options.band;

  // Coarse level first (hierarchy mode): one deterministic update per
  // engine replica, on the caller thread, over the same coarse grid rows on
  // every replica — so the replicated coarse models stay bitwise identical
  // with no extra collective. The fine models then fit the residual.
  const bool hierarchical = stack_.hierarchical();
  CoarseUpdate coarse;
  Mat residual_rows;
  std::vector<double> raw_means;
  if (hierarchical) {
    coarse = stack_.update_coarse(coarse_chunk, band, owned_rows_,
                                  local_rows, residual_rows);
    // The fine updates compute means of the RESIDUAL rows; the baseline
    // value-range rule reads physical values, so the raw per-row means
    // replace them (row means are per-row independent, so these are
    // bitwise the per-group means of the raw rows).
    raw_means = row_means(local_rows);
  }
  // Owned-slice layout: the rows of local group l occupy the contiguous
  // block starting at the prefix sum of the earlier owned groups' widths.
  std::vector<std::size_t> offsets(local_count, 0);
  for (std::size_t l = 1; l < local_count; ++l) {
    offsets[l] = offsets[l - 1] + groups_[local_begin_ + l - 1].size();
  }
  const Mat& fine_input = hierarchical ? residual_rows : local_rows;
  run_lanes(
      lanes_,
      [&](std::size_t lane) {
        for (std::size_t l : lane_groups_[lane]) {
          const std::size_t width = groups_[local_begin_ + l].size();
          // A group spanning the whole owned slice (monolithic) fits it in
          // place; the others fit a copy of their block.
          updates[l] = width == fine_input.rows()
                           ? update_magnitudes(stack_.fine(l), fine_input,
                                               band)
                           : update_magnitudes(
                                 stack_.fine(l),
                                 fine_input.block(offsets[l], 0, width, cols),
                                 band);
          if (hierarchical) {
            const auto first =
                raw_means.begin() + static_cast<std::ptrdiff_t>(offsets[l]);
            updates[l].sensor_means.assign(
                first, first + static_cast<std::ptrdiff_t>(width));
          }
        }
      },
      &pool());
  return coarse;
}

AssessmentSnapshot Assessor::fold_and_score(const Mat& local_rows,
                                            const Mat& coarse_chunk,
                                            std::size_t cols) {
  WallTimer timer;
  std::vector<MagnitudeUpdate> updates;
  CoarseUpdate coarse = fold(local_rows, coarse_chunk, cols, updates);

  AssessmentSnapshot snapshot;
  snapshot.chunk_index = chunks_processed_;
  snapshot.chunk_snapshots = cols;
  const std::size_t local_count = local_end_ - local_begin_;

  // Merge in deterministic global group order. Each process contributes,
  // for each owned group in order, [magnitudes | sensor_means | report];
  // the distributed topology allgathers the contributions and a single
  // process is the one-rank case. Boundaries are recovered from the shared
  // ownership map, so every rank decodes the identical global sequence.
  std::vector<double> local_blob;
  local_blob.reserve(2 * owned_rows_.size() + kReportWords * local_count);
  for (std::size_t l = 0; l < local_count; ++l) {
    local_blob.insert(local_blob.end(), updates[l].magnitudes.begin(),
                      updates[l].magnitudes.end());
    local_blob.insert(local_blob.end(), updates[l].sensor_means.begin(),
                      updates[l].sensor_means.end());
    encode_report(local_blob, updates[l].report);
  }
  std::vector<std::vector<double>> blobs;
  if (comm_ != nullptr) {
    blobs = comm_->allgatherv(
        std::span<const double>(local_blob.data(), local_blob.size()));
  } else {
    blobs.push_back(std::move(local_blob));
  }

  snapshot.magnitudes.assign(sensors_, 0.0);
  snapshot.sensor_means.assign(sensors_, 0.0);
  snapshot.reports.resize(groups_.size());
  for (std::size_t r = 0; r < blobs.size(); ++r) {
    const auto range = rank_group_range(groups_.size(), blobs.size(), r);
    const std::vector<double>& blob = blobs[r];
    std::size_t expected = 0;
    for (std::size_t g = range.first; g < range.second; ++g) {
      expected += 2 * groups_[g].size() + kReportWords;
    }
    IMRDMD_REQUIRE_DIMS(
        blob.size() == expected,
        "distributed assessor rank contribution has the wrong length");
    const double* cursor = blob.data();
    for (std::size_t g = range.first; g < range.second; ++g) {
      const auto& group = groups_[g];
      for (std::size_t i = 0; i < group.size(); ++i) {
        snapshot.magnitudes[group[i]] = cursor[i];
        snapshot.sensor_means[group[i]] = cursor[group.size() + i];
      }
      snapshot.reports[g] = decode_report(cursor + 2 * group.size());
      cursor += 2 * group.size() + kReportWords;
    }
  }
  snapshot.total_snapshots = snapshots_seen_ + cols;
  snapshot.fit_seconds = timer.seconds();

  if (stack_.hierarchical()) {
    // The merged sensor_means carry RAW per-row means (substituted by the
    // fold), so the baseline value-range rule reads physical temperatures.
    snapshot.coarse_magnitudes = std::move(coarse.magnitudes);
    snapshot.coarse_report = coarse.report;
    snapshot.coarse_fit_seconds = coarse.fit_seconds;
    ReconciledZscores reconciled = zscore_stage_.apply_reconciled(
        std::span<const double>(snapshot.magnitudes.data(),
                                snapshot.magnitudes.size()),
        std::span<const double>(snapshot.coarse_magnitudes.data(),
                                snapshot.coarse_magnitudes.size()),
        std::span<const double>(snapshot.sensor_means.data(),
                                snapshot.sensor_means.size()));
    snapshot.zscores = std::move(reconciled.combined);
    snapshot.coarse_zscores = std::move(reconciled.coarse_zscores);
    snapshot.residual_zscores = std::move(reconciled.residual_zscores);
  } else {
    snapshot.zscores = zscore_stage_.apply(
        std::span<const double>(snapshot.magnitudes.data(),
                                snapshot.magnitudes.size()),
        std::span<const double>(snapshot.sensor_means.data(),
                                snapshot.sensor_means.size()));
  }

  // Feed the cost model: each local group's observed update seconds fold
  // into its EWMA (first observation seeds it). rebalance_lanes() reads
  // these at checkpoint boundaries only, so mid-interval snapshots stay
  // bitwise independent of the timings.
  for (std::size_t l = 0; l < local_count; ++l) {
    const double fit = updates[l].fit_seconds;
    group_cost_ewma_[l] = group_cost_ewma_[l] == 0.0
                              ? fit
                              : 0.7 * group_cost_ewma_[l] + 0.3 * fit;
  }
  snapshots_seen_ += cols;
  ++chunks_processed_;
  return snapshot;
}

void Assessor::check_stream_position(std::size_t start, std::size_t cols) {
  if (start == ChunkSource::kUnknownPosition) {
    // A source that cannot report positions disables the check from here
    // on (resuming it into checkpointing already fails fast elsewhere).
    stream_expect_ = ChunkSource::kUnknownPosition;
    return;
  }
  if (stream_expect_ != ChunkSource::kUnknownPosition &&
      stream_expect_ != start) {
    throw StreamDesync(
        "chunk starts at stream position " + std::to_string(start) +
        " but the engine expected " + std::to_string(stream_expect_) +
        " — was the source seek'd to the wrong snapshot after resume?");
  }
  stream_expect_ = start + cols;
}

Mat Assessor::assemble_coarse(const Mat& local_rows, std::size_t cols) {
  // Each rank contributes the coarse grid rows it owns, in ascending grid
  // order; one allgatherv then lets every rank reassemble the full coarse
  // chunk (coarse row order) bitwise identically.
  const std::vector<std::size_t>& grid = stack_.coarse_rows();
  std::vector<double> mine;
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const std::size_t row = local_row_of_sensor_[grid[j]];
    if (row == kNoRow) continue;
    const double* src = local_rows.data() + row * cols;
    mine.insert(mine.end(), src, src + cols);
  }
  const std::vector<std::vector<double>> all = comm_->allgatherv(
      std::span<const double>(mine.data(), mine.size()));

  const std::size_t ranks = static_cast<std::size_t>(comm_->size());
  std::vector<std::size_t> owner_of_group(groups_.size(), 0);
  for (std::size_t r = 0; r < ranks; ++r) {
    const auto range = rank_group_range(groups_.size(), ranks, r);
    for (std::size_t g = range.first; g < range.second; ++g) {
      owner_of_group[g] = r;
    }
  }
  Mat coarse_chunk(grid.size(), cols);
  std::vector<std::size_t> cursor(ranks, 0);
  for (std::size_t j = 0; j < grid.size(); ++j) {
    const std::size_t r = owner_of_group[group_of_sensor_[grid[j]]];
    IMRDMD_REQUIRE_DIMS(cursor[r] + cols <= all[r].size(),
                        "coarse grid contribution shorter than the grid "
                        "rows its rank owns");
    std::copy(all[r].data() + cursor[r], all[r].data() + cursor[r] + cols,
              coarse_chunk.data() + j * cols);
    cursor[r] += cols;
  }
  for (std::size_t r = 0; r < ranks; ++r) {
    IMRDMD_REQUIRE_DIMS(cursor[r] == all[r].size(),
                        "coarse grid contribution longer than the grid rows "
                        "its rank owns");
  }
  return coarse_chunk;
}

std::vector<std::size_t> Assessor::owned_sensor_rows() const {
  return owned_rows_;
}

void Assessor::add_sensors(std::size_t group, const Mat& new_rows_history) {
  IMRDMD_REQUIRE_ARG(sensors_ > 0,
                     "add_sensors before the topology is finalized");
  IMRDMD_REQUIRE_ARG(group < groups_.size(), "add_sensors group out of range");
  IMRDMD_REQUIRE_ARG(new_rows_history.rows() > 0,
                     "add_sensors needs at least one new sensor row");
  IMRDMD_REQUIRE_ARG(chunks_processed_ >= 1,
                     "add_sensors needs at least one processed chunk (the "
                     "joined sensors extend a fitted model)");
  IMRDMD_REQUIRE_DIMS(
      new_rows_history.cols() == snapshots_seen_,
      "add_sensors history column count differs from the snapshots the "
      "engine has seen");
  if (comm_ != nullptr) {
    // Collective agreement: growth changes every rank's buffer sizes and
    // merge layout, so all ranks must request the identical growth — group,
    // shape, AND history content — or all throw together.
    const double meta[4] = {static_cast<double>(group),
                            static_cast<double>(new_rows_history.rows()),
                            static_cast<double>(new_rows_history.cols()),
                            chunk_digest(new_rows_history)};
    require_agreement(meta,
                      "distributed assessor ranks disagree on the sensor "
                      "growth (group, shape, or history content)");
  }

  const std::size_t width = new_rows_history.rows();
  std::vector<std::size_t> new_sensors(width);
  for (std::size_t j = 0; j < width; ++j) new_sensors[j] = sensors_ + j;
  groups_[group].insert(groups_[group].end(), new_sensors.begin(),
                        new_sensors.end());
  sensors_ += width;
  config_.sensor_count = sensors_;
  config_.groups = groups_;
  rebuild_owned_maps();

  const bool owned = group >= local_begin_ && group < local_end_;
  if (stack_.hierarchical()) {
    // Every replica grows its coarse model (it is replicated); only the
    // owning rank extends the group's fine model, with the RESIDUAL
    // history the grown coarse level hands back.
    Mat residual_history =
        stack_.grow_coarse(new_sensors, sensors_, new_rows_history);
    if (owned) {
      stack_.fine(group - local_begin_).add_sensors(residual_history);
    }
  } else if (owned) {
    stack_.fine(group - local_begin_).add_sensors(new_rows_history);
  }
  rebalance_lanes();
}

bool Assessor::deliver(SnapshotSink& sink, AssessmentSnapshot&& snapshot,
                       RunSummary& summary) {
  const std::size_t cols = snapshot.chunk_snapshots;
  bool keep_going = true;
  try {
    keep_going = sink.on_snapshot(std::move(snapshot));
  } catch (...) {
    // Exactly-once across runs: the chunk is already folded into the
    // models, so the snapshot cannot be regenerated — park it for the next
    // run's sink instead of losing it with the unwind. (An observing sink
    // leaves the snapshot untouched through the default rvalue forwarder;
    // see SnapshotSink::on_snapshot.) The slot is free: the run loop
    // drains it before any new delivery, and a throw ends the run.
    parked_snapshot_ = std::move(snapshot);
    throw;
  }
  ++summary.chunks;
  summary.snapshots += cols;
  return keep_going;
}

void Assessor::maybe_checkpoint(SnapshotSink& sink, std::size_t chunk_index) {
  const CheckpointPolicy& policy = config_.checkpoint_policy;
  if (policy.every_n == 0 || chunks_processed_ % policy.every_n != 0) return;
  save_assessor_checkpoint_file(policy.path, *this);
  sink.on_checkpoint_written(policy.path, chunk_index);
  // Checkpoint boundaries are the only place lane assignment may move:
  // in between, the assignment is frozen so snapshots stay bitwise
  // independent of wall-clock timings (a checkpoint is already a resume
  // boundary, so a resumed engine rebalancing here matches).
  rebalance_lanes();
}

RunSummary Assessor::run(ChunkSource& source, SnapshotSink& sink) {
  return run_until(&source, sink, StopCondition{});
}

RunSummary Assessor::run_until(ChunkSource& source, SnapshotSink& sink,
                               const StopCondition& stop) {
  return run_until(&source, sink, stop);
}

RunSummary Assessor::run_until(ChunkSource* source, SnapshotSink& sink,
                               const StopCondition& stop) {
  const bool root = comm_ == nullptr || comm_->rank() == 0;
  const IngestMode mode = config_.ingest_options.mode;
  if (comm_ != nullptr) {
    if (mode == IngestMode::PerRank) {
      // Per-rank ingestion: EVERY rank pulls its own slice from its own
      // source (e.g. a RowSliceSource over this rank's owned_sensor_rows(),
      // or a rank-sharded reader) — rank 0 never sees the peers' bytes.
      IMRDMD_REQUIRE_ARG(source != nullptr,
                         "per-rank ingestion needs a chunk source on every "
                         "rank");
      IMRDMD_REQUIRE_ARG(
          source->sensors() == owned_rows_.size(),
          "per-rank source row count differs from this rank's owned sensor "
          "rows (slice it with owned_sensor_rows())");
    } else {
      IMRDMD_REQUIRE_ARG(root == (source != nullptr),
                         "the chunk source lives on rank 0 only (pass "
                         "nullptr on the other ranks)");
    }
  } else {
    IMRDMD_REQUIRE_ARG(source != nullptr,
                       "run needs a chunk source in the single-process "
                       "topologies");
  }
  if (sensors_ == 0 && source != nullptr) {
    finalize_topology(source->sensors());
  }
  // Fail fast on un-resumable checkpointing: an armed policy over a source
  // that cannot report a position would write checkpoints that can never
  // be seek'd on resume. Before anything is pulled, so nothing is lost.
  if (source != nullptr && config_.checkpoint_policy.every_n > 0 &&
      source->position() == ChunkSource::kUnknownPosition) {
    throw InvalidArgument(
        "checkpoint policy armed over a source that cannot report its "
        "position — the checkpoint could never be resumed; implement "
        "position()/seek() or disarm the policy");
  }

  WallTimer run_timer;
  RunSummary summary;
  const auto budget_hit = [&]() -> std::optional<StopReason> {
    if (stop.max_chunks != 0 && summary.chunks >= stop.max_chunks) {
      return StopReason::MaxChunks;
    }
    if (stop.max_snapshots != 0 && summary.snapshots >= stop.max_snapshots) {
      return StopReason::MaxSnapshots;
    }
    return std::nullopt;
  };

  // Deliver the snapshot parked by a previous run whose sink delivery
  // threw: its chunk is folded into the models, so the result (alarms
  // included) cannot be regenerated. It counts toward this run's stop
  // budgets, like the legacy drivers' parked-snapshot accounting.
  if (parked_snapshot_.has_value()) {
    if (const auto reason = budget_hit()) {
      summary.reason = *reason;
      sink.on_end(summary);
      return summary;
    }
    AssessmentSnapshot snapshot = std::move(*parked_snapshot_);
    parked_snapshot_.reset();
    if (!deliver(sink, std::move(snapshot), summary)) {
      summary.reason = StopReason::SinkRequest;
      sink.on_end(summary);
      return summary;
    }
  }

  // The prefetch pull budget: of the chunks this run may still process,
  // the parked carry chunks are consumed first — only the remainder may be
  // pulled from the source (so a chunk-bounded run never over-consumes
  // it). Budgets the chunk count cannot bound up front (snapshot columns,
  // wall clock, sink stop) instead drain any over-pulled chunks back into
  // the carry queue below.
  std::unique_ptr<ChunkPrefetcher> prefetcher;
  if (source != nullptr && config_.ingest_options.prefetch_depth > 0) {
    std::size_t pull_budget = ~std::size_t{0};
    if (stop.max_chunks != 0) {
      const std::size_t chunk_budget = stop.max_chunks - summary.chunks;
      pull_budget = chunk_budget > carry_chunks_.size()
                        ? chunk_budget - carry_chunks_.size()
                        : 0;
    }
    if (pull_budget > 0) {
      prefetcher = std::make_unique<ChunkPrefetcher>(
          *source, config_.ingest_options.prefetch_depth, pull_budget);
    }
  }
  // No pulled chunk is ever dropped: on every exit path the chunks the
  // prefetcher consumed but the loop never processed are parked, in
  // order, for the next run.
  const auto park_prefetched = [&] {
    if (prefetcher == nullptr) return;
    std::deque<Pulled> leftovers = prefetcher->drain();
    for (Pulled& pulled : leftovers) {
      carry_chunks_.push_back(
          CarriedChunk{pulled.start, std::move(pulled.chunk)});
    }
    prefetcher.reset();
  };
  const auto pull_next = [&]() -> std::optional<CarriedChunk> {
    if (!carry_chunks_.empty()) {
      CarriedChunk carried = std::move(carry_chunks_.front());
      carry_chunks_.pop_front();
      return carried;
    }
    if (prefetcher != nullptr) {
      std::optional<Pulled> pulled = prefetcher->pop();
      if (!pulled.has_value()) return std::nullopt;
      return CarriedChunk{pulled->start, std::move(pulled->chunk)};
    }
    const std::size_t start = source->position();
    std::optional<Mat> chunk = source->next_chunk();
    if (!chunk.has_value()) return std::nullopt;
    return CarriedChunk{start, std::move(*chunk)};
  };

  try {
    while (true) {
      if (const auto reason = budget_hit()) {
        summary.reason = *reason;
        break;
      }
      std::optional<CarriedChunk> current;
      StopReason end_reason = StopReason::EndOfStream;
      if (root) {
        // Only rank 0 evaluates the wall clock; in the distributed
        // topology the verdict travels in the handshake so ranks never
        // disagree on when the stream ends (per-rank mode included —
        // peers that already pulled a chunk park it for the next run).
        if (stop.max_seconds > 0.0 &&
            run_timer.seconds() >= stop.max_seconds) {
          end_reason = StopReason::Deadline;
        } else {
          current = pull_next();
        }
      } else if (mode == IngestMode::PerRank && source != nullptr) {
        current = pull_next();
      }
      if (comm_ != nullptr) {
        // A zero-column chunk must fail like it does everywhere else
        // (process() raises InvalidArgument) — never reach the handshake,
        // where a width of 0 is the end-of-stream sentinel and would
        // silently truncate the rest of the stream on every rank.
        IMRDMD_REQUIRE_ARG(!current.has_value() || current->chunk.cols() > 0,
                           "assessor chunk has no snapshot columns");
      }
      AssessmentSnapshot snapshot;
      if (comm_ == nullptr) {
        if (!current.has_value()) {
          summary.reason = end_reason;
          break;
        }
        check_stream_position(current->start_position,
                              current->chunk.cols());
        snapshot = process(current->chunk);
      } else if (mode == IngestMode::PerRank) {
        // Per-chunk agreement: every rank announces (width, end reason,
        // stream position) of the slice it pulled; widths and known
        // positions must agree or the replica streams have drifted apart
        // and every rank throws StreamDesync together.
        const double my_meta[3] = {
            current.has_value()
                ? static_cast<double>(current->chunk.cols())
                : 0.0,
            static_cast<double>(static_cast<int>(end_reason)),
            current.has_value() ? encode_position(current->start_position)
                                : -1.0};
        const std::vector<std::vector<double>> metas =
            comm_->allgatherv(std::span<const double>(my_meta, 3));
        std::optional<StopReason> ended;
        std::size_t cols = 0;
        std::size_t agreed_start = ChunkSource::kUnknownPosition;
        for (const auto& slot : metas) {
          IMRDMD_REQUIRE_DIMS(slot.size() == 3,
                              "per-rank chunk agreement slot has the wrong "
                              "length");
          const std::size_t slot_cols = static_cast<std::size_t>(slot[0]);
          if (slot_cols == 0) {
            if (!ended.has_value()) {
              ended = static_cast<StopReason>(static_cast<int>(slot[1]));
            }
            continue;
          }
          if (cols != 0 && slot_cols != cols) {
            throw StreamDesync(
                "per-rank replica streams produced chunks of different "
                "widths (" + std::to_string(cols) + " vs " +
                std::to_string(slot_cols) + ")");
          }
          cols = slot_cols;
          const std::size_t slot_start = decode_position(slot[2]);
          if (slot_start == ChunkSource::kUnknownPosition) continue;
          if (agreed_start != ChunkSource::kUnknownPosition &&
              agreed_start != slot_start) {
            throw StreamDesync(
                "per-rank replica streams are at different positions (" +
                std::to_string(agreed_start) + " vs " +
                std::to_string(slot_start) + ")");
          }
          agreed_start = slot_start;
        }
        if (ended.has_value()) {
          // Every rank computed the same (ended, cols) from the shared
          // metas, so on a genuine length mismatch ALL ranks throw
          // together — not just the ones still holding data.
          if (cols != 0 && *ended != StopReason::Deadline) {
            throw StreamDesync(
                "some per-rank replica streams ended while others still "
                "have data — the replicas are not the same stream");
          }
          if (current.has_value()) {
            // Rank 0 hit the deadline after this rank already pulled;
            // park the chunk (front — it is the next one) for the next
            // run so nothing is lost.
            carry_chunks_.push_front(std::move(*current));
          }
          summary.reason = *ended;
          break;
        }
        check_stream_position(agreed_start, cols);
        snapshot = fold_and_score(
            current->chunk,
            stack_.hierarchical() ? assemble_coarse(current->chunk, cols)
                                  : Mat(),
            cols);
      } else {
        // Chunk handshake: rank 0 announces the next chunk's column count
        // (0 = no more chunks, with the reason) and its stream position so
        // peers can size their slice and verify stream continuity before
        // any data moves.
        double meta[3] = {
            root && current.has_value()
                ? static_cast<double>(current->chunk.cols())
                : 0.0,
            static_cast<double>(static_cast<int>(end_reason)),
            root && current.has_value()
                ? encode_position(current->start_position)
                : -1.0};
        comm_->broadcast(std::span<double>(meta, 3), 0);
        if (meta[0] == 0.0) {
          summary.reason = static_cast<StopReason>(static_cast<int>(meta[1]));
          break;
        }
        const std::size_t cols = static_cast<std::size_t>(meta[0]);
        check_stream_position(decode_position(meta[2]), cols);
        // Row-sliced delivery: each rank receives only the rows of the
        // groups it owns — O(P x T) total wire bytes per chunk, not the
        // whole chunk per rank. The send buffer is packed in rank-block
        // order (per rank, per owned group, per sensor row), and every
        // rank derives the identical counts from the shared ownership map.
        // A root chunk with the wrong row count throws on rank 0, which
        // poisons the world so the peers unwind from scatterv together.
        std::vector<std::size_t> counts(
            static_cast<std::size_t>(comm_->size()), 0);
        for (std::size_t r = 0; r < counts.size(); ++r) {
          const auto range =
              rank_group_range(groups_.size(), counts.size(), r);
          for (std::size_t g = range.first; g < range.second; ++g) {
            counts[r] += groups_[g].size() * cols;
          }
        }
        std::vector<double> send;
        if (root) {
          const Mat& chunk = current->chunk;
          IMRDMD_REQUIRE_DIMS(
              chunk.rows() == sensors_,
              "assessor chunk row count differs from the configured "
              "sensors");
          send.reserve(static_cast<std::size_t>(sensors_) * cols);
          for (std::size_t r = 0; r < counts.size(); ++r) {
            const auto range =
                rank_group_range(groups_.size(), counts.size(), r);
            for (std::size_t g = range.first; g < range.second; ++g) {
              for (std::size_t sensor : groups_[g]) {
                const double* row = chunk.data() + sensor * cols;
                send.insert(send.end(), row, row + cols);
              }
            }
          }
        }
        const std::vector<double> mine = comm_->scatterv(
            std::span<const double>(send.data(), send.size()), counts, 0);
        Mat local_rows(owned_rows_.size(), cols);
        if (!mine.empty()) {
          std::copy(mine.begin(), mine.end(), local_rows.data());
        }
        snapshot = fold_and_score(
            local_rows,
            stack_.hierarchical() ? assemble_coarse(local_rows, cols)
                                  : Mat(),
            cols);
      }
      const std::size_t chunk_index = snapshot.chunk_index;
      const bool keep_going = deliver(sink, std::move(snapshot), summary);
      // Delivery-before-checkpoint: the sink has seen everything a
      // checkpoint written here counts as past. A failed write parks the
      // prefetched chunks like any other failure; the snapshot itself was
      // already delivered, so retrying the run loses nothing.
      maybe_checkpoint(sink, chunk_index);
      if (!keep_going) {
        summary.reason = StopReason::SinkRequest;
        break;
      }
    }
  } catch (...) {
    park_prefetched();
    throw;
  }
  park_prefetched();
  sink.on_end(summary);
  return summary;
}

std::vector<std::vector<std::size_t>> contiguous_groups(std::size_t sensors,
                                                        std::size_t count) {
  IMRDMD_REQUIRE_ARG(count > 0 && count <= sensors,
                     "group count must be in [1, sensors]");
  std::vector<std::vector<std::size_t>> groups(count);
  const std::size_t base = sensors / count;
  const std::size_t extra = sensors % count;
  std::size_t next = 0;
  for (std::size_t g = 0; g < count; ++g) {
    const std::size_t size = base + (g < extra ? 1 : 0);
    groups[g].reserve(size);
    for (std::size_t i = 0; i < size; ++i) groups[g].push_back(next++);
  }
  return groups;
}

std::pair<std::size_t, std::size_t> rank_group_range(std::size_t groups,
                                                     std::size_t ranks,
                                                     std::size_t rank) {
  IMRDMD_REQUIRE_ARG(ranks > 0, "rank_group_range needs at least one rank");
  IMRDMD_REQUIRE_ARG(rank < ranks, "rank_group_range rank out of range");
  const std::size_t base = groups / ranks;
  const std::size_t extra = groups % ranks;
  const std::size_t begin = rank * base + std::min(rank, extra);
  return {begin, begin + base + (rank < extra ? 1 : 0)};
}

}  // namespace imrdmd::core
