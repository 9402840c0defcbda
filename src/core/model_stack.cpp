#include "core/model_stack.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"

namespace imrdmd::core {

std::vector<std::size_t> ModelStack::coarse_grid(
    const std::vector<std::vector<std::size_t>>& groups, std::size_t stride) {
  IMRDMD_REQUIRE_ARG(stride > 0, "coarse grid needs a positive stride");
  std::vector<std::size_t> rows;
  for (const auto& group : groups) {
    for (std::size_t i = 0; i < group.size(); i += stride) {
      rows.push_back(group[i]);
    }
  }
  return rows;
}

void ModelStack::enable_coarse(
    const std::vector<std::vector<std::size_t>>& groups, std::size_t sensors,
    std::size_t coarse_stride, const ImrdmdOptions& options) {
  IMRDMD_REQUIRE_ARG(coarse_stride > 0,
                     "hierarchy needs a positive coarse stride");
  IMRDMD_REQUIRE_ARG(coarse_ == nullptr, "coarse level already enabled");
  stride_ = coarse_stride;
  rows_ = coarse_grid(groups, coarse_stride);

  // Interpolation map, built per group so reconstruction never blends
  // across a group boundary: sensor at position i of a group sits between
  // the coarse rows at positions (i / stride) * stride and the next coarse
  // position, with constant extrapolation past the group's last coarse
  // sensor. Coarse row indices are recovered from the running offset of
  // each group's block inside the grid.
  interp_.assign(sensors, Interp{});
  std::vector<bool> seen(sensors, false);
  std::size_t offset = 0;  // first coarse row of the current group
  for (const auto& group : groups) {
    const std::size_t group_rows = (group.size() + stride_ - 1) / stride_;
    for (std::size_t i = 0; i < group.size(); ++i) {
      const std::size_t sensor = group[i];
      IMRDMD_REQUIRE_ARG(sensor < sensors && !seen[sensor],
                         "hierarchy groups do not partition the sensors");
      seen[sensor] = true;
      const std::size_t slot = i / stride_;
      Interp ip;
      ip.lo = offset + slot;
      if (i % stride_ == 0 || slot + 1 >= group_rows) {
        ip.hi = ip.lo;  // exact coarse sensor, or clamped tail
        ip.w = 0.0;
      } else {
        ip.hi = ip.lo + 1;
        ip.w = static_cast<double>(i - slot * stride_) /
               static_cast<double>(stride_);
      }
      interp_[sensor] = ip;
    }
    offset += group_rows;
  }
  IMRDMD_REQUIRE_ARG(
      std::all_of(seen.begin(), seen.end(), [](bool s) { return s; }),
      "hierarchy groups do not cover every sensor");
  coarse_ = std::make_unique<IncrementalMrdmd>(options);
}

const IncrementalMrdmd& ModelStack::coarse() const {
  IMRDMD_REQUIRE_ARG(coarse_ != nullptr,
                     "this stack has no coarse level (flat mode)");
  return *coarse_;
}

void ModelStack::subtract_interpolated(std::size_t sensor, const double* raw,
                                       const Mat& recon, double* out,
                                       std::size_t cols) const {
  const Interp& ip = interp_[sensor];
  const double* lo = recon.data() + ip.lo * cols;
  const double* hi = recon.data() + ip.hi * cols;
  for (std::size_t t = 0; t < cols; ++t) {
    out[t] = raw[t] - ((1.0 - ip.w) * lo[t] + ip.w * hi[t]);
  }
}

CoarseUpdate ModelStack::update_coarse(const Mat& coarse_chunk,
                                       const dmd::ModeBand& band,
                                       const std::vector<std::size_t>& sensors,
                                       const Mat& raw_rows,
                                       Mat& residual_rows) {
  IMRDMD_REQUIRE_ARG(coarse_ != nullptr, "update_coarse on a flat stack");
  IMRDMD_REQUIRE_DIMS(coarse_chunk.rows() == rows_.size(),
                      "coarse chunk row count differs from the grid");
  IMRDMD_REQUIRE_DIMS(raw_rows.rows() == sensors.size() &&
                          raw_rows.cols() == coarse_chunk.cols(),
                      "raw rows disagree with the sensor list");
  const std::size_t cols = coarse_chunk.cols();

  CoarseUpdate update;
  WallTimer timer;
  std::size_t window_begin = 0;
  if (!coarse_->fitted()) {
    coarse_->initial_fit(coarse_chunk);
  } else {
    window_begin = coarse_->time_steps();
    update.report = coarse_->partial_fit(coarse_chunk);
  }
  // The coarse level's best estimate of this chunk's window (all levels,
  // unfiltered); the fine models see only what it could not explain.
  const Mat recon = coarse_->reconstruct(window_begin, coarse_->time_steps());

  residual_rows = Mat(sensors.size(), cols);
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    IMRDMD_REQUIRE_ARG(sensors[i] < interp_.size(),
                       "sensor index out of the hierarchy's range");
    subtract_interpolated(sensors[i], raw_rows.data() + i * cols, recon,
                          residual_rows.data() + i * cols, cols);
  }
  update.fit_seconds = timer.seconds();

  const std::vector<double> coarse_mags = coarse_->magnitudes(&band);
  update.magnitudes.resize(interp_.size());
  for (std::size_t p = 0; p < interp_.size(); ++p) {
    const Interp& ip = interp_[p];
    update.magnitudes[p] =
        (1.0 - ip.w) * coarse_mags[ip.lo] + ip.w * coarse_mags[ip.hi];
  }
  return update;
}

Mat ModelStack::grow_coarse(const std::vector<std::size_t>& new_sensors,
                            std::size_t new_sensor_total,
                            const Mat& new_rows_history) {
  IMRDMD_REQUIRE_ARG(coarse_ != nullptr, "grow_coarse on a flat stack");
  IMRDMD_REQUIRE_ARG(!new_sensors.empty(), "grow_coarse needs new sensors");
  IMRDMD_REQUIRE_DIMS(new_rows_history.rows() == new_sensors.size() &&
                          new_rows_history.cols() == coarse_->time_steps(),
                      "new-sensor history shape disagrees with the coarse "
                      "model");
  IMRDMD_REQUIRE_ARG(new_sensor_total >= interp_.size() + new_sensors.size(),
                     "grow_coarse sensor total smaller than the grown grid");
  const std::size_t cols = new_rows_history.cols();

  // The appended block's coarse rows: every stride-th of the new list (the
  // block always contributes its first sensor), added at the END of the
  // grid so existing coarse rows — and the replicated coarse model's row
  // order — never shift.
  const std::size_t base = rows_.size();
  Mat coarse_history((new_sensors.size() + stride_ - 1) / stride_, cols);
  std::size_t appended = 0;
  for (std::size_t j = 0; j < new_sensors.size(); j += stride_) {
    rows_.push_back(new_sensors[j]);
    const double* src = new_rows_history.data() + j * cols;
    std::copy(src, src + cols, coarse_history.data() + appended * cols);
    ++appended;
  }

  // Self-contained interpolation map for the block (existing sensors keep
  // their frozen map): the same per-position rule enable_coarse applies to
  // a group, clamped at the block's tail.
  interp_.resize(new_sensor_total, Interp{});
  const std::size_t block_rows = appended;
  for (std::size_t j = 0; j < new_sensors.size(); ++j) {
    const std::size_t slot = j / stride_;
    Interp ip;
    ip.lo = base + slot;
    if (j % stride_ == 0 || slot + 1 >= block_rows) {
      ip.hi = ip.lo;
      ip.w = 0.0;
    } else {
      ip.hi = ip.lo + 1;
      ip.w = static_cast<double>(j - slot * stride_) /
             static_cast<double>(stride_);
    }
    interp_[new_sensors[j]] = ip;
  }

  // Grow the replicated coarse model, then hand back the new sensors'
  // residual history against it — computed with today's coarse
  // reconstruction (the pre-growth chunks' residuals were computed against
  // the evolving historical coarse states; an elastic join can only use
  // the model as it stands).
  coarse_->add_sensors(coarse_history);
  const Mat recon = coarse_->reconstruct(0, coarse_->time_steps());
  Mat residual_history(new_sensors.size(), cols);
  for (std::size_t j = 0; j < new_sensors.size(); ++j) {
    subtract_interpolated(new_sensors[j], new_rows_history.data() + j * cols,
                          recon, residual_history.data() + j * cols, cols);
  }
  return residual_history;
}

}  // namespace imrdmd::core
