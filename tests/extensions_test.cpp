// Tests for APIs added during the reproduction hardening pass:
// band_level_means, knn_accuracy, the sensor model's regime shift and
// oscillation heterogeneity, and the job log arrival cutoff.
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/metrics.hpp"
#include "core/mrdmd.hpp"
#include "linalg/blas.hpp"
#include "telemetry/job_log.hpp"
#include "telemetry/sensor_model.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::Mat;

TEST(BandLevelMeans, RecoversPerSensorLevels) {
  // Sensors at distinct constant levels + fast oscillation: the slow-band
  // level summary must recover the constants.
  const std::size_t p = 16, t = 512;
  Mat data(p, t);
  for (std::size_t s = 0; s < p; ++s) {
    for (std::size_t i = 0; i < t; ++i) {
      data(s, i) = 10.0 + static_cast<double>(s) +
                   0.5 * std::sin(2.0 * M_PI * 40.0 * i / t + 0.1 * s);
    }
  }
  core::MrdmdOptions options;
  options.max_levels = 4;
  options.dt = 1.0;
  core::MrdmdTree tree(options);
  tree.fit(data);
  dmd::ModeBand slow;
  slow.max_frequency_hz = 10.0 / t;  // below the 40-cycle oscillation
  const auto levels =
      core::band_level_means(tree.nodes(), p, 1.0, &slow, 0, t);
  for (std::size_t s = 0; s < p; ++s) {
    EXPECT_NEAR(levels[s], 10.0 + static_cast<double>(s), 0.35) << s;
  }
}

TEST(BandLevelMeans, EmptyWindowThrows) {
  core::MrdmdTree tree;
  EXPECT_THROW(core::band_level_means({}, 4, 1.0, nullptr, 5, 5),
               InvalidArgument);
}

TEST(KnnAccuracy, PerfectAndRandomCases) {
  linalg::Mat y(8, 1);
  std::vector<int> labels(8);
  for (int i = 0; i < 8; ++i) {
    y(i, 0) = i < 4 ? static_cast<double>(i) : 100.0 + i;
    labels[i] = i < 4 ? 0 : 1;
  }
  EXPECT_DOUBLE_EQ(
      baselines::knn_accuracy(y, std::span<const int>(labels.data(), 8), 1),
      1.0);
  // Interleaved 1-D points: every nearest neighbor has the other label.
  linalg::Mat z(8, 1);
  for (int i = 0; i < 8; ++i) {
    z(i, 0) = i;
    labels[i] = i % 2;
  }
  EXPECT_LT(
      baselines::knn_accuracy(z, std::span<const int>(labels.data(), 8), 1),
      0.2);
}

TEST(KnnAccuracy, HandlesBimodalClass) {
  // Class 1 split between two extremes: 1-NN purity stays perfect while
  // silhouette goes negative — the motivation for the metric.
  linalg::Mat y(12, 1);
  std::vector<int> labels(12);
  for (int i = 0; i < 4; ++i) {
    y(i, 0) = -100.0 - i;  // cold extreme
    labels[i] = 1;
  }
  for (int i = 4; i < 8; ++i) {
    y(i, 0) = static_cast<double>(i);  // baseline middle
    labels[i] = 0;
  }
  for (int i = 8; i < 12; ++i) {
    y(i, 0) = 100.0 + i;  // hot extreme
    labels[i] = 1;
  }
  EXPECT_DOUBLE_EQ(
      baselines::knn_accuracy(y, std::span<const int>(labels.data(), 12), 1),
      1.0);
  EXPECT_LT(baselines::silhouette_score(
                y, std::span<const int>(labels.data(), 12)),
            0.5);
}

TEST(KnnAccuracy, ValidatesArguments) {
  linalg::Mat y(4, 1);
  std::vector<int> labels{0, 0, 1, 1};
  EXPECT_THROW(
      baselines::knn_accuracy(y, std::span<const int>(labels.data(), 4), 0),
      InvalidArgument);
  EXPECT_THROW(
      baselines::knn_accuracy(y, std::span<const int>(labels.data(), 4), 4),
      InvalidArgument);
}

TEST(SensorModel, RegimeShiftCoolsSecondHalf) {
  telemetry::MachineSpec machine = telemetry::MachineSpec::testbed();
  telemetry::SensorModelOptions options;
  options.regime_shift_c = 10.0;
  options.regime_mid_t = 500;
  options.regime_width_t = 10.0;
  telemetry::SensorModel model(machine, options);
  telemetry::SensorModelOptions no_shift = options;
  no_shift.regime_shift_c = 0.0;
  telemetry::SensorModel reference(machine, no_shift);
  // Well before the shift: identical; well after: ~10 C cooler.
  EXPECT_NEAR(model.value(0, 100), reference.value(0, 100), 0.01);
  EXPECT_NEAR(model.value(0, 900), reference.value(0, 900) - 10.0, 0.05);
}

TEST(SensorModel, OscillationSpreadIsPerNodeDeterministic) {
  telemetry::MachineSpec machine = telemetry::MachineSpec::testbed();
  telemetry::SensorModelOptions options;
  options.oscillation_amplitude_c = 5.0;
  options.oscillation_amplitude_spread = 0.9;
  options.white_noise_c = 0.0;
  options.colored_noise_c = 0.0;
  telemetry::SensorModel model(machine, options);
  // Estimate per-node oscillation amplitude over one period.
  const std::size_t period =
      static_cast<std::size_t>(options.oscillation_period_s /
                               machine.dt_seconds);
  auto swing = [&](std::size_t node) {
    double lo = 1e300, hi = -1e300;
    for (std::size_t t = 0; t < period; ++t) {
      const double v = model.value(node, t);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    return hi - lo;
  };
  // Different nodes get visibly different swings, deterministic per node.
  const double a = swing(1), b = swing(9);
  EXPECT_GT(std::abs(a - b), 0.2);
  EXPECT_DOUBLE_EQ(swing(1), a);
}

TEST(JobLog, ArrivalCutoffDrainsTheMachine) {
  const telemetry::MachineSpec machine = telemetry::MachineSpec::testbed();
  telemetry::JobLogOptions options;
  options.mean_interarrival = 5.0;
  options.mean_duration = 60.0;
  options.arrival_cutoff = 400;
  telemetry::JobLogSimulator sim(machine, options);
  sim.simulate_until(2000);
  for (const auto& job : sim.jobs()) EXPECT_LT(job.t_start, 400u);
  // Long after the cutoff everything has drained.
  EXPECT_EQ(sim.nodes_busy_at(1500).size(), 0u);
}

TEST(Mrdmd, StuckSensorContributesConstantMode) {
  // A dropout-style stuck row must not destabilize the fit: its slow mode
  // reconstructs the constant.
  imrdmd::Rng rng(3);
  Mat data = imrdmd::testing::planted_multiscale(12, 256, 0.01, rng);
  for (std::size_t t = 0; t < 256; ++t) data(5, t) = 47.0;
  core::MrdmdOptions options;
  options.max_levels = 3;
  core::MrdmdTree tree(options);
  tree.fit(data);
  const Mat recon = tree.reconstruct();
  for (std::size_t t = 0; t < 256; t += 32) {
    EXPECT_NEAR(recon(5, t), 47.0, 1.0);
  }
}

}  // namespace
}  // namespace imrdmd
