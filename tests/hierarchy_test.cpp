// Two-level multifidelity hierarchy: the deterministic coarse grid, the
// two-level z-score reconciliation, flat-mode bitwise identity with the
// direct model composition (monolithic and a scattered sharded partition),
// hierarchy bitwise identity with the direct stack composition, hierarchy
// bitwise invariance across lanes x
// prefetch depths x ranks, the IMRDMD_HIERARCHY_STRIDE environment
// default, and the versioned IMRDFL2 checkpoint container (round-trip,
// rank-count byte invariance, truncation/corruption fuzz through the coarse
// grid, interpolation map and coarse section, and the retired layouts).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/model_stack.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::BaselineZscoreStage;
using core::CollectingSink;
using core::Mat;
using core::ModelStack;
using core::PipelineOptions;
using core::ReconciledZscores;
using core::StopCondition;
using imrdmd::testing::planted_multiscale;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions hierarchy_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat hierarchy_data() {
  Rng rng(7);
  return planted_multiscale(15, 384, 0.02, rng);
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

void expect_snapshot_equal(const AssessmentSnapshot& a,
                           const AssessmentSnapshot& b) {
  EXPECT_EQ(a.chunk_index, b.chunk_index);
  EXPECT_EQ(a.total_snapshots, b.total_snapshots);
  expect_bitwise_equal(a.magnitudes, b.magnitudes);
  expect_bitwise_equal(a.sensor_means, b.sensor_means);
  expect_bitwise_equal(a.zscores.zscores, b.zscores.zscores);
  EXPECT_EQ(a.zscores.baseline_sensors, b.zscores.baseline_sensors);
  expect_bitwise_equal(a.coarse_magnitudes, b.coarse_magnitudes);
  expect_bitwise_equal(a.coarse_zscores, b.coarse_zscores);
  expect_bitwise_equal(a.residual_zscores, b.residual_zscores);
}

/// A scattered, non-contiguous partition of hierarchy_data()'s 15 sensors:
/// no group is a contiguous run, and the groups interleave.
std::vector<std::vector<std::size_t>> scattered_groups() {
  return {{14, 0, 7, 3, 11}, {1, 9, 5, 12, 6}, {2, 13, 8, 4, 10}};
}

/// The rows listed in `rows` out of `chunk`, in list order.
Mat select_rows(const Mat& chunk, const std::vector<std::size_t>& rows) {
  Mat out(rows.size(), chunk.cols());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t t = 0; t < chunk.cols(); ++t) {
      out(i, t) = chunk(rows[i], t);
    }
  }
  return out;
}

std::vector<AssessmentSnapshot> run_collect(Assessor& engine,
                                            core::ChunkSource& stream,
                                            std::size_t max_chunks = 0) {
  CollectingSink sink;
  StopCondition stop;
  stop.max_chunks = max_chunks;
  engine.run_until(stream, sink, stop);
  return sink.take();
}

/// Scoped override of IMRDMD_HIERARCHY_STRIDE, restored on destruction so
/// a failing assertion cannot leak the value into later tests.
class ScopedStrideEnv {
 public:
  explicit ScopedStrideEnv(const char* value) {
    const char* previous = std::getenv("IMRDMD_HIERARCHY_STRIDE");
    if (previous != nullptr) saved_ = previous;
    had_ = previous != nullptr;
    if (value != nullptr) {
      ::setenv("IMRDMD_HIERARCHY_STRIDE", value, 1);
    } else {
      ::unsetenv("IMRDMD_HIERARCHY_STRIDE");
    }
  }
  ~ScopedStrideEnv() {
    if (had_) {
      ::setenv("IMRDMD_HIERARCHY_STRIDE", saved_.c_str(), 1);
    } else {
      ::unsetenv("IMRDMD_HIERARCHY_STRIDE");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

// --- coarse grid ---------------------------------------------------------

TEST(ModelStack, CoarseGridSubsamplesEveryGroupDeterministically) {
  std::vector<std::vector<std::size_t>> groups(3);
  for (std::size_t p = 0; p < 9; ++p) groups[0].push_back(p);
  for (std::size_t p = 9; p < 11; ++p) groups[1].push_back(p);
  for (std::size_t p = 11; p < 15; ++p) groups[2].push_back(p);

  // Every 4th sensor of each group's list, each group contributing at
  // least its first sensor.
  EXPECT_EQ(ModelStack::coarse_grid(groups, 4),
            (std::vector<std::size_t>{0, 4, 8, 9, 11}));
  // Stride 1 keeps the whole grid, in group order.
  EXPECT_EQ(ModelStack::coarse_grid(groups, 1),
            (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                      12, 13, 14}));
  // A stride past every group size degenerates to one sensor per group.
  EXPECT_EQ(ModelStack::coarse_grid(groups, 100),
            (std::vector<std::size_t>{0, 9, 11}));
  // Non-contiguous group sensor lists subsample the LIST, not the machine
  // indices: the grid follows each group's own ordering.
  const std::vector<std::vector<std::size_t>> scattered = {{5, 0, 7, 2}};
  EXPECT_EQ(ModelStack::coarse_grid(scattered, 2),
            (std::vector<std::size_t>{5, 7}));
}

TEST(ModelStack, EnableCoarseValidatesStrideAndPartition) {
  ModelStack stack;
  const PipelineOptions options = hierarchy_pipeline_options();
  const std::vector<std::vector<std::size_t>> groups = {{0, 1}, {2, 3}};
  EXPECT_THROW(stack.enable_coarse(groups, 4, 0, options.imrdmd),
               InvalidArgument);
  // Partition does not cover the sensor count.
  EXPECT_THROW(stack.enable_coarse(groups, 5, 2, options.imrdmd),
               InvalidArgument);
  stack.enable_coarse(groups, 4, 2, options.imrdmd);
  EXPECT_TRUE(stack.hierarchical());
  EXPECT_EQ(stack.coarse_stride(), 2u);
  EXPECT_EQ(stack.coarse_rows(), (std::vector<std::size_t>{0, 2}));
}

TEST(ModelStack, UpdateCoarseSubtractsInterpolatedReconstruction) {
  // Stride 1 makes the coarse grid the full sensor set and the
  // interpolation map the identity: the residual must then be exactly
  // chunk - coarse_reconstruction, and a parallel reference model fed the
  // same chunks must agree bitwise with the stack's coarse model.
  Rng rng(5);
  const Mat data = planted_multiscale(6, 192, 0.02, rng);
  const PipelineOptions options = hierarchy_pipeline_options();
  const auto groups = core::contiguous_groups(6, 2);

  ModelStack stack;
  stack.enable_coarse(groups, 6, 1, options.imrdmd);
  core::IncrementalMrdmd reference(options.imrdmd);

  // Stride 1 over contiguous groups: the coarse grid rows are the chunk's
  // rows in order, and the caller owns every sensor.
  const std::vector<std::size_t> sensors = {0, 1, 2, 3, 4, 5};
  ASSERT_EQ(stack.coarse_rows(), sensors);
  const Mat first = data.block(0, 0, 6, 128);
  Mat residual;
  const core::CoarseUpdate update =
      stack.update_coarse(first, options.band, sensors, first, residual);
  reference.initial_fit(first);
  ASSERT_EQ(residual.rows(), first.rows());
  ASSERT_EQ(residual.cols(), first.cols());
  const Mat recon = reference.reconstruct(0, first.cols());
  for (std::size_t i = 0; i < residual.size(); ++i) {
    EXPECT_EQ(residual.data()[i], first.data()[i] - recon.data()[i]);
  }
  expect_bitwise_equal(update.magnitudes,
                       reference.magnitudes(&options.band));

  // Second chunk: incremental path, same contract over the new window.
  const Mat second = data.block(0, 128, 6, 64);
  const core::CoarseUpdate next =
      stack.update_coarse(second, options.band, sensors, second, residual);
  reference.partial_fit(second);
  const Mat recon2 = reference.reconstruct(128, 192);
  for (std::size_t i = 0; i < residual.size(); ++i) {
    EXPECT_EQ(residual.data()[i], second.data()[i] - recon2.data()[i]);
  }
  expect_bitwise_equal(next.magnitudes, reference.magnitudes(&options.band));
  EXPECT_EQ(next.report.new_snapshots, 64u);
}

// --- z-score reconciliation ----------------------------------------------

TEST(Reconciliation, CombinedPicksTheLargerMagnitudeZscorePerSensor) {
  BaselineZscoreStage stage({0.0, 100.0}, {}, true);
  // Baseline = all four sensors (means inside the range). The coarse level
  // spikes sensor 0 far beyond its own spread; the residual level's most
  // anomalous sensor is 3.
  const std::vector<double> means = {50.0, 50.0, 50.0, 50.0};
  const std::vector<double> residual = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> coarse = {100.0, 2.5, 2.5, 2.5};
  const ReconciledZscores out =
      stage.apply_reconciled(residual, coarse, means);
  ASSERT_EQ(out.combined.zscores.size(), 4u);
  // Each level is scored by the stateless zscore_from_baseline against the
  // SAME population the stage selected.
  const std::vector<std::size_t> population = {0, 1, 2, 3};
  expect_bitwise_equal(
      out.residual_zscores,
      core::zscore_from_baseline(residual, population).zscores);
  expect_bitwise_equal(
      out.coarse_zscores,
      core::zscore_from_baseline(coarse, population).zscores);
  // Combined = whichever level is more anomalous in |z| (strict >).
  for (std::size_t p = 0; p < 4; ++p) {
    const double expect = std::fabs(out.coarse_zscores[p]) >
                                  std::fabs(out.residual_zscores[p])
                              ? out.coarse_zscores[p]
                              : out.residual_zscores[p];
    EXPECT_EQ(out.combined.zscores[p], expect);
  }
  // And concretely: the facility-scale spike owns sensor 0, the residual
  // scale owns sensor 3 — anomalous at EITHER scale is flagged.
  EXPECT_EQ(out.combined.zscores[0], out.coarse_zscores[0]);
  EXPECT_GT(out.combined.zscores[0], 1.0);
  EXPECT_EQ(out.combined.zscores[3], out.residual_zscores[3]);
  EXPECT_GT(std::fabs(out.residual_zscores[3]),
            std::fabs(out.coarse_zscores[3]));
}

TEST(Reconciliation, TiesAndNonFiniteCoarseFallToTheResidualLevel) {
  BaselineZscoreStage stage({0.0, 100.0}, {}, true);
  const std::vector<double> means = {50.0, 50.0, 50.0, 50.0};
  const std::vector<double> residual = {1.0, 2.0, 3.0, 4.0};
  // Identical magnitudes: every comparison ties, the residual level wins
  // bitwise (the combined vector IS the residual vector).
  {
    const ReconciledZscores out =
        stage.apply_reconciled(residual, residual, means);
    expect_bitwise_equal(out.combined.zscores, out.residual_zscores);
  }
  // A NaN coarse magnitude poisons that level's baseline statistics, so
  // every coarse z-score goes non-finite — and none of them may propagate
  // into the combined view: it falls back to the residual level entirely.
  {
    std::vector<double> coarse = {100.0, 2.5, 2.5,
                                  std::numeric_limits<double>::quiet_NaN()};
    const ReconciledZscores out =
        stage.apply_reconciled(residual, coarse, means);
    EXPECT_TRUE(std::isnan(out.coarse_zscores[3]));
    expect_bitwise_equal(out.combined.zscores, out.residual_zscores);
    for (double z : out.combined.zscores) EXPECT_TRUE(std::isfinite(z));
  }
}

TEST(Reconciliation, SelectionStateMatchesTheFlatStageTransition) {
  // A sticky (!reselect_per_chunk) hierarchical stage and a flat stage fed
  // the same means must hold the same baseline population forever — the
  // reconciliation step reuses apply()'s selection transition exactly.
  const std::vector<double> first_means = {10.0, 50.0, 50.0, 90.0};
  const std::vector<double> later_means = {50.0, 10.0, 90.0, 50.0};
  const std::vector<double> mags = {1.0, 2.0, 3.0, 4.0};

  BaselineZscoreStage flat({40.0, 60.0}, {}, false);
  BaselineZscoreStage hierarchical({40.0, 60.0}, {}, false);
  flat.apply(mags, first_means);
  hierarchical.apply_reconciled(mags, mags, first_means);
  EXPECT_EQ(hierarchical.baseline_sensors(), flat.baseline_sensors());
  EXPECT_EQ(hierarchical.baseline_sensors(),
            (std::vector<std::size_t>{1, 2}));
  // Sticky: the changed means must NOT re-select on either stage.
  const auto flat_later = flat.apply(mags, later_means);
  const auto hier_later =
      hierarchical.apply_reconciled(mags, mags, later_means);
  EXPECT_EQ(hier_later.combined.baseline_sensors,
            flat_later.baseline_sensors);
  EXPECT_EQ(hier_later.combined.baseline_sensors,
            (std::vector<std::size_t>{1, 2}));
  expect_bitwise_equal(hier_later.residual_zscores, flat_later.zscores);
}

// --- engine semantics ----------------------------------------------------

TEST(Assessor, FlatModeMatchesDirectModelCompositionBitwise) {
  // The tentpole's non-regression bar: with the hierarchy disabled the
  // engine is exactly the old composition — one IncrementalMrdmd plus the
  // baseline/z-score stage — snapshot for snapshot, bit for bit.
  const Mat data = hierarchy_data();
  const PipelineOptions options = hierarchy_pipeline_options();
  Assessor engine(AssessorConfig{}.pipeline(options).hierarchy(0));
  ASSERT_FALSE(engine.hierarchical());

  core::IncrementalMrdmd model(options.imrdmd);
  BaselineZscoreStage stage(options.baseline, options.zscore,
                            options.reselect_baseline_per_chunk);
  MatChunkSource source(data, 256, 64);
  std::optional<Mat> chunk;
  while ((chunk = source.next_chunk()).has_value()) {
    const AssessmentSnapshot snapshot = engine.process(*chunk);
    if (model.fitted()) {
      model.partial_fit(*chunk);
    } else {
      model.initial_fit(*chunk);
    }
    const std::vector<double> magnitudes = model.magnitudes(&options.band);
    const auto analysis =
        stage.apply(magnitudes, core::row_means(*chunk));
    expect_bitwise_equal(snapshot.magnitudes, magnitudes);
    expect_bitwise_equal(snapshot.zscores.zscores, analysis.zscores);
    EXPECT_EQ(snapshot.zscores.baseline_sensors, analysis.baseline_sensors);
    // Flat snapshots carry no per-level fields at all.
    EXPECT_TRUE(snapshot.coarse_magnitudes.empty());
    EXPECT_TRUE(snapshot.coarse_zscores.empty());
    EXPECT_TRUE(snapshot.residual_zscores.empty());
  }

  // The same bar for a scattered, non-contiguous sharded partition: one
  // standalone model per group fed that group's rows, merged back to
  // machine order, at one lane and at several.
  const auto groups = scattered_groups();
  for (const std::size_t lanes : {1u, 3u}) {
    AssessorConfig config;
    config.pipeline(options)
        .sharded(groups, lanes)
        .sensors(data.rows())
        .hierarchy(0);
    Assessor sharded(config);
    std::vector<core::IncrementalMrdmd> models(
        groups.size(), core::IncrementalMrdmd(options.imrdmd));
    BaselineZscoreStage sharded_stage(options.baseline, options.zscore,
                                      options.reselect_baseline_per_chunk);
    MatChunkSource replay(data, 256, 64);
    while ((chunk = replay.next_chunk()).has_value()) {
      const AssessmentSnapshot snapshot = sharded.process(*chunk);
      std::vector<double> magnitudes(data.rows(), 0.0);
      for (std::size_t g = 0; g < models.size(); ++g) {
        const auto& group = groups[g];
        const Mat rows = select_rows(*chunk, group);
        if (models[g].fitted()) {
          models[g].partial_fit(rows);
        } else {
          models[g].initial_fit(rows);
        }
        const std::vector<double> group_mags =
            models[g].magnitudes(&options.band);
        for (std::size_t i = 0; i < group.size(); ++i) {
          magnitudes[group[i]] = group_mags[i];
        }
      }
      const std::vector<double> means = core::row_means(*chunk);
      const auto analysis = sharded_stage.apply(magnitudes, means);
      expect_bitwise_equal(snapshot.magnitudes, magnitudes);
      expect_bitwise_equal(snapshot.sensor_means, means);
      expect_bitwise_equal(snapshot.zscores.zscores, analysis.zscores);
      EXPECT_EQ(snapshot.zscores.baseline_sensors, analysis.baseline_sensors);
    }
  }
}

TEST(Assessor, HierarchyMatchesDirectStackCompositionBitwise) {
  // Hierarchy mode against its definition, with no engine in the loop: a
  // standalone ModelStack coarse level over the scattered partition at
  // stride 2, one standalone model per group fed that group's residual
  // rows, and BaselineZscoreStage::apply_reconciled over the raw means.
  const Mat data = hierarchy_data();
  const PipelineOptions options = hierarchy_pipeline_options();
  const auto groups = scattered_groups();
  for (const std::size_t lanes : {1u, 3u}) {
    AssessorConfig config;
    config.pipeline(options)
        .sharded(groups, lanes)
        .sensors(data.rows())
        .hierarchy(2);
    Assessor engine(config);
    ASSERT_TRUE(engine.hierarchical());

    ModelStack stack;
    stack.enable_coarse(groups, data.rows(), 2, options.imrdmd);
    std::vector<std::size_t> sensors(data.rows());
    for (std::size_t p = 0; p < sensors.size(); ++p) sensors[p] = p;
    std::vector<core::IncrementalMrdmd> models(
        groups.size(), core::IncrementalMrdmd(options.imrdmd));
    BaselineZscoreStage stage(options.baseline, options.zscore,
                              options.reselect_baseline_per_chunk);
    MatChunkSource source(data, 256, 64);
    std::optional<Mat> chunk;
    std::size_t chunks = 0;
    while ((chunk = source.next_chunk()).has_value()) {
      const AssessmentSnapshot snapshot = engine.process(*chunk);
      Mat residual;
      const core::CoarseUpdate coarse =
          stack.update_coarse(select_rows(*chunk, stack.coarse_rows()),
                              options.band, sensors, *chunk, residual);
      std::vector<double> magnitudes(data.rows(), 0.0);
      for (std::size_t g = 0; g < groups.size(); ++g) {
        const Mat rows = select_rows(residual, groups[g]);
        if (models[g].fitted()) {
          models[g].partial_fit(rows);
        } else {
          models[g].initial_fit(rows);
        }
        const std::vector<double> group_mags =
            models[g].magnitudes(&options.band);
        for (std::size_t i = 0; i < groups[g].size(); ++i) {
          magnitudes[groups[g][i]] = group_mags[i];
        }
      }
      const std::vector<double> means = core::row_means(*chunk);
      const ReconciledZscores reconciled =
          stage.apply_reconciled(magnitudes, coarse.magnitudes, means);
      expect_bitwise_equal(snapshot.magnitudes, magnitudes);
      expect_bitwise_equal(snapshot.sensor_means, means);
      expect_bitwise_equal(snapshot.coarse_magnitudes, coarse.magnitudes);
      expect_bitwise_equal(snapshot.zscores.zscores,
                           reconciled.combined.zscores);
      EXPECT_EQ(snapshot.zscores.baseline_sensors,
                reconciled.combined.baseline_sensors);
      expect_bitwise_equal(snapshot.coarse_zscores,
                           reconciled.coarse_zscores);
      expect_bitwise_equal(snapshot.residual_zscores,
                           reconciled.residual_zscores);
      ++chunks;
    }
    EXPECT_EQ(chunks, 3u);
  }
}

TEST(Assessor, HierarchySnapshotsCarryConsistentPerLevelFields) {
  const Mat data = hierarchy_data();
  AssessorConfig config;
  config.pipeline(hierarchy_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(3);
  Assessor engine(config);
  EXPECT_TRUE(engine.hierarchical());
  EXPECT_EQ(engine.coarse_stride(), 3u);
  MatChunkSource source(data, 256, 64);
  const auto snapshots = run_collect(engine, source);
  ASSERT_EQ(snapshots.size(), 3u);
  EXPECT_TRUE(engine.coarse_model().fitted());
  for (const AssessmentSnapshot& snapshot : snapshots) {
    ASSERT_EQ(snapshot.coarse_magnitudes.size(), data.rows());
    ASSERT_EQ(snapshot.coarse_zscores.size(), data.rows());
    ASSERT_EQ(snapshot.residual_zscores.size(), data.rows());
    EXPECT_GT(snapshot.coarse_fit_seconds, 0.0);
    if (snapshot.chunk_index > 0) {
      // Incremental coarse fits report their window; the initial fit's
      // report stays default.
      EXPECT_EQ(snapshot.coarse_report.new_snapshots,
                snapshot.chunk_snapshots);
    }
    // The combined z-score is the reconciliation of the two levels:
    // per sensor, whichever level carries the larger |z| (ties and
    // non-finite coarse fall to the residual).
    for (std::size_t p = 0; p < data.rows(); ++p) {
      const double coarse = snapshot.coarse_zscores[p];
      const double residual = snapshot.residual_zscores[p];
      const double expect =
          std::isfinite(coarse) &&
                  std::fabs(coarse) > std::fabs(residual)
              ? coarse
              : residual;
      EXPECT_EQ(snapshot.zscores.zscores[p], expect) << "sensor " << p;
    }
    // sensor_means stay RAW chunk means — the baseline range rule reads
    // physical temperatures in both modes, so the planted-signal range
    // keeps every sensor in the population.
    EXPECT_EQ(snapshot.zscores.baseline_sensors.size(), data.rows());
  }
}

TEST(Assessor, HierarchyIsBitwiseInvariantAcrossLanesAndDepths) {
  const Mat data = hierarchy_data();
  const auto groups = core::contiguous_groups(data.rows(), 5);

  AssessorConfig reference_config;
  reference_config.pipeline(hierarchy_pipeline_options())
      .sharded(groups, 1)
      .sensors(data.rows())
      .hierarchy(2);
  reference_config.ingest_options.prefetch_depth = 0;
  Assessor reference(reference_config);
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);
  ASSERT_EQ(expected.size(), 3u);

  for (const std::size_t lanes : {1u, 2u, 5u}) {
    for (const std::size_t depth : {0u, 2u}) {
      AssessorConfig config;
      config.pipeline(hierarchy_pipeline_options())
          .sharded(groups, lanes)
          .sensors(data.rows())
          .hierarchy(2);
      config.ingest_options.prefetch_depth = depth;
      Assessor engine(config);
      MatChunkSource replay(data, 256, 64);
      const auto snapshots = run_collect(engine, replay);
      ASSERT_EQ(snapshots.size(), expected.size());
      for (std::size_t c = 0; c < snapshots.size(); ++c) {
        expect_snapshot_equal(snapshots[c], expected[c]);
      }
    }
  }
}

TEST(DistributedAssessor, HierarchyIsBitwiseInvariantAcrossRanks) {
  // The coarse model runs replicated (once per rank, on the same coarse
  // grid rows), so the distributed hierarchy must agree bitwise with the
  // single-process hierarchy at every rank count — including spare ranks.
  const Mat data = hierarchy_data();
  const auto groups = core::contiguous_groups(data.rows(), 3);

  AssessorConfig reference_config;
  reference_config.pipeline(hierarchy_pipeline_options())
      .sharded(groups)
      .sensors(data.rows())
      .hierarchy(2);
  Assessor reference(reference_config);
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);
  ASSERT_EQ(expected.size(), 3u);

  for (const int ranks : {1, 2, 4}) {
    dist::World world(ranks);
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config;
      config.pipeline(hierarchy_pipeline_options())
          .sharded(groups, 1)
          .sensors(data.rows())
          .hierarchy(2)
          .distributed(comm);
      Assessor engine(config);
      std::optional<MatChunkSource> replay;
      if (comm.rank() == 0) replay.emplace(data, 256, 64);
      CollectingSink sink;
      engine.run_until(comm.rank() == 0 ? &*replay : nullptr, sink,
                       StopCondition{});
      const auto& snapshots = sink.snapshots();
      ASSERT_EQ(snapshots.size(), expected.size());
      for (std::size_t c = 0; c < snapshots.size(); ++c) {
        expect_snapshot_equal(snapshots[c], expected[c]);
      }
    });
  }
}

// --- environment default -------------------------------------------------

TEST(Assessor, EnvironmentStrideSuppliesTheDefaultOnly) {
  const Mat data = hierarchy_data();
  ScopedStrideEnv env("3");
  // No explicit hierarchy(): the environment default applies.
  Assessor defaulted(
      AssessorConfig{}.pipeline(hierarchy_pipeline_options()));
  EXPECT_TRUE(defaulted.hierarchical() || defaulted.sensors() == 0);
  defaulted.process(data.block(0, 0, data.rows(), 256));
  EXPECT_TRUE(defaulted.hierarchical());
  EXPECT_EQ(defaulted.coarse_stride(), 3u);
  // Explicit hierarchy(0) pins flat mode regardless of the environment.
  Assessor pinned(
      AssessorConfig{}.pipeline(hierarchy_pipeline_options()).hierarchy(0));
  pinned.process(data.block(0, 0, data.rows(), 256));
  EXPECT_FALSE(pinned.hierarchical());
  // Explicit hierarchy(5) likewise wins over the environment.
  Assessor explicit_stride(
      AssessorConfig{}.pipeline(hierarchy_pipeline_options()).hierarchy(5));
  explicit_stride.process(data.block(0, 0, data.rows(), 256));
  EXPECT_EQ(explicit_stride.coarse_stride(), 5u);
}

TEST(Assessor, EnvironmentStrideRejectsGarbage) {
  for (const char* garbage : {"not-a-number", "-1"}) {
    ScopedStrideEnv env(garbage);
    EXPECT_THROW(
        Assessor{AssessorConfig{}.pipeline(hierarchy_pipeline_options())},
        InvalidArgument)
        << garbage;
  }
}

// --- versioned checkpoint container --------------------------------------

std::string small_hierarchy_bytes() {
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(2);
  Assessor engine(config);
  MatChunkSource source(data, 128, 64);
  run_collect(engine, source);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  return buffer.str();
}

/// small_hierarchy_bytes' engine plus three sensors that join group 1
/// after the first chunk: the saved coarse grid is no longer the partition's
/// canonical grid.
std::string small_grown_hierarchy_bytes() {
  Rng rng(13);
  const Mat data = planted_multiscale(12, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.imrdmd.keep_history = true;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(9, 3))
      .sensors(9)
      .hierarchy(2);
  Assessor engine(config);
  engine.process(data.block(0, 0, 9, 128));
  engine.add_sensors(1, data.block(9, 0, 3, 128));
  engine.process(data.block(0, 128, 12, 64));
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  return buffer.str();
}

/// Byte range [first, second) of the coarse grid and interpolation map in
/// an IMRDFL2 container: they end at the coarse section's length prefix,
/// 8 bytes before the first nested model magic.
std::pair<std::size_t, std::size_t> hierarchy_map_range(
    const std::string& bytes) {
  std::stringstream in(bytes);
  const core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
  const std::size_t grid_rows = restored.assessor.coarse_model().sensors();
  const std::size_t sensors = restored.assessor.sensors();
  const std::size_t end = bytes.find("IMRDMD1\n") - 8;
  const std::size_t begin =
      end - 8 * (1 + grid_rows) - 8 * (1 + 3 * sensors);
  std::uint64_t word = 0;
  std::memcpy(&word, bytes.data() + begin - 8, sizeof word);
  EXPECT_EQ(word, restored.assessor.coarse_stride());
  std::memcpy(&word, bytes.data() + begin, sizeof word);
  EXPECT_EQ(word, grid_rows);
  return {begin, end};
}

TEST(FleetCheckpoint, HierarchyUsesTheVersionedContainerMagic) {
  const Mat data = hierarchy_data();
  // Flat engines keep writing the V1 magic — old readers stay compatible.
  AssessorConfig flat;
  flat.pipeline(hierarchy_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(0);
  Assessor flat_engine(flat);
  MatChunkSource source(data, 256, 64);
  run_collect(flat_engine, source, 1);
  std::stringstream flat_bytes;
  core::save_assessor_checkpoint(flat_bytes, flat_engine);
  EXPECT_EQ(flat_bytes.str().substr(0, 8), "IMRDFL1\n");
  // Hierarchical engines write V2.
  EXPECT_EQ(small_hierarchy_bytes().substr(0, 8), "IMRDFL2\n");
}

TEST(FleetCheckpoint, HierarchyRoundTripsResavesAndResumesBitwise) {
  const Mat data = hierarchy_data();
  AssessorConfig config;
  config.pipeline(hierarchy_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(2);
  Assessor reference(config);
  MatChunkSource reference_source(data, 256, 64);
  const auto expected = run_collect(reference, reference_source);
  ASSERT_EQ(expected.size(), 3u);

  AssessorConfig doomed = config;
  Assessor engine(doomed);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 2);
  std::stringstream bytes;
  core::save_assessor_checkpoint(bytes, engine);

  core::RestoredAssessor restored = core::load_assessor_checkpoint(bytes);
  EXPECT_TRUE(restored.assessor.hierarchical());
  EXPECT_EQ(restored.assessor.coarse_stride(), 2u);
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(resaved.str(), bytes.str());

  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  const auto after = run_collect(restored.assessor, rest);
  ASSERT_EQ(after.size(), 1u);
  expect_snapshot_equal(after[0], expected[2]);
}

TEST(FleetCheckpoint, FlatContainerLoadsAsStrideDisabledUnderTheEnv) {
  // A V1 container saved by a flat engine must resume as a flat engine
  // even when IMRDMD_HIERARCHY_STRIDE is set: the checkpoint's recorded
  // topology wins over the environment default, or a resumed fleet would
  // silently diverge from its own checkpoint bytes.
  const Mat data = hierarchy_data();
  std::stringstream bytes;
  {
    ScopedStrideEnv off(nullptr);
    Assessor engine(AssessorConfig{}
                        .pipeline(hierarchy_pipeline_options())
                        .sharded(core::contiguous_groups(data.rows(), 3))
                        .sensors(data.rows())
                        .hierarchy(0));
    MatChunkSource source(data, 256, 64);
    run_collect(engine, source, 2);
    core::save_assessor_checkpoint(bytes, engine);
  }
  ASSERT_EQ(bytes.str().substr(0, 8), "IMRDFL1\n");
  ScopedStrideEnv env("4");
  core::RestoredAssessor restored = core::load_assessor_checkpoint(bytes);
  EXPECT_FALSE(restored.assessor.hierarchical());
  EXPECT_EQ(restored.assessor.coarse_stride(), 0u);
  // And it resaves as V1, not V2 — the env cannot rewrite history.
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(resaved.str().substr(0, 8), "IMRDFL1\n");
}

TEST(FleetCheckpoint, HierarchyEveryTruncationPointYieldsParseError) {
  // The dense truncation fuzz, through the V2 container: every prefix —
  // including cuts inside the stride word and the coarse model section —
  // must fail as ParseError, never a crash or a partial load.
  for (const std::string& bytes :
       {small_hierarchy_bytes(), small_grown_hierarchy_bytes()}) {
    ASSERT_GT(bytes.size(), 64u);
    const std::size_t step = std::max<std::size_t>(1, bytes.size() / 97);
    for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
      std::stringstream truncated(bytes.substr(0, cut));
      EXPECT_THROW(core::load_assessor_checkpoint(truncated), ParseError)
          << "prefix of " << cut << " bytes";
    }
  }
}

TEST(FleetCheckpoint, HierarchyCorruptWordsRejectedWithoutHugeAllocation) {
  // All-ones word flips at every u64 offset of the V2 container: the
  // coarse section's length prefixes and the stride word must be bounded
  // like every other section — throw a library Error or load, never OOM.
  for (const std::string& bytes :
       {small_hierarchy_bytes(), small_grown_hierarchy_bytes()}) {
    for (std::size_t offset = 8; offset + 8 <= bytes.size(); offset += 8) {
      std::string corrupt = bytes;
      const std::uint64_t garbage = ~std::uint64_t{0};
      std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
      std::stringstream in(corrupt);
      try {
        core::load_assessor_checkpoint(in);
      } catch (const Error&) {
        // Expected for most offsets.
      }
    }
  }
}

TEST(FleetCheckpoint, HierarchyMapWeightOutsideUnitIntervalRejected) {
  const std::string bytes = small_grown_hierarchy_bytes();
  const auto [begin, end] = hierarchy_map_range(bytes);
  std::uint64_t grid_rows = 0;
  std::memcpy(&grid_rows, bytes.data() + begin, sizeof grid_rows);
  // The first map entry's weight: past the grid, the entry count, lo, hi.
  const std::size_t weight = begin + 8 * (1 + grid_rows) + 8 + 16;
  ASSERT_LT(weight + 8, end);
  for (const double bad : {1.5, -0.25, std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    std::string corrupt = bytes;
    std::memcpy(corrupt.data() + weight, &bad, sizeof bad);
    std::stringstream in(corrupt);
    EXPECT_THROW(core::load_assessor_checkpoint(in), ParseError) << bad;
  }
}

TEST(FleetCheckpoint, RetiredContainerLayoutsFailLoudly) {
  // The retired delta container (magic "IMRDFL" '3') and the IMRDFL2
  // layout that preceded the explicit coarse grid (stride word, then the
  // coarse section) no longer load: both fail as ParseError through the
  // stream and file-path APIs.
  const std::string path = ::testing::TempDir() + "/retired_layout.ckpt";
  for (const std::string& bytes :
       {small_hierarchy_bytes(), small_grown_hierarchy_bytes()}) {
    const auto [begin, end] = hierarchy_map_range(bytes);
    std::string delta_magic = bytes;
    ASSERT_EQ(delta_magic.substr(0, 8), "IMRDFL2\n");
    delta_magic[6] = '3';
    for (const std::string& retired :
         {bytes.substr(0, begin) + bytes.substr(end), delta_magic}) {
      std::stringstream in(retired);
      EXPECT_THROW(core::load_assessor_checkpoint(in), ParseError);
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(retired.data(), static_cast<std::streamsize>(retired.size()));
      }
      EXPECT_THROW(core::load_assessor_checkpoint_file(path), ParseError);
    }
  }
  std::remove(path.c_str());
}

TEST(DistributedFleetCheckpoint, HierarchyBytesAreRankCountInvariant) {
  // V2 bytes are a pure function of the engine state: a distributed
  // hierarchical run checkpoints byte-identically to the single-process
  // engine at any rank count, and the bytes resume at a different rank
  // count bitwise.
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig base;
  base.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .hierarchy(2);

  const std::string reference = small_hierarchy_bytes();
  ASSERT_EQ(reference.substr(0, 8), "IMRDFL2\n");

  for (const int ranks : {2, 3}) {
    dist::World world(ranks);
    std::string bytes;
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config = base;
      Assessor engine(config.distributed(comm));
      std::optional<MatChunkSource> source;
      if (comm.rank() == 0) source.emplace(data, 128, 64);
      CollectingSink sink;
      engine.run_until(comm.rank() == 0 ? &*source : nullptr, sink,
                       StopCondition{});
      std::ostringstream buffer;
      core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                     engine);
      if (comm.rank() == 0) bytes = std::move(buffer).str();
    });
    EXPECT_EQ(bytes, reference) << "ranks=" << ranks;
  }

  // Continue from the shared bytes at 2 ranks and single-process; both
  // continuations agree bitwise on a fresh chunk.
  const Mat extra = planted_multiscale(9, 64, 0.02, rng);
  std::stringstream in_single(reference);
  core::RestoredAssessor restored_single =
      core::load_assessor_checkpoint(in_single);
  const AssessmentSnapshot expected = restored_single.assessor.process(extra);
  dist::World world(2);
  world.run([&](dist::Communicator& comm) {
    std::stringstream in(reference);
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint(in, comm);
    EXPECT_TRUE(restored.assessor.hierarchical());
    expect_snapshot_equal(restored.assessor.process(extra), expected);
  });
}

}  // namespace
}  // namespace imrdmd
