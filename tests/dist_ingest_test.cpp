// Ingestion-mode and elasticity tests for the distributed engine: the
// two chunk-delivery modes (scatterv, per-rank sources) are bitwise
// interchangeable across rank counts, lanes, and hierarchy modes; a desynced
// per-rank replica fails every rank together with StreamDesync; and
// add_sensors grows groups mid-stream identically in every topology.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "core/stream.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::CollectingSink;
using core::IngestMode;
using core::IngestOptions;
using core::Mat;
using core::MatrixChunkSource;
using core::PipelineOptions;
using core::RowSliceSource;
using core::StopCondition;
using imrdmd::testing::planted_multiscale;

PipelineOptions ingest_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};
  return options;
}

Mat ingest_data() {
  Rng rng(11);
  return planted_multiscale(15, 384, 0.02, rng);
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "index " << i;
  }
}

void expect_snapshots_equal(const std::vector<AssessmentSnapshot>& a,
                            const std::vector<AssessmentSnapshot>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t c = 0; c < a.size(); ++c) {
    EXPECT_EQ(a[c].chunk_index, b[c].chunk_index);
    EXPECT_EQ(a[c].total_snapshots, b[c].total_snapshots);
    expect_bitwise_equal(a[c].magnitudes, b[c].magnitudes);
    expect_bitwise_equal(a[c].sensor_means, b[c].sensor_means);
    expect_bitwise_equal(a[c].zscores.zscores, b[c].zscores.zscores);
    expect_bitwise_equal(a[c].coarse_magnitudes, b[c].coarse_magnitudes);
    expect_bitwise_equal(a[c].coarse_zscores, b[c].coarse_zscores);
    expect_bitwise_equal(a[c].residual_zscores, b[c].residual_zscores);
  }
}

AssessorConfig ingest_config(std::size_t sensors, std::size_t stride,
                             std::size_t lanes, IngestMode mode) {
  AssessorConfig config;
  config.pipeline(ingest_pipeline_options())
      .sharded(core::contiguous_groups(sensors, 5), lanes)
      .sensors(sensors)
      .hierarchy(stride)
      .ingest(IngestOptions{}.with_mode(mode));
  return config;
}

/// One distributed run at `ranks` under `mode`; per-rank sources are
/// RowSliceSource slices over a full per-rank replica of the stream.
/// Asserts every rank's sink saw the identical stream; returns rank 0's
/// snapshots plus the final checkpoint bytes (rank 0's).
struct DistRun {
  std::vector<AssessmentSnapshot> snapshots;
  std::string checkpoint_bytes;
};

DistRun run_distributed(const Mat& data, std::size_t stride,
                        std::size_t lanes, IngestMode mode, int ranks) {
  dist::World world(ranks);
  std::vector<std::vector<AssessmentSnapshot>> per_rank(
      static_cast<std::size_t>(ranks));
  std::string bytes;
  world.run([&](dist::Communicator& comm) {
    AssessorConfig config = ingest_config(data.rows(), stride, lanes, mode);
    Assessor assessor(config.distributed(comm));
    std::optional<MatrixChunkSource> replica;
    std::optional<RowSliceSource> slice;
    core::ChunkSource* source = nullptr;
    if (mode == IngestMode::PerRank) {
      replica.emplace(data, 256, 64);
      slice.emplace(*replica, assessor.owned_sensor_rows());
      source = &*slice;
    } else if (comm.rank() == 0) {
      replica.emplace(data, 256, 64);
      source = &*replica;
    }
    CollectingSink sink;
    assessor.run_until(source, sink, StopCondition{});
    per_rank[static_cast<std::size_t>(comm.rank())] = sink.take();
    std::ostringstream buffer;
    core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                   assessor);
    if (comm.rank() == 0) bytes = std::move(buffer).str();
  });
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    expect_snapshots_equal(per_rank[r], per_rank[0]);
  }
  return {per_rank[0], std::move(bytes)};
}

TEST(DistributedFleetIngest, AllModesMatchTheSingleProcessEngineBitwise) {
  const Mat data = ingest_data();
  for (const std::size_t stride : {std::size_t{0}, std::size_t{2}}) {
    AssessorConfig reference_config =
        ingest_config(data.rows(), stride, 1, IngestMode::Scatterv);
    Assessor reference_engine(reference_config);
    MatrixChunkSource reference_source(data, 256, 64);
    CollectingSink reference_sink;
    reference_engine.run(reference_source, reference_sink);
    const auto reference = reference_sink.take();
    ASSERT_EQ(reference.size(), 3u);
    std::ostringstream reference_buffer;
    core::save_assessor_checkpoint(reference_buffer, reference_engine);
    const std::string reference_bytes = reference_buffer.str();

    for (const int ranks : {2, 4}) {
      for (const IngestMode mode :
           {IngestMode::Scatterv, IngestMode::PerRank}) {
        const DistRun run =
            run_distributed(data, stride, /*lanes=*/2, mode, ranks);
        expect_snapshots_equal(run.snapshots, reference);
        // The checkpoint container carries no delivery-mode provenance:
        // identical state means identical bytes.
        EXPECT_EQ(run.checkpoint_bytes, reference_bytes)
            << "stride=" << stride << " ranks=" << ranks;
      }
    }
  }
}

TEST(DistributedFleetIngest, DesyncedPerRankReplicaFailsEveryRankTogether) {
  const Mat data = ingest_data();
  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config =
            ingest_config(data.rows(), 0, 1, IngestMode::PerRank);
        Assessor assessor(config.distributed(comm));
        MatrixChunkSource replica(data, 256, 64);
        // Rank 1's replica starts one chunk ahead: the per-chunk agreement
        // sees disagreeing stream positions and fails both ranks together
        // (no deadlock, no divergent replicated state).
        if (comm.rank() == 1) replica.seek(256);
        RowSliceSource slice(replica, assessor.owned_sensor_rows());
        CollectingSink sink;
        assessor.run_until(&slice, sink, StopCondition{});
      }),
      StreamDesync);
}

TEST(DistributedFleetIngest, PerRankSourceWithWrongRowCountIsRejected) {
  const Mat data = ingest_data();
  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config =
            ingest_config(data.rows(), 0, 1, IngestMode::PerRank);
        Assessor assessor(config.distributed(comm));
        // A full replica is NOT a per-rank source: it yields every row,
        // not this rank's owned slice.
        MatrixChunkSource replica(data, 256, 64);
        CollectingSink sink;
        assessor.run_until(&replica, sink, StopCondition{});
      }),
      InvalidArgument);
}

TEST(DistributedFleetIngest, ResumedSourceLeftUnseekedRaisesStreamDesync) {
  const Mat data = ingest_data();
  AssessorConfig config =
      ingest_config(data.rows(), 0, 1, IngestMode::Scatterv);
  Assessor assessor(config);
  MatrixChunkSource source(data, 256, 64);
  CollectingSink sink;
  StopCondition one;
  one.max_chunks = 1;
  assessor.run_until(source, sink, one);
  std::ostringstream buffer;
  core::save_assessor_checkpoint(buffer, assessor);
  const std::string bytes = buffer.str();

  {
    std::istringstream in(bytes);
    core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
    // The checkpoint recorded stream position 256; feeding the restored
    // engine a source still at snapshot 0 would silently re-fold the first
    // chunk. The engine refuses with a typed error instead.
    MatrixChunkSource unseeked(data, 256, 64);
    EXPECT_THROW(
        restored.assessor.run_until(unseeked, sink, StopCondition{}),
        StreamDesync);
  }
  // A fresh restore whose source IS seek'd to the recorded position runs
  // through to the end of the stream.
  std::istringstream in(bytes);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
  MatrixChunkSource seeked(data, 256, 64);
  seeked.seek(static_cast<std::size_t>(restored.stream_position));
  CollectingSink resumed;
  restored.assessor.run_until(seeked, resumed, StopCondition{});
  EXPECT_EQ(restored.assessor.chunks_processed(), 3u);
}

// --- elastic growth -----------------------------------------------------

/// 18-sensor planted data; the first 15 rows stream normally, the last 3
/// join group 4 after chunk 1 with their raw history.
Mat elastic_data() {
  Rng rng(23);
  return planted_multiscale(18, 384, 0.02, rng);
}

PipelineOptions elastic_pipeline_options() {
  PipelineOptions options = ingest_pipeline_options();
  options.imrdmd.keep_history = true;
  return options;
}

std::vector<AssessmentSnapshot> run_elastic_single(const Mat& data,
                                                   std::size_t stride) {
  AssessorConfig config;
  config.pipeline(elastic_pipeline_options())
      .sharded(core::contiguous_groups(15, 5))
      .sensors(15)
      .hierarchy(stride);
  Assessor assessor(config);
  assessor.process(data.block(0, 0, 15, 256));
  assessor.add_sensors(4, data.block(15, 0, 3, 256));
  EXPECT_EQ(assessor.sensors(), 18u);
  EXPECT_EQ(assessor.groups()[4].size(), 6u);
  std::vector<AssessmentSnapshot> out;
  out.push_back(assessor.process(data.block(0, 256, 18, 64)));
  out.push_back(assessor.process(data.block(0, 320, 18, 64)));
  return out;
}

TEST(DistributedFleetElastic, AddSensorsGrowsAGroupMidStream) {
  const Mat data = elastic_data();
  for (const std::size_t stride : {std::size_t{0}, std::size_t{2}}) {
    const auto reference = run_elastic_single(data, stride);
    ASSERT_EQ(reference.size(), 2u);
    // The grown width shows up in the post-growth snapshots.
    EXPECT_EQ(reference[0].magnitudes.size(), 18u);
    EXPECT_EQ(reference[1].zscores.zscores.size(), 18u);

    // The same elastic run, distributed: identical bitwise.
    for (const int ranks : {2, 3}) {
      dist::World world(ranks);
      std::vector<std::vector<AssessmentSnapshot>> per_rank(
          static_cast<std::size_t>(ranks));
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config;
        config.pipeline(elastic_pipeline_options())
            .sharded(core::contiguous_groups(15, 5))
            .sensors(15)
            .hierarchy(stride)
            .distributed(comm);
        Assessor assessor(config);
        assessor.process(data.block(0, 0, 15, 256));
        assessor.add_sensors(4, data.block(15, 0, 3, 256));
        auto& mine = per_rank[static_cast<std::size_t>(comm.rank())];
        mine.push_back(assessor.process(data.block(0, 256, 18, 64)));
        mine.push_back(assessor.process(data.block(0, 320, 18, 64)));
      });
      for (const auto& snapshots : per_rank) {
        expect_snapshots_equal(snapshots, reference);
      }
    }
  }
}

TEST(DistributedFleetElastic, AddSensorsValidatesItsArguments) {
  const Mat data = elastic_data();
  AssessorConfig config;
  config.pipeline(elastic_pipeline_options())
      .sharded(core::contiguous_groups(15, 5))
      .sensors(15);
  Assessor assessor(config);
  // Before any chunk there is no history to join against.
  EXPECT_THROW(assessor.add_sensors(0, Mat(2, 0)), InvalidArgument);
  assessor.process(data.block(0, 0, 15, 256));
  EXPECT_THROW(assessor.add_sensors(5, data.block(15, 0, 3, 256)),
               InvalidArgument);  // no such group
  EXPECT_THROW(assessor.add_sensors(4, data.block(15, 0, 3, 100)),
               DimensionError);  // history shorter than the stream
  assessor.add_sensors(4, data.block(15, 0, 3, 256));
  // Chunks must carry the grown width from now on.
  EXPECT_THROW(assessor.process(data.block(0, 256, 15, 64)),
               InvalidArgument);
}

TEST(DistributedFleetElastic, ArgumentDisagreementFailsEveryRankTogether) {
  const Mat data = elastic_data();
  dist::World world(2);
  EXPECT_THROW(
      world.run([&](dist::Communicator& comm) {
        AssessorConfig config;
        config.pipeline(elastic_pipeline_options())
            .sharded(core::contiguous_groups(15, 5))
            .sensors(15)
            .distributed(comm);
        Assessor assessor(config);
        assessor.process(data.block(0, 0, 15, 256));
        Mat history = data.block(15, 0, 3, 256);
        if (comm.rank() == 1) history(0, 0) += 1e-9;
        assessor.add_sensors(4, history);
      }),
      InvalidArgument);
}

TEST(DistributedFleetElastic, GrownHierarchicalStackCheckpointsAtAnyRankCount) {
  // A grown coarse grid is no longer the canonical stride grid, so the
  // IMRDFL2 container carries it explicitly: a grown engine at 2 ranks
  // writes the single-process grown engine's bytes, and those bytes resume
  // bitwise at 1 and 3 ranks.
  const Mat data = elastic_data();
  const auto reference = run_elastic_single(data, 2);
  ASSERT_EQ(reference.size(), 2u);
  const auto make_config = [] {
    AssessorConfig config;
    config.pipeline(elastic_pipeline_options())
        .sharded(core::contiguous_groups(15, 5))
        .sensors(15)
        .hierarchy(2);
    return config;
  };

  std::string single_bytes;
  {
    Assessor assessor(make_config());
    assessor.process(data.block(0, 0, 15, 256));
    assessor.add_sensors(4, data.block(15, 0, 3, 256));
    assessor.process(data.block(0, 256, 18, 64));
    std::ostringstream buffer;
    core::save_assessor_checkpoint(buffer, assessor);
    single_bytes = buffer.str();
  }
  ASSERT_EQ(single_bytes.substr(0, 8), "IMRDFL2\n");

  std::string dist_bytes;
  {
    dist::World world(2);
    world.run([&](dist::Communicator& comm) {
      AssessorConfig config = make_config();
      Assessor assessor(config.distributed(comm));
      assessor.process(data.block(0, 0, 15, 256));
      assessor.add_sensors(4, data.block(15, 0, 3, 256));
      assessor.process(data.block(0, 256, 18, 64));
      std::ostringstream buffer;
      core::save_assessor_checkpoint(comm.rank() == 0 ? &buffer : nullptr,
                                     assessor);
      if (comm.rank() == 0) dist_bytes = buffer.str();
    });
  }
  EXPECT_EQ(dist_bytes, single_bytes);

  {
    std::istringstream in(single_bytes);
    core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
    EXPECT_EQ(restored.assessor.sensors(), 18u);
    expect_snapshots_equal(
        {restored.assessor.process(data.block(0, 320, 18, 64))},
        {reference[1]});
  }
  {
    dist::World world(3);
    std::vector<std::vector<AssessmentSnapshot>> per_rank(3);
    world.run([&](dist::Communicator& comm) {
      std::istringstream in(single_bytes);
      core::RestoredAssessor restored =
          core::load_assessor_checkpoint(in, comm);
      per_rank[static_cast<std::size_t>(comm.rank())].push_back(
          restored.assessor.process(data.block(0, 320, 18, 64)));
    });
    for (const auto& snapshots : per_rank) {
      expect_snapshots_equal(snapshots, {reference[1]});
    }
  }
}

}  // namespace
}  // namespace imrdmd
