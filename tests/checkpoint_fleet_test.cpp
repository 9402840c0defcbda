// Assessor checkpoint durability: mid-stream kill-and-resume bitwise
// identity (for any checkpoint index and any resume lane count), loading the
// legacy IMRDPL1 pipeline container, truncation/corruption fuzz on the engine
// container, and the atomic write-temp-then-rename discipline.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/assessor.hpp"
#include "core/checkpoint.hpp"
#include "dist/communicator.hpp"
#include "test_util.hpp"

namespace imrdmd {
namespace {

using core::AssessmentSnapshot;
using core::Assessor;
using core::AssessorConfig;
using core::AssessorResumeOptions;
using core::CollectingSink;
using core::Mat;
using core::PipelineOptions;
using core::StopCondition;
using imrdmd::testing::kGoldenFleetCheckpoint;
using imrdmd::testing::kGoldenPipelineCheckpoint;
using imrdmd::testing::planted_multiscale;
using imrdmd::testing::test_data_bytes;

using MatChunkSource = core::MatrixChunkSource;

PipelineOptions checkpoint_pipeline_options() {
  PipelineOptions options;
  options.imrdmd.mrdmd.max_levels = 4;
  options.imrdmd.mrdmd.dt = 1.0;
  options.baseline = {-10.0, 10.0};  // planted signal means: keep everyone
  return options;
}

Mat checkpoint_data() {
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

std::vector<AssessmentSnapshot> run_collect(Assessor& engine,
                                            core::ChunkSource& stream,
                                            std::size_t max_chunks = 0) {
  CollectingSink sink;
  StopCondition stop;
  stop.max_chunks = max_chunks;
  engine.run_until(stream, sink, stop);
  return sink.take();
}

/// One uninterrupted reference run over the shared 256+64+64 chunking.
std::vector<AssessmentSnapshot> reference_run(const Mat& data,
                                              const AssessorConfig& config) {
  AssessorConfig local = config;
  Assessor engine(local);
  MatChunkSource source(data, 256, 64);
  return run_collect(engine, source);
}

TEST(FleetCheckpoint, KilledRunResumesBitwiseIdenticalFromAnyCheckpoint) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 5), 5)
      .sensors(data.rows());
  const auto reference = reference_run(data, config);
  ASSERT_EQ(reference.size(), 3u);

  const std::string path = ::testing::TempDir() + "/fleet.ckpt";
  for (const std::size_t kill_after : {1u, 2u}) {
    // The doomed run checkpoints after every chunk; max_chunks stands in
    // for the kill — everything past the file is lost with the process.
    AssessorConfig doomed = config;
    doomed.checkpoint({1, path});
    Assessor engine(doomed);
    MatChunkSource source(data, 256, 64);
    const auto before = run_collect(engine, source, kill_after);
    ASSERT_EQ(before.size(), kill_after);

    // Resume from the latest checkpoint with a *different* lane count: the
    // restored stream must still be bitwise identical to the reference.
    AssessorResumeOptions resume;
    resume.lanes = kill_after == 1 ? 2 : 1;
    core::RestoredAssessor restored =
        core::load_assessor_checkpoint_file(path, resume);
    EXPECT_EQ(restored.assessor.chunks_processed(), kill_after);
    MatChunkSource rest(data, 256, 64);
    rest.seek(static_cast<std::size_t>(restored.stream_position));
    const auto after = run_collect(restored.assessor, rest);
    ASSERT_EQ(after.size(), reference.size() - kill_after);
    for (std::size_t i = 0; i < after.size(); ++i) {
      expect_snapshot_equal(after[i], reference[kill_after + i]);
    }
  }
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, RoundTripsThroughMemoryAndResaves) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows());
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 2);

  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  EXPECT_EQ(restored.assessor.group_count(), 3u);
  EXPECT_EQ(restored.assessor.groups(), engine.groups());
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  EXPECT_EQ(restored.stream_position, 256u + 64u);
  EXPECT_EQ(restored.assessor.hierarchical(), engine.hierarchical());
  EXPECT_EQ(restored.assessor.coarse_stride(), engine.coarse_stride());

  // Serialization is a pure function of the restored state: re-saving the
  // loaded engine reproduces the container byte for byte.
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(buffer.str(), resaved.str());

  // Both continue with the same chunk and stay bitwise identical.
  const Mat chunk = data.block(0, 320, data.rows(), 64);
  const AssessmentSnapshot a = engine.process(chunk);
  const AssessmentSnapshot b = restored.assessor.process(chunk);
  expect_snapshot_equal(a, b);
}

TEST(FleetCheckpoint, ResumeWithMoreLanesReappliesNestedPoolGuard) {
  // A checkpoint saved from a single-lane engine carries models with
  // parallel_bins still enabled (the lane runs on the caller thread, where
  // nesting is legal). Resuming with real lanes must force it off on the
  // *restored* models, or each lane task would fan back out onto — and
  // block on — its own pool.
  const Mat data = checkpoint_data();
  PipelineOptions pipeline = checkpoint_pipeline_options();
  pipeline.imrdmd.mrdmd.parallel_bins = true;
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3), 1)
      .sensors(data.rows());
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 1);
  ASSERT_TRUE(engine.model(0).options().mrdmd.parallel_bins);

  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  AssessorResumeOptions resume;
  resume.lanes = 3;
  core::RestoredAssessor restored =
      core::load_assessor_checkpoint(buffer, resume);
  for (std::size_t g = 0; g < restored.assessor.group_count(); ++g) {
    EXPECT_FALSE(restored.assessor.model(g).options().mrdmd.parallel_bins);
  }
  // And the resumed multi-lane engine still matches the single-lane
  // continuation bitwise.
  const Mat chunk = data.block(0, 320, data.rows(), 64);
  const AssessmentSnapshot a = engine.process(chunk);
  const AssessmentSnapshot b = restored.assessor.process(chunk);
  expect_snapshot_equal(a, b);
}

TEST(FleetCheckpoint, UnstartedEngineRejected) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options()).sensors(data.rows());
  Assessor engine(config);
  std::stringstream buffer;
  EXPECT_THROW(core::save_assessor_checkpoint(buffer, engine),
               InvalidArgument);
}

TEST(PipelineCheckpoint, KilledRunResumesBitwiseIdentical) {
  // A flat monolithic engine (hierarchy pinned off) round-trips through
  // the engine container.
  const Mat data = checkpoint_data();
  Assessor reference(
      AssessorConfig{}.pipeline(checkpoint_pipeline_options()).hierarchy(0));
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);
  ASSERT_EQ(expected.size(), 3u);

  Assessor doomed(
      AssessorConfig{}.pipeline(checkpoint_pipeline_options()).hierarchy(0));
  MatChunkSource replay(data, 256, 64);
  run_collect(doomed, replay, 2);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, doomed);

  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  EXPECT_EQ(restored.assessor.chunks_processed(), 2u);
  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  const auto after = run_collect(restored.assessor, rest);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].chunk_index, expected[2].chunk_index);
  EXPECT_EQ(after[0].total_snapshots, expected[2].total_snapshots);
  expect_bitwise_equal(after[0].magnitudes, expected[2].magnitudes);
  expect_bitwise_equal(after[0].zscores.zscores, expected[2].zscores.zscores);
}

TEST(PipelineCheckpoint, StickyBaselineSurvivesResume) {
  // With reselect_baseline_per_chunk = false the stage's one-shot selection
  // is genuine mutable state: losing it across a resume would re-select on
  // the next chunk and silently change every z-score.
  const Mat data = checkpoint_data();
  PipelineOptions options = checkpoint_pipeline_options();
  options.reselect_baseline_per_chunk = false;
  Assessor reference(AssessorConfig{}.pipeline(options).hierarchy(0));
  MatChunkSource source(data, 256, 64);
  const auto expected = run_collect(reference, source);

  Assessor doomed(AssessorConfig{}.pipeline(options).hierarchy(0));
  MatChunkSource replay(data, 256, 64);
  run_collect(doomed, replay, 1);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, doomed);
  core::RestoredAssessor restored = core::load_assessor_checkpoint(buffer);
  MatChunkSource rest(data, 256, 64);
  rest.seek(static_cast<std::size_t>(restored.stream_position));
  const auto after = run_collect(restored.assessor, rest);
  ASSERT_EQ(after.size(), 2u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    expect_bitwise_equal(after[i].zscores.zscores,
                         expected[1 + i].zscores.zscores);
    EXPECT_EQ(after[i].zscores.baseline_sensors,
              expected[1 + i].zscores.baseline_sensors);
  }
}

TEST(PipelineCheckpoint, LegacyAndUnifiedContainersResumeIdentically) {
  // The golden pair holds one engine state in the retired IMRDPL1
  // container and in IMRDFL1. Both load to the same engine: they re-save
  // to the same IMRDFL1 bytes and produce the same next snapshot. The
  // oracle compares the two loads only, so it holds under any backend.
  std::stringstream legacy_bytes(test_data_bytes(kGoldenPipelineCheckpoint));
  std::stringstream unified_bytes(test_data_bytes(kGoldenFleetCheckpoint));
  EXPECT_EQ(legacy_bytes.str().substr(0, 8), "IMRDPL1\n");
  EXPECT_EQ(unified_bytes.str().substr(0, 8), "IMRDFL1\n");
  ASSERT_NE(legacy_bytes.str(), unified_bytes.str());

  core::RestoredAssessor from_legacy =
      core::load_assessor_checkpoint(legacy_bytes);
  core::RestoredAssessor from_unified =
      core::load_assessor_checkpoint(unified_bytes);
  EXPECT_EQ(from_legacy.stream_position, from_unified.stream_position);
  EXPECT_EQ(from_legacy.stream_position, 320u);
  std::stringstream legacy_resaved;
  core::save_assessor_checkpoint(legacy_resaved, from_legacy.assessor);
  std::stringstream unified_resaved;
  core::save_assessor_checkpoint(unified_resaved, from_unified.assessor);
  EXPECT_EQ(legacy_resaved.str(), unified_resaved.str());
  EXPECT_EQ(unified_resaved.str(), unified_bytes.str());

  Rng rng(7);
  const Mat data = planted_multiscale(15, 384, 0.02, rng);
  const Mat chunk = data.block(0, 320, data.rows(), 64);
  expect_snapshot_equal(from_legacy.assessor.process(chunk),
                        from_unified.assessor.process(chunk));
}

// --- truncation / corruption fuzz on the engine container ----------------

std::string small_fleet_bytes() {
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows());
  Assessor engine(config);
  MatChunkSource source(data, 128, 64);
  run_collect(engine, source);
  std::stringstream buffer;
  core::save_assessor_checkpoint(buffer, engine);
  return buffer.str();
}

TEST(FleetCheckpoint, EveryTruncationPointYieldsParseError) {
  const std::string bytes = small_fleet_bytes();
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 97);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    std::stringstream truncated(bytes.substr(0, cut));
    EXPECT_THROW(core::load_assessor_checkpoint(truncated), ParseError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(FleetCheckpoint, CorruptBaselinePopulationRejectedAtLoad) {
  // A flipped baseline sensor index must fail at load with ParseError, not
  // chunks later as a DimensionError inside the resumed stream's first
  // z-scoring. The first population index sits at a fixed offset: magic
  // (8) + 8 stage-option words (64) + chunk/position words (16) +
  // selected_once + count (16) = 104. (The V2 hierarchy section is
  // appended after the groups section, so the offset holds for both
  // container versions.)
  const std::string bytes = small_fleet_bytes();
  std::string corrupt = bytes;
  const std::uint64_t huge = std::uint64_t{1} << 20;
  std::memcpy(corrupt.data() + 104, &huge, sizeof huge);
  std::stringstream in(corrupt);
  EXPECT_THROW(core::load_assessor_checkpoint(in), ParseError);
}

TEST(FleetCheckpoint, CorruptWordsRejectedWithoutHugeAllocation) {
  // Fuzz every u64-aligned position with an all-ones word: loads must
  // either succeed or throw a library Error — never exhaust memory or
  // crash on a garbage length prefix, section size, or group index.
  const std::string bytes = small_fleet_bytes();
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

// --- mixed-provenance resume fuzz (saved at R ranks, resumed at R') -----

/// The same engine state as small_fleet_bytes, but driven (and
/// checkpointed) by a distributed run at `ranks` ranks.
std::string distributed_small_fleet_bytes(int ranks) {
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  dist::World world(ranks);
  std::string bytes;
  world.run([&](dist::Communicator& comm) {
    AssessorConfig config;
    config.pipeline(pipeline)
        .sharded(core::contiguous_groups(data.rows(), 3))
        .sensors(data.rows())
        .distributed(comm);
    Assessor engine(config);
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
  return bytes;
}

TEST(DistributedFleetCheckpoint, ProvenanceIsInvisibleInTheBytes) {
  // A checkpoint written at any rank count is byte-for-byte the container
  // the single-process engine writes — which is what makes every resume
  // combination below a pure parser problem, fuzzed once for all writers.
  const std::string reference = small_fleet_bytes();
  EXPECT_EQ(distributed_small_fleet_bytes(2), reference);
  EXPECT_EQ(distributed_small_fleet_bytes(3), reference);
}

TEST(DistributedFleetCheckpoint, ResumesAtAnyRankCountFromAnyProvenance) {
  // Saved at 3 ranks; resumed single-process and at 2 ranks — both must
  // continue the stream bitwise-identically to the uninterrupted engine.
  Rng rng(13);
  const Mat data = planted_multiscale(9, 192, 0.02, rng);
  PipelineOptions pipeline;
  pipeline.imrdmd.mrdmd.max_levels = 3;
  pipeline.imrdmd.mrdmd.dt = 1.0;
  pipeline.baseline = {-10.0, 10.0};
  AssessorConfig config;
  config.pipeline(pipeline)
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows());

  // Uninterrupted reference, one extra chunk past the checkpoint state.
  const Mat extra = planted_multiscale(9, 64, 0.02, rng);
  Assessor reference(config);
  MatChunkSource reference_source(data, 128, 64);
  run_collect(reference, reference_source);
  const AssessmentSnapshot expected = reference.process(extra);

  const std::string bytes = distributed_small_fleet_bytes(3);

  // Single-process resume of the distributed checkpoint.
  {
    std::stringstream in(bytes);
    core::RestoredAssessor restored = core::load_assessor_checkpoint(in);
    EXPECT_EQ(restored.stream_position, 192u);
    expect_snapshot_equal(restored.assessor.process(extra), expected);
  }
  // 2-rank distributed resume of the same bytes.
  {
    dist::World world(2);
    world.run([&](dist::Communicator& comm) {
      std::stringstream in(bytes);
      core::RestoredAssessor restored =
          core::load_assessor_checkpoint(in, comm);
      EXPECT_EQ(restored.stream_position, 192u);
      expect_snapshot_equal(restored.assessor.process(extra), expected);
    });
  }
}

TEST(DistributedFleetCheckpoint, TruncationRejectedAtEveryRankCount) {
  // The fuzz machinery from the single-process suite, pointed at the
  // distributed load path: every truncation prefix must yield ParseError
  // on every rank (each rank parses independently — no collective to
  // deadlock in), at more than one resume rank count.
  const std::string bytes = small_fleet_bytes();
  ASSERT_GT(bytes.size(), 64u);
  const std::size_t step = std::max<std::size_t>(1, bytes.size() / 23);
  for (std::size_t cut = 0; cut < bytes.size(); cut += step) {
    dist::World world(2);
    EXPECT_THROW(world.run([&](dist::Communicator& comm) {
                   std::stringstream truncated(bytes.substr(0, cut));
                   core::load_assessor_checkpoint(truncated, comm);
                 }),
                 ParseError)
        << "prefix of " << cut << " bytes";
  }
}

TEST(DistributedFleetCheckpoint, CorruptWordsRejectedWithoutHugeAllocation) {
  // Sparse word-flip fuzz on the distributed load path. The parser is the
  // same parse_any the dense single-process fuzz above hammers at every
  // offset; this pass samples offsets to keep the world spawns cheap while
  // still covering the distributed assembly (ownership slicing) on
  // corrupted parses.
  const std::string bytes = small_fleet_bytes();
  for (std::size_t offset = 8; offset + 8 <= bytes.size(); offset += 8 * 23) {
    std::string corrupt = bytes;
    const std::uint64_t garbage = ~std::uint64_t{0};
    std::memcpy(corrupt.data() + offset, &garbage, sizeof garbage);
    dist::World world(2);
    try {
      world.run([&](dist::Communicator& comm) {
        std::stringstream in(corrupt);
        core::load_assessor_checkpoint(in, comm);
      });
    } catch (const Error&) {
      // Expected for most offsets.
    }
  }
}

// --- elastic growth -----------------------------------------------------

TEST(FleetCheckpoint, GrownHierarchicalStackRoundTripsAndResaves) {
  // add_sensors appends the new block's coarse rows at the end of the grid,
  // which the partition alone cannot reproduce: the IMRDFL2 container
  // carries the grid and interpolation map, so a grown engine saves,
  // loads, resaves byte-identically and continues bitwise.
  Rng rng(23);
  const Mat data = planted_multiscale(18, 384, 0.02, rng);
  PipelineOptions pipeline = checkpoint_pipeline_options();
  pipeline.imrdmd.keep_history = true;

  auto make_engine = [&] {
    AssessorConfig config;
    config.pipeline(pipeline)
        .sharded(core::contiguous_groups(15, 5))
        .sensors(15)
        .hierarchy(2);
    return Assessor(config);
  };

  Assessor reference = make_engine();
  reference.process(data.block(0, 0, 15, 256));
  reference.add_sensors(4, data.block(15, 0, 3, 256));
  reference.process(data.block(0, 256, 18, 64));
  const AssessmentSnapshot expected =
      reference.process(data.block(0, 320, 18, 64));

  Assessor doomed = make_engine();
  doomed.process(data.block(0, 0, 15, 256));
  doomed.add_sensors(4, data.block(15, 0, 3, 256));
  doomed.process(data.block(0, 256, 18, 64));
  std::stringstream bytes;
  core::save_assessor_checkpoint(bytes, doomed);
  ASSERT_EQ(bytes.str().substr(0, 8), "IMRDFL2\n");

  core::RestoredAssessor restored = core::load_assessor_checkpoint(bytes);
  EXPECT_EQ(restored.assessor.sensors(), 18u);
  EXPECT_EQ(restored.assessor.groups()[4].size(), 6u);
  EXPECT_TRUE(restored.assessor.hierarchical());
  std::stringstream resaved;
  core::save_assessor_checkpoint(resaved, restored.assessor);
  EXPECT_EQ(resaved.str(), bytes.str());
  expect_snapshot_equal(restored.assessor.process(data.block(0, 320, 18, 64)),
                        expected);
}

// --- atomic file-level writes -------------------------------------------

TEST(FleetCheckpoint, FileWritesAreAtomicAndLeaveNoTemp) {
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows());
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  run_collect(engine, source, 1);

  const std::string path = ::testing::TempDir() + "/atomic_fleet.ckpt";
  core::save_assessor_checkpoint_file(path, engine);
  std::size_t temps = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(::testing::TempDir())) {
    if (entry.path().filename().string().rfind("atomic_fleet.ckpt.tmp", 0) ==
        0) {
      ++temps;
    }
  }
  EXPECT_EQ(temps, 0u) << "temp file left over";
  core::RestoredAssessor restored =
      core::load_assessor_checkpoint_file(path);
  EXPECT_EQ(restored.assessor.chunks_processed(), 1u);

  // A failed save must leave the previous complete checkpoint untouched:
  // saving to a directory that refuses the temp file throws without ever
  // touching `path`.
  std::string before;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream copy;
    copy << in.rdbuf();
    before = copy.str();
  }
  EXPECT_THROW(
      core::save_assessor_checkpoint_file(
          ::testing::TempDir() + "/no-such-dir/fleet.ckpt", engine),
      Error);
  std::ifstream in(path, std::ios::binary);
  std::stringstream copy;
  copy << in.rdbuf();
  EXPECT_EQ(copy.str(), before);
  std::remove(path.c_str());
}

TEST(FleetCheckpoint, FailedPeriodicWriteParksPrefetchedChunk) {
  // A checkpoint write that fails mid-run must follow the same no-data-loss
  // discipline as a processing failure: the chunk the async prefetch
  // already consumed is parked, and a retry run() continues with it.
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .checkpoint({1, ::testing::TempDir() + "/no-such-dir/fleet.ckpt"});
  config.ingest_options.prefetch_depth = 1;
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);
  // Each attempt processes exactly one chunk, DELIVERS its snapshot (the
  // sink sees everything before the checkpoint write), fails on the write,
  // and parks the chunk the prefetch already pulled; retries must walk the
  // stream without skipping or re-delivering anything.
  CollectingSink sink;
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(engine.run(source, sink), Error);
    ASSERT_EQ(sink.snapshots().size(), static_cast<std::size_t>(attempt + 1));
  }
  EXPECT_EQ(engine.snapshots_processed(), data.cols());
  const auto delivered = sink.take();
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].chunk_index, i);
  }
  EXPECT_EQ(delivered[2].total_snapshots, data.cols());
  // The stream is fully consumed: a final run() delivers nothing more.
  const auto rest = run_collect(engine, source);
  EXPECT_TRUE(rest.empty());
}

TEST(FleetCheckpoint, MaxChunksWithParkedSnapshotsDoesNotDropAChunk) {
  // Regression: the run loop used to pull a chunk from the source (or the
  // carry slot) BEFORE checking whether the parked snapshots already
  // satisfied max_chunks — destroying the pulled chunk unprocessed and
  // silently skipping its telemetry on the following call.
  const Mat data = checkpoint_data();
  AssessorConfig config;
  config.pipeline(checkpoint_pipeline_options())
      .sharded(core::contiguous_groups(data.rows(), 3))
      .sensors(data.rows())
      .checkpoint({1, ::testing::TempDir() + "/no-such-dir/fleet.ckpt"});
  Assessor engine(config);
  MatChunkSource source(data, 256, 64);

  // Every checkpoint write fails AFTER the chunk's snapshot was delivered
  // to the sink. All three chunks must come through, in order, with no gap
  // and no re-delivery — a retry must never pull-and-destroy a chunk that
  // the budget check would have refused anyway.
  CollectingSink sink;
  for (int attempt = 0; attempt < 8 && sink.snapshots().size() < 3;
       ++attempt) {
    try {
      StopCondition one;
      one.max_chunks = 1;
      engine.run_until(source, sink, one);
    } catch (const Error&) {
      // Expected: the checkpoint directory does not exist.
    }
  }
  const auto delivered = sink.take();
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i].chunk_index, i);
  }
  // Stream continuity — a dropped chunk would leave the totals short.
  EXPECT_EQ(delivered[0].total_snapshots, 256u);
  EXPECT_EQ(delivered[1].total_snapshots, 320u);
  EXPECT_EQ(delivered[2].total_snapshots, 384u);
  EXPECT_EQ(engine.snapshots_processed(), data.cols());
}

TEST(ChunkSourceSeek, DefaultThrowsAndMatrixSourceSeeks) {
  class NoSeekSource final : public core::ChunkSource {
   public:
    std::optional<Mat> next_chunk() override { return std::nullopt; }
    std::size_t sensors() const override { return 1; }
  };
  NoSeekSource no_seek;
  EXPECT_EQ(no_seek.position(), core::ChunkSource::kUnknownPosition);
  EXPECT_THROW(no_seek.seek(0), InvalidArgument);

  const Mat data = checkpoint_data();
  MatChunkSource source(data, 256, 64);
  source.seek(320);
  EXPECT_EQ(source.position(), 320u);
  const auto chunk = source.next_chunk();
  ASSERT_TRUE(chunk.has_value());
  EXPECT_EQ(chunk->cols(), 64u);
  EXPECT_EQ((*chunk)(0, 0), data(0, 320));
  EXPECT_THROW(source.seek(data.cols() + 1), InvalidArgument);
}

}  // namespace
}  // namespace imrdmd
