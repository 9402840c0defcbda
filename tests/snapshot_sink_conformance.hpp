// Reusable conformance harness for the Assessor's SnapshotSink delivery
// contract, mirroring the ChunkSource conformance pattern
// (chunk_source_conformance.hpp): a typed GoogleTest suite instantiated
// once per engine topology. The harness drives a scripted stream through
// the engine and asserts the contract every sink may rely on:
//
//   * ordering        — snapshots arrive in strictly increasing chunk
//                       order, with contiguous stream totals;
//   * exactly-once    — across successive run calls (including runs that
//                       fail mid-stream, and sink deliveries that throw),
//                       every chunk's snapshot is delivered exactly once;
//   * delivery-before-checkpoint — on_checkpoint_written for chunk k
//                       arrives after on_snapshot for chunk k and before
//                       any later snapshot;
//   * on_end          — called exactly once per normal return with the
//                       delivered counts, and NOT called when the run
//                       unwinds on an error.
//
// A topology param provides `static core::Assessor make(const
// core::AssessorConfig& base)` to retarget the shared suite; the config's
// pipeline/checkpoint/ingest knobs arrive pre-populated.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/assessor.hpp"
#include "test_util.hpp"

namespace imrdmd::testing {

/// Records the full event sequence a run pushes into it.
class RecordingSink final : public core::SnapshotSink {
 public:
  struct Event {
    enum Kind { kSnapshot, kCheckpoint, kEnd } kind = kSnapshot;
    std::size_t chunk_index = 0;
    std::size_t total_snapshots = 0;
    core::RunSummary summary;
  };

  using core::SnapshotSink::on_snapshot;
  bool on_snapshot(const core::AssessmentSnapshot& snapshot) override {
    if (throw_on_chunk >= 0 &&
        snapshot.chunk_index == static_cast<std::size_t>(throw_on_chunk)) {
      if (--throw_count == 0) throw_on_chunk = -1;
      throw std::runtime_error("sink rejects this snapshot");
    }
    events.push_back(
        {Event::kSnapshot, snapshot.chunk_index, snapshot.total_snapshots});
    return true;
  }
  void on_checkpoint_written(const std::string& path,
                             std::size_t chunk_index) override {
    last_checkpoint_path = path;
    events.push_back({Event::kCheckpoint, chunk_index, 0});
  }
  void on_end(const core::RunSummary& summary) override {
    Event event;
    event.kind = Event::kEnd;
    event.summary = summary;
    events.push_back(event);
  }

  std::vector<std::size_t> snapshot_indices() const {
    std::vector<std::size_t> indices;
    for (const Event& event : events) {
      if (event.kind == Event::kSnapshot) indices.push_back(event.chunk_index);
    }
    return indices;
  }

  std::vector<Event> events;
  std::string last_checkpoint_path;
  /// When >= 0, on_snapshot throws at this chunk index, `throw_count`
  /// times in a row.
  int throw_on_chunk = -1;
  int throw_count = 1;
};

template <typename Topology>
class SnapshotSinkConformance : public ::testing::Test {
 protected:
  static core::PipelineOptions pipeline_options() {
    core::PipelineOptions options;
    options.imrdmd.mrdmd.max_levels = 3;
    options.imrdmd.mrdmd.dt = 1.0;
    options.baseline = {-10.0, 10.0};
    return options;
  }

  static linalg::Mat stream_data() {
    Rng rng(29);
    return planted_multiscale(9, 256, 0.02, rng);
  }

  static core::AssessorConfig base_config() {
    core::AssessorConfig config;
    config.pipeline(pipeline_options());
    return config;
  }
};

TYPED_TEST_SUITE_P(SnapshotSinkConformance);

TYPED_TEST_P(SnapshotSinkConformance, DeliversInOrderWithContiguousTotals) {
  const linalg::Mat data = this->stream_data();
  core::Assessor assessor = TypeParam::make(this->base_config());
  core::MatrixChunkSource source(data, 128, 64);
  RecordingSink sink;
  const core::RunSummary summary = assessor.run(source, sink);
  const auto indices = sink.snapshot_indices();
  ASSERT_EQ(indices.size(), 3u);
  std::size_t expected_total = 0;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    EXPECT_EQ(indices[i], i);
  }
  for (const auto& event : sink.events) {
    if (event.kind != RecordingSink::Event::kSnapshot) continue;
    EXPECT_GT(event.total_snapshots, expected_total);
    expected_total = event.total_snapshots;
  }
  EXPECT_EQ(expected_total, data.cols());
  EXPECT_EQ(summary.chunks, 3u);
  EXPECT_EQ(summary.snapshots, data.cols());
}

TYPED_TEST_P(SnapshotSinkConformance, OnEndReportsTheSummaryExactlyOnce) {
  const linalg::Mat data = this->stream_data();
  core::Assessor assessor = TypeParam::make(this->base_config());
  core::MatrixChunkSource source(data, 128, 64);
  RecordingSink sink;
  assessor.run(source, sink);
  ASSERT_FALSE(sink.events.empty());
  std::size_t ends = 0;
  for (const auto& event : sink.events) {
    if (event.kind == RecordingSink::Event::kEnd) ++ends;
  }
  EXPECT_EQ(ends, 1u);
  EXPECT_EQ(sink.events.back().kind, RecordingSink::Event::kEnd);
  EXPECT_EQ(sink.events.back().summary.reason,
            core::StopReason::EndOfStream);
  EXPECT_EQ(sink.events.back().summary.chunks, 3u);
}

TYPED_TEST_P(SnapshotSinkConformance, DeliveryPrecedesTheCheckpointHook) {
  const linalg::Mat data = this->stream_data();
  // Unique per topology instantiation: parallel ctest runs of the typed
  // suite must not share a checkpoint file.
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string tag = std::string(info->test_suite_name()) + "_" + info->name();
  for (char& ch : tag) {
    if (ch == '/' || ch == '.') ch = '_';
  }
  const std::string path =
      ::testing::TempDir() + "/sink_conformance_" + tag + ".ckpt";
  core::AssessorConfig config = this->base_config();
  config.checkpoint({1, path});
  core::Assessor assessor = TypeParam::make(config);
  core::MatrixChunkSource source(data, 128, 64);
  RecordingSink sink;
  assessor.run(source, sink);
  EXPECT_EQ(sink.last_checkpoint_path, path);
  // Scan the interleaving: every checkpoint event names the chunk whose
  // snapshot IMMEDIATELY precedes it.
  int last_snapshot = -1;
  std::size_t checkpoints = 0;
  for (const auto& event : sink.events) {
    if (event.kind == RecordingSink::Event::kSnapshot) {
      last_snapshot = static_cast<int>(event.chunk_index);
    } else if (event.kind == RecordingSink::Event::kCheckpoint) {
      ++checkpoints;
      EXPECT_EQ(static_cast<int>(event.chunk_index), last_snapshot)
          << "checkpoint hook ran before its snapshot was delivered";
    }
  }
  EXPECT_EQ(checkpoints, 3u);
  std::remove(path.c_str());
}

TYPED_TEST_P(SnapshotSinkConformance, ExactlyOnceAcrossFailedRuns) {
  // A checkpoint hook that fails every time: each run delivers its chunk's
  // snapshot BEFORE throwing, so retries walk the stream with every chunk
  // delivered exactly once.
  const linalg::Mat data = this->stream_data();
  core::AssessorConfig config = this->base_config();
  config.checkpoint({1, ::testing::TempDir() + "/no-such-dir/sink.ckpt"});
  core::Assessor assessor = TypeParam::make(config);
  core::MatrixChunkSource source(data, 128, 64);
  RecordingSink sink;
  for (int attempt = 0; attempt < 3; ++attempt) {
    EXPECT_THROW(assessor.run(source, sink), Error);
    // A failed run never reports an end.
    EXPECT_NE(sink.events.back().kind, RecordingSink::Event::kEnd);
  }
  const auto delivered = sink.snapshot_indices();
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i);
  }
  // The stream is exhausted and everything was delivered: a final run
  // delivers nothing new.
  RecordingSink empty;
  assessor.run(source, empty);
  EXPECT_TRUE(empty.snapshot_indices().empty());
}

TYPED_TEST_P(SnapshotSinkConformance, ThrowingSinkGetsRedeliveredOnce) {
  // on_snapshot throwing parks the snapshot; the next run delivers it
  // first. A redelivery that throws again parks it again, so it still
  // arrives exactly once overall, in order.
  const linalg::Mat data = this->stream_data();
  core::Assessor assessor = TypeParam::make(this->base_config());
  core::MatrixChunkSource source(data, 128, 64);
  RecordingSink sink;
  sink.throw_on_chunk = 1;
  sink.throw_count = 2;
  EXPECT_THROW(assessor.run(source, sink), std::runtime_error);
  EXPECT_EQ(sink.snapshot_indices(), (std::vector<std::size_t>{0}));
  EXPECT_THROW(assessor.run(source, sink), std::runtime_error);
  EXPECT_EQ(sink.snapshot_indices(), (std::vector<std::size_t>{0}));
  assessor.run(source, sink);
  const auto delivered = sink.snapshot_indices();
  ASSERT_EQ(delivered.size(), 3u);
  for (std::size_t i = 0; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[i], i);
  }
}

REGISTER_TYPED_TEST_SUITE_P(SnapshotSinkConformance,
                            DeliversInOrderWithContiguousTotals,
                            OnEndReportsTheSummaryExactlyOnce,
                            DeliveryPrecedesTheCheckpointHook,
                            ExactlyOnceAcrossFailedRuns,
                            ThrowingSinkGetsRedeliveredOnce);

}  // namespace imrdmd::testing
