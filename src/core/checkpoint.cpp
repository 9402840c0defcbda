#include "core/checkpoint.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/atomic_file.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"

namespace imrdmd::core {

namespace {

constexpr char kMagic[8] = {'I', 'M', 'R', 'D', 'M', 'D', '1', '\n'};
constexpr char kPipelineMagic[8] = {'I', 'M', 'R', 'D', 'P', 'L', '1', '\n'};
constexpr char kFleetMagic[8] = {'I', 'M', 'R', 'D', 'F', 'L', '1', '\n'};
// V2 = V1 plus a hierarchy section between the group partition and the
// per-group model sections: the coarse stride, the explicit coarse grid
// (row count, then each row's machine sensor index), the interpolation map
// (entry count = sensors, then per sensor lo, hi, w), and one coarse-model
// section. The grid is carried, not re-derived, because elastic growth
// appends rows the pure ModelStack::coarse_grid function cannot reproduce.
// Written only by hierarchical engines, so every flat save stays
// byte-identical to the V1 generation.
constexpr char kFleetMagic2[8] = {'I', 'M', 'R', 'D', 'F', 'L', '2', '\n'};

// --- primitive writers/readers (little-endian native; the format is not
// exchanged across architectures) -------------------------------------

void put_u64(std::ostream& out, std::uint64_t value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

void put_f64(std::ostream& out, double value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof value);
}

// Reader that tracks how many bytes remain in the stream so every
// length-prefixed section can be bounded *before* it drives an allocation or
// a read past EOF: a truncated or corrupted header then yields the
// documented ParseError instead of a huge allocation / bad_alloc.
class BoundedReader {
 public:
  static constexpr std::uint64_t kUnknown = ~std::uint64_t{0};

  explicit BoundedReader(std::istream& in) : in_(in) {
    const std::istream::pos_type pos = in_.tellg();
    if (pos == std::istream::pos_type(-1)) return;  // non-seekable
    in_.seekg(0, std::ios::end);
    const std::istream::pos_type end = in_.tellg();
    in_.seekg(pos);
    if (end != std::istream::pos_type(-1) && end >= pos) {
      remaining_ = static_cast<std::uint64_t>(end - pos);
    }
  }

  /// Bytes left in the stream (kUnknown when the stream is not seekable).
  std::uint64_t remaining() const { return remaining_; }

  /// Throws ParseError unless `bytes` more bytes are known to be available.
  /// A non-seekable stream has no exact size, so sections there are held to
  /// a hard ceiling instead — a corrupted header may still waste up to the
  /// ceiling, but never a fantasy-sized allocation.
  void require(std::uint64_t bytes, const char* what) const {
    constexpr std::uint64_t kMaxUnknownSection = std::uint64_t{1} << 30;
    const std::uint64_t limit =
        remaining_ == kUnknown ? kMaxUnknownSection : remaining_;
    if (bytes > limit) {
      throw ParseError(std::string("checkpoint truncated (") + what + ")");
    }
  }

  void read(char* dst, std::uint64_t bytes, const char* what) {
    require(bytes, what);
    in_.read(dst, static_cast<std::streamsize>(bytes));
    if (!in_) {
      throw ParseError(std::string("checkpoint truncated (") + what + ")");
    }
    if (remaining_ != kUnknown) remaining_ -= bytes;
  }

 private:
  std::istream& in_;
  std::uint64_t remaining_ = kUnknown;
};

std::uint64_t get_u64(BoundedReader& in) {
  std::uint64_t value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value, "u64");
  return value;
}

double get_f64(BoundedReader& in) {
  double value = 0;
  in.read(reinterpret_cast<char*>(&value), sizeof value, "f64");
  return value;
}

void put_mat(std::ostream& out, const linalg::Mat& m) {
  put_u64(out, m.rows());
  put_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(double)));
}

linalg::Mat get_mat(BoundedReader& in) {
  const std::uint64_t rows = get_u64(in);
  const std::uint64_t cols = get_u64(in);
  if (rows > (1u << 26) || cols > (1u << 26)) {
    throw ParseError("checkpoint matrix shape implausible");
  }
  in.require(rows * cols * sizeof(double), "matrix");
  linalg::Mat m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()), m.size() * sizeof(double),
          "matrix");
  return m;
}

void put_cmat(std::ostream& out, const linalg::CMat& m) {
  put_u64(out, m.rows());
  put_u64(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(linalg::Complex)));
}

linalg::CMat get_cmat(BoundedReader& in) {
  const std::uint64_t rows = get_u64(in);
  const std::uint64_t cols = get_u64(in);
  if (rows > (1u << 26) || cols > (1u << 26)) {
    throw ParseError("checkpoint matrix shape implausible");
  }
  in.require(rows * cols * sizeof(linalg::Complex), "complex matrix");
  linalg::CMat m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          m.size() * sizeof(linalg::Complex), "complex matrix");
  return m;
}

void put_node(std::ostream& out, const MrdmdNode& node) {
  put_u64(out, node.level);
  put_u64(out, node.bin_index);
  put_u64(out, node.t_begin);
  put_u64(out, node.t_end);
  put_u64(out, node.stride);
  put_f64(out, node.rho);
  put_u64(out, node.svd_rank);
  put_cmat(out, node.modes);
  put_u64(out, node.eigenvalues.size());
  for (const auto& value : node.eigenvalues) {
    put_f64(out, value.real());
    put_f64(out, value.imag());
  }
  for (const auto& value : node.amplitudes) {
    put_f64(out, value.real());
    put_f64(out, value.imag());
  }
}

MrdmdNode get_node(BoundedReader& in) {
  MrdmdNode node;
  node.level = get_u64(in);
  node.bin_index = get_u64(in);
  node.t_begin = get_u64(in);
  node.t_end = get_u64(in);
  node.stride = get_u64(in);
  node.rho = get_f64(in);
  node.svd_rank = get_u64(in);
  node.modes = get_cmat(in);
  const std::uint64_t modes = get_u64(in);
  // Each mode carries 4 doubles (eigenvalue + amplitude, re/im); bound the
  // count before resize so a garbage prefix cannot drive the allocation.
  if (modes > (1u << 26)) throw ParseError("checkpoint mode count implausible");
  in.require(modes * 4 * sizeof(double), "node modes");
  node.eigenvalues.resize(modes);
  node.amplitudes.resize(modes);
  for (auto& value : node.eigenvalues) {
    const double re = get_f64(in);
    const double im = get_f64(in);
    value = {re, im};
  }
  for (auto& value : node.amplitudes) {
    const double re = get_f64(in);
    const double im = get_f64(in);
    value = {re, im};
  }
  return node;
}

// --- stage options / stage state (shared by pipeline + fleet headers) ---

void put_stage_options(std::ostream& out, const PipelineOptions& options) {
  put_f64(out, options.band.min_frequency_hz);
  put_f64(out, options.band.max_frequency_hz);
  put_f64(out, options.band.min_power);
  put_f64(out, options.baseline.value_min);
  put_f64(out, options.baseline.value_max);
  put_f64(out, options.zscore.near_band);
  put_f64(out, options.zscore.hot_threshold);
  put_u64(out, options.reselect_baseline_per_chunk ? 1 : 0);
}

void get_stage_options(BoundedReader& in, PipelineOptions& options) {
  options.band.min_frequency_hz = get_f64(in);
  options.band.max_frequency_hz = get_f64(in);
  options.band.min_power = get_f64(in);
  options.baseline.value_min = get_f64(in);
  options.baseline.value_max = get_f64(in);
  options.zscore.near_band = get_f64(in);
  options.zscore.hot_threshold = get_f64(in);
  options.reselect_baseline_per_chunk = get_u64(in) != 0;
}

void put_stage_state(std::ostream& out,
                     const BaselineZscoreStage::State& state) {
  put_u64(out, state.selected_once ? 1 : 0);
  put_u64(out, state.baseline_sensors.size());
  for (std::size_t sensor : state.baseline_sensors) put_u64(out, sensor);
}

BaselineZscoreStage::State get_stage_state(BoundedReader& in) {
  BaselineZscoreStage::State state;
  state.selected_once = get_u64(in) != 0;
  const std::uint64_t count = get_u64(in);
  if (count > (1u << 26)) {
    throw ParseError("checkpoint baseline population implausible");
  }
  in.require(count * sizeof(std::uint64_t), "baseline population");
  state.baseline_sensors.resize(count);
  for (auto& sensor : state.baseline_sensors) {
    sensor = static_cast<std::size_t>(get_u64(in));
  }
  return state;
}

/// Everything a pipeline or fleet container parses before assembly. A
/// pipeline-kind parse holds one model and the trivial identity partition,
/// so either kind can assemble into any topology.
struct ParsedCheckpoint {
  PipelineOptions stage_options;  // band/baseline/zscore/reselect only
  std::uint64_t chunks_processed = 0;
  std::uint64_t stream_position = 0;
  BaselineZscoreStage::State stage_state;
  std::uint64_t sensors = 0;
  std::vector<std::vector<std::size_t>> groups;
  std::vector<IncrementalMrdmd> models;
  /// Hierarchy section (V2 containers): 0 = flat stack.
  std::uint64_t coarse_stride = 0;
  std::optional<IncrementalMrdmd> coarse_model;
  /// The explicit coarse grid (machine sensor per coarse row) and the
  /// per-sensor interpolation map (V2 only).
  std::vector<std::size_t> coarse_grid_rows;
  std::vector<std::uint64_t> interp_lo;
  std::vector<std::uint64_t> interp_hi;
  std::vector<double> interp_w;
};

void put_header(std::ostream& out, const PipelineOptions& options,
                std::uint64_t chunks_processed, std::uint64_t stream_position,
                const BaselineZscoreStage::State& state) {
  put_stage_options(out, options);
  put_u64(out, chunks_processed);
  put_u64(out, stream_position);
  put_stage_state(out, state);
}

void get_header(BoundedReader& in, ParsedCheckpoint& parsed) {
  get_stage_options(in, parsed.stage_options);
  parsed.chunks_processed = get_u64(in);
  parsed.stream_position = get_u64(in);
  parsed.stage_state = get_stage_state(in);
  if (parsed.chunks_processed == 0) {
    throw ParseError("checkpoint has no processed chunks");
  }
}

}  // namespace

/// Single access point for every private member the checkpoint module
/// serializes: the model internals (IncrementalMrdmd) and the unified
/// engine's model stack, stage, counters, and lane structure (Assessor /
/// ModelStack). Defined only in this translation unit.
struct CheckpointAccess {
  /// `parallel_bins_override`, when non-null, is written in place of the
  /// model's own mrdmd.parallel_bins. The engine forces that knob off on
  /// its models as a nested-pool guard — a function of the LOCAL lane
  /// count, which differs across lane/rank configurations — so model
  /// sections canonicalize it to the configured pipeline value: checkpoint
  /// bytes stay a pure function of stream + partition + options, invariant
  /// across lane and rank counts.
  static void put_model(std::ostream& out, const IncrementalMrdmd& model,
                        const bool* parallel_bins_override = nullptr);
  static IncrementalMrdmd get_model(BoundedReader& in);
  /// One model image, with parallel_bins written as `canonical_bins` (see
  /// put_model).
  static std::string model_section(const IncrementalMrdmd& model,
                                   bool canonical_bins);
  /// This process's owned group sections, serialized concurrently across
  /// the engine's worker lanes, in local group order.
  static std::vector<std::string> owned_sections(const Assessor& assessor);
  /// The "IMRDFL1"/"IMRDFL2" container, any topology: the distributed
  /// topology gathers every rank's owned sections to rank 0 (`out` is
  /// non-null there only), a single process writes its own; the bytes are
  /// identical for any lane or rank count.
  static void save_fleet(std::ostream* out, const Assessor& assessor);
  /// The V2 coarse grid and interpolation map (see kFleetMagic2).
  static void put_hierarchy_map(std::ostream& out, const Assessor& assessor);
  /// Builds an engine of any topology from a parsed container.
  static RestoredAssessor assemble(ParsedCheckpoint parsed,
                                   dist::Communicator* comm,
                                   const AssessorResumeOptions& resume);
  static BaselineZscoreStage::State stage_state(const Assessor& assessor) {
    return assessor.zscore_stage_.state();
  }
};

namespace {

/// Load-time validation of the restored baseline selection: the fail-fast
/// contract is ParseError *at load*, not a DimensionError chunks later
/// inside the resumed stream's first z-scoring. The saved population is
/// strictly ascending (select_baseline_sensors walks sensors in order), so
/// anything else is corruption.
void check_stage_state(const ParsedCheckpoint& parsed) {
  const auto& sensors = parsed.stage_state.baseline_sensors;
  for (std::size_t i = 0; i < sensors.size(); ++i) {
    if (sensors[i] >= parsed.sensors ||
        (i > 0 && sensors[i] <= sensors[i - 1])) {
      throw ParseError("checkpoint baseline population corrupt");
    }
  }
}

/// Reads one length-prefixed model image, bounding the declared length
/// against the remaining stream before parsing and verifying afterwards
/// that the parse consumed exactly the declared bytes.
IncrementalMrdmd get_model_section(BoundedReader& in, const char* what) {
  const std::uint64_t length = get_u64(in);
  in.require(length, what);
  const std::uint64_t before = in.remaining();
  IncrementalMrdmd model = CheckpointAccess::get_model(in);
  if (before != BoundedReader::kUnknown && before - in.remaining() != length) {
    throw ParseError(std::string("checkpoint section length mismatch (") +
                     what + ")");
  }
  return model;
}

ParsedCheckpoint parse_pipeline_body(BoundedReader& in) {
  ParsedCheckpoint parsed;
  get_header(in, parsed);
  parsed.models.push_back(get_model_section(in, "pipeline model section"));
  if (parsed.models[0].time_steps() != parsed.stream_position) {
    throw ParseError("checkpoint stream position disagrees with the model");
  }
  parsed.sensors = parsed.models[0].sensors();
  parsed.groups.emplace_back();
  parsed.groups[0].reserve(parsed.sensors);
  for (std::size_t p = 0; p < parsed.sensors; ++p) {
    parsed.groups[0].push_back(p);
  }
  check_stage_state(parsed);
  return parsed;
}

/// Reads the sensor count + group partition shared by both fleet container
/// generations (V1/V2), with the same bounded validation.
void parse_fleet_partition(BoundedReader& in, ParsedCheckpoint& parsed) {
  parsed.sensors = get_u64(in);
  if (parsed.sensors == 0 || parsed.sensors > (std::uint64_t{1} << 32)) {
    throw ParseError("fleet checkpoint sensor count implausible");
  }
  const std::uint64_t group_count = get_u64(in);
  if (group_count == 0 || group_count > parsed.sensors) {
    throw ParseError("fleet checkpoint group count implausible");
  }
  // Every group carries at least its size word; a partition of `sensors`
  // carries exactly `sensors` index words in total. Bound both before any
  // group drives an allocation.
  in.require((group_count + parsed.sensors) * sizeof(std::uint64_t),
             "fleet groups");
  parsed.groups.resize(group_count);
  for (auto& group : parsed.groups) {
    const std::uint64_t size = get_u64(in);
    if (size > parsed.sensors) {
      throw ParseError("fleet checkpoint group size implausible");
    }
    in.require(size * sizeof(std::uint64_t), "fleet group");
    group.resize(size);
    for (auto& sensor : group) {
      sensor = static_cast<std::size_t>(get_u64(in));
      if (sensor >= parsed.sensors) {
        throw ParseError("fleet checkpoint group sensor index out of range");
      }
    }
  }
}

/// Reads the V2 coarse grid and interpolation map: every grid row names a
/// sensor, the map has one entry per sensor, and every entry points at grid
/// rows with a weight in [0, 1] — bounded before any allocation.
void parse_hierarchy_map(BoundedReader& in, ParsedCheckpoint& parsed) {
  const std::uint64_t grid_count = get_u64(in);
  if (grid_count == 0 || grid_count > parsed.sensors) {
    throw ParseError("fleet checkpoint coarse grid implausible");
  }
  in.require(grid_count * sizeof(std::uint64_t), "fleet coarse grid");
  parsed.coarse_grid_rows.resize(grid_count);
  for (auto& row : parsed.coarse_grid_rows) {
    row = static_cast<std::size_t>(get_u64(in));
    if (row >= parsed.sensors) {
      throw ParseError("fleet checkpoint coarse grid row out of range");
    }
  }
  const std::uint64_t interp_count = get_u64(in);
  if (interp_count != parsed.sensors) {
    throw ParseError("fleet checkpoint interpolation map count mismatch");
  }
  in.require(interp_count * (2 * sizeof(std::uint64_t) + sizeof(double)),
             "fleet interpolation map");
  parsed.interp_lo.resize(interp_count);
  parsed.interp_hi.resize(interp_count);
  parsed.interp_w.resize(interp_count);
  for (std::uint64_t p = 0; p < interp_count; ++p) {
    parsed.interp_lo[p] = get_u64(in);
    parsed.interp_hi[p] = get_u64(in);
    parsed.interp_w[p] = get_f64(in);
    if (parsed.interp_lo[p] >= grid_count ||
        parsed.interp_hi[p] >= grid_count) {
      throw ParseError("fleet checkpoint interpolation row out of range");
    }
    // The negated test also rejects NaN.
    if (!(parsed.interp_w[p] >= 0.0 && parsed.interp_w[p] <= 1.0)) {
      throw ParseError("fleet checkpoint interpolation weight out of [0, 1]");
    }
  }
}

ParsedCheckpoint parse_fleet_body(BoundedReader& in, bool v2) {
  ParsedCheckpoint parsed;
  get_header(in, parsed);
  parse_fleet_partition(in, parsed);
  if (v2) {
    // Hierarchy section: the stride, the explicit coarse grid and
    // interpolation map, and the replicated coarse model. A V2 container
    // with a disabled stride would be a V1 spelled wrong (and would break
    // resave byte-identity), so it is rejected as corrupt.
    parsed.coarse_stride = get_u64(in);
    if (parsed.coarse_stride == 0 ||
        parsed.coarse_stride > (std::uint64_t{1} << 32)) {
      throw ParseError("fleet checkpoint coarse stride implausible");
    }
    parse_hierarchy_map(in, parsed);
    parsed.coarse_model =
        get_model_section(in, "fleet coarse model section");
    if (parsed.coarse_model->sensors() != parsed.coarse_grid_rows.size()) {
      throw ParseError(
          "fleet coarse section row count disagrees with the coarse grid");
    }
    if (parsed.coarse_model->time_steps() != parsed.stream_position) {
      throw ParseError(
          "fleet checkpoint stream position disagrees with the coarse "
          "model");
    }
  }
  const std::size_t group_count = parsed.groups.size();
  parsed.models.reserve(group_count);
  for (std::size_t g = 0; g < group_count; ++g) {
    parsed.models.push_back(get_model_section(in, "fleet model section"));
    if (parsed.models.back().sensors() != parsed.groups[g].size()) {
      throw ParseError("fleet section row count disagrees with its group");
    }
    if (parsed.models.back().time_steps() != parsed.stream_position) {
      throw ParseError("fleet checkpoint stream position disagrees with a "
                       "group model");
    }
  }
  check_stage_state(parsed);
  return parsed;
}

ParsedCheckpoint parse_any(BoundedReader& in) {
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kPipelineMagic, sizeof magic) == 0) {
    return parse_pipeline_body(in);
  }
  if (std::memcmp(magic, kFleetMagic, sizeof magic) == 0) {
    return parse_fleet_body(in, /*v2=*/false);
  }
  if (std::memcmp(magic, kFleetMagic2, sizeof magic) == 0) {
    return parse_fleet_body(in, /*v2=*/true);
  }
  throw ParseError("not an imrdmd pipeline/fleet checkpoint (bad magic)");
}

}  // namespace

void CheckpointAccess::put_model(std::ostream& out,
                                 const IncrementalMrdmd& model,
                                 const bool* parallel_bins_override) {
  IMRDMD_REQUIRE_ARG(model.fitted(), "cannot checkpoint an unfitted model");
  out.write(kMagic, sizeof kMagic);

  // Options.
  const ImrdmdOptions& options = model.options_;
  const bool parallel_bins = parallel_bins_override != nullptr
                                 ? *parallel_bins_override
                                 : options.mrdmd.parallel_bins;
  put_u64(out, options.mrdmd.max_levels);
  put_u64(out, options.mrdmd.max_cycles);
  put_u64(out, options.mrdmd.use_svht ? 1 : 0);
  put_u64(out, options.mrdmd.max_rank);
  put_f64(out, options.mrdmd.dt);
  put_u64(out, static_cast<std::uint64_t>(options.mrdmd.criterion));
  put_u64(out, parallel_bins ? 1 : 0);
  put_u64(out, static_cast<std::uint64_t>(options.mrdmd.amplitude_fit));
  put_u64(out, options.isvd.max_rank);
  put_f64(out, options.isvd.truncation_tol);
  put_f64(out, options.drift_threshold);
  put_u64(out, options.recompute_on_drift ? 1 : 0);
  put_u64(out, options.keep_history ? 1 : 0);

  // Scalars.
  put_u64(out, model.sensors_);
  put_u64(out, model.time_steps_);
  put_u64(out, model.stride1_);

  // Level-1 state.
  put_mat(out, model.grid_);
  put_mat(out, model.isvd_.u());
  put_u64(out, model.isvd_.s().size());
  for (double s : model.isvd_.s()) put_f64(out, s);
  put_mat(out, model.isvd_.v());
  put_u64(out, model.isvd_.cols_seen());

  // Tree + caches.
  put_u64(out, model.nodes_.size());
  for (const MrdmdNode& node : model.nodes_) put_node(out, node);
  put_mat(out, model.cached_grid_recon_);
  put_mat(out, model.history_);
}

IncrementalMrdmd CheckpointAccess::get_model(BoundedReader& in) {
  char magic[sizeof kMagic];
  in.read(magic, sizeof magic, "magic");
  if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
    throw ParseError("not an imrdmd checkpoint (bad magic)");
  }

  ImrdmdOptions options;
  options.mrdmd.max_levels = get_u64(in);
  options.mrdmd.max_cycles = get_u64(in);
  options.mrdmd.use_svht = get_u64(in) != 0;
  options.mrdmd.max_rank = get_u64(in);
  options.mrdmd.dt = get_f64(in);
  options.mrdmd.criterion = static_cast<SlowModeCriterion>(get_u64(in));
  options.mrdmd.parallel_bins = get_u64(in) != 0;
  options.mrdmd.amplitude_fit = static_cast<dmd::AmplitudeFit>(get_u64(in));
  options.isvd.max_rank = get_u64(in);
  options.isvd.truncation_tol = get_f64(in);
  options.drift_threshold = get_f64(in);
  options.recompute_on_drift = get_u64(in) != 0;
  options.keep_history = get_u64(in) != 0;

  IncrementalMrdmd model(options);
  model.sensors_ = get_u64(in);
  model.time_steps_ = get_u64(in);
  model.stride1_ = get_u64(in);

  model.grid_ = get_mat(in);
  linalg::Mat u = get_mat(in);
  const std::uint64_t rank = get_u64(in);
  if (rank > (1u << 26)) throw ParseError("checkpoint rank implausible");
  in.require(rank * sizeof(double), "singular values");
  std::vector<double> s(rank);
  for (auto& value : s) value = get_f64(in);
  linalg::Mat v = get_mat(in);
  const std::uint64_t cols_seen = get_u64(in);
  model.isvd_ = isvd::Isvd::from_state(options.isvd, std::move(u),
                                       std::move(s), std::move(v), cols_seen);

  const std::uint64_t node_count = get_u64(in);
  if (node_count == 0) throw ParseError("checkpoint has no tree nodes");
  // A node serializes to at least its 7 fixed words; bound the count before
  // reserving so a corrupted header cannot drive a huge allocation.
  if (node_count > (1u << 26)) {
    throw ParseError("checkpoint node count implausible");
  }
  in.require(node_count * 7 * sizeof(std::uint64_t), "tree nodes");
  // Cap the up-front reservation: the stream-byte bound above says nothing
  // about in-memory node size, so a garbage count within it could still
  // reserve GiBs. Growth past the cap amortizes normally.
  model.nodes_.reserve(std::min<std::uint64_t>(node_count, 1u << 16));
  for (std::uint64_t i = 0; i < node_count; ++i) {
    model.nodes_.push_back(get_node(in));
  }
  model.cached_grid_recon_ = get_mat(in);
  model.history_ = get_mat(in);
  model.fitted_ = true;

  // Consistency checks: the restored state must be internally coherent.
  if (model.nodes_[0].t_end != model.time_steps_ ||
      model.nodes_[0].level != 1) {
    throw ParseError("checkpoint root node inconsistent");
  }
  if (model.isvd_.v().rows() + 1 != model.grid_.cols()) {
    throw ParseError("checkpoint iSVD out of sync with the level-1 grid");
  }
  return model;
}

namespace {

void put_bytes(std::ostream& out, const std::string& bytes) {
  put_u64(out, bytes.size());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// The IMRDFL1/IMRDFL2 preamble: version magic (V2 exactly when
/// hierarchical), stage header, partition, and — V2 only — the hierarchy
/// section: stride, explicit coarse grid, interpolation map, and the
/// replicated coarse model (canonicalized like every model section).
void put_fleet_preamble(std::ostream& out, const Assessor& assessor,
                        bool canonical_bins) {
  const bool hierarchical = assessor.hierarchical();
  out.write(hierarchical ? kFleetMagic2 : kFleetMagic, sizeof kFleetMagic);
  put_header(out, assessor.config().pipeline_options,
             assessor.chunks_processed(), assessor.snapshots_processed(),
             CheckpointAccess::stage_state(assessor));
  put_u64(out, assessor.sensors());
  put_u64(out, assessor.groups().size());
  for (const auto& group : assessor.groups()) {
    put_u64(out, group.size());
    for (std::size_t sensor : group) put_u64(out, sensor);
  }
  if (hierarchical) {
    put_u64(out, assessor.coarse_stride());
    CheckpointAccess::put_hierarchy_map(out, assessor);
    put_bytes(out, CheckpointAccess::model_section(assessor.coarse_model(),
                                                   canonical_bins));
  }
}

/// Packs one rank's model sections into the doubles the communicator
/// speaks: [section_count, then per section: byte_length,
/// ceil(byte_length/8) words of raw bytes (zero-padded)]. Counts and
/// lengths ride as exact integers — sections are far below 2^53 bytes.
std::vector<double> pack_sections(const std::vector<std::string>& sections) {
  std::size_t words = 1;
  for (const std::string& s : sections) words += 1 + (s.size() + 7) / 8;
  std::vector<double> blob;
  blob.reserve(words);
  blob.push_back(static_cast<double>(sections.size()));
  for (const std::string& s : sections) {
    blob.push_back(static_cast<double>(s.size()));
    const std::size_t padded = (s.size() + 7) / 8;
    const std::size_t start = blob.size();
    blob.resize(start + padded, 0.0);
    std::memcpy(blob.data() + start, s.data(), s.size());
  }
  return blob;
}

/// Inverse of pack_sections, appending to `sections`; `expected` is the
/// section count this rank was supposed to contribute (its owned group
/// count).
void unpack_sections(const std::vector<double>& blob, std::size_t expected,
                     std::vector<std::string>& sections) {
  IMRDMD_REQUIRE_DIMS(!blob.empty() &&
                          blob[0] == static_cast<double>(expected),
                      "distributed checkpoint rank section count mismatch");
  std::size_t cursor = 1;
  for (std::size_t s = 0; s < expected; ++s) {
    IMRDMD_REQUIRE_DIMS(cursor < blob.size(),
                        "distributed checkpoint rank blob truncated");
    const std::size_t bytes = static_cast<std::size_t>(blob[cursor++]);
    const std::size_t padded = (bytes + 7) / 8;
    IMRDMD_REQUIRE_DIMS(cursor + padded <= blob.size(),
                        "distributed checkpoint rank blob truncated");
    std::string section(bytes, '\0');
    std::memcpy(section.data(), blob.data() + cursor, bytes);
    sections.push_back(std::move(section));
    cursor += padded;
  }
  IMRDMD_REQUIRE_DIMS(cursor == blob.size(),
                      "distributed checkpoint rank blob has trailing bytes");
}

}  // namespace

std::string CheckpointAccess::model_section(const IncrementalMrdmd& model,
                                            bool canonical_bins) {
  std::ostringstream buffer;
  put_model(buffer, model, &canonical_bins);
  return std::move(buffer).str();
}

void CheckpointAccess::put_hierarchy_map(std::ostream& out,
                                         const Assessor& assessor) {
  const ModelStack& stack = assessor.stack_;
  put_u64(out, stack.rows_.size());
  for (std::size_t row : stack.rows_) put_u64(out, row);
  put_u64(out, stack.interp_.size());
  for (const auto& ip : stack.interp_) {
    put_u64(out, ip.lo);
    put_u64(out, ip.hi);
    put_f64(out, ip.w);
  }
}

std::vector<std::string> CheckpointAccess::owned_sections(
    const Assessor& assessor) {
  const std::size_t local_count = assessor.local_end_ - assessor.local_begin_;
  const bool canonical_bins =
      assessor.config_.pipeline_options.imrdmd.mrdmd.parallel_bins;
  std::vector<std::string> sections(local_count);
  run_lanes(
      assessor.lanes_,
      [&assessor, &sections, canonical_bins, local_count](std::size_t lane) {
        for (std::size_t l = lane; l < local_count; l += assessor.lanes_) {
          sections[l] = model_section(assessor.stack_.fine(l), canonical_bins);
        }
      },
      &assessor.pool());
  return sections;
}

void CheckpointAccess::save_fleet(std::ostream* out,
                                  const Assessor& assessor) {
  const bool root = assessor.rank() == 0;
  IMRDMD_REQUIRE_ARG(root == (out != nullptr),
                     "the checkpoint stream lives on rank 0 only (pass "
                     "nullptr on the other ranks)");
  // chunks_processed_ is replicated, so on an unstarted distributed engine
  // every rank throws here together — before any collective.
  IMRDMD_REQUIRE_ARG(assessor.chunks_processed_ >= 1,
                     "cannot checkpoint a fleet before its first chunk");

  std::vector<std::string> sections = owned_sections(assessor);
  if (assessor.comm_ != nullptr) {
    // One ragged gather moves every rank's sections to the writer. Rank
    // blocks arrive in rank order and ownership ranges are contiguous, so
    // concatenation IS global group order — the order a single process
    // writes.
    const std::vector<double> blob = pack_sections(sections);
    const std::vector<std::vector<double>> blobs = assessor.comm_->gatherv(
        std::span<const double>(blob.data(), blob.size()), 0);
    if (!root) return;
    sections.clear();
    for (std::size_t r = 0; r < blobs.size(); ++r) {
      const auto range =
          rank_group_range(assessor.groups_.size(), blobs.size(), r);
      unpack_sections(blobs[r], range.second - range.first, sections);
    }
  }

  // Rank 0's coarse replica is every rank's coarse replica (the coarse
  // update is deterministic over the same coarse grid rows on every rank),
  // so the hierarchy section needs no gather and the bytes stay rank-count
  // invariant.
  put_fleet_preamble(
      *out, assessor,
      assessor.config_.pipeline_options.imrdmd.mrdmd.parallel_bins);
  for (const std::string& section : sections) put_bytes(*out, section);
  if (!*out) throw Error("fleet checkpoint write failed");
}

RestoredAssessor CheckpointAccess::assemble(
    ParsedCheckpoint parsed, dist::Communicator* comm,
    const AssessorResumeOptions& resume) {
  AssessorConfig config;
  config.pipeline_options = parsed.stage_options;
  config.pipeline_options.imrdmd = parsed.models[0].options();
  config.sensor_count = static_cast<std::size_t>(parsed.sensors);
  config.groups = parsed.groups;
  config.lanes = resume.lanes;
  config.comm = comm;
  config.ingest_options = resume.ingest;
  config.worker_pool = resume.pool;
  config.checkpoint_policy = resume.checkpoint;
  // The stride always comes from the container — explicitly, through
  // hierarchy(), so the IMRDMD_HIERARCHY_STRIDE environment default can
  // never override a resumed stream's topology ("IMRDFL1"/"IMRDPL1" files
  // load as stride-disabled flat stacks).
  config.hierarchy(static_cast<std::size_t>(parsed.coarse_stride));
  // The constructor re-validates the partition (disjoint, total cover) and
  // re-derives this process's ownership range — the checkpoint itself
  // carries nothing about the lane or rank count that wrote it.
  Assessor assessor(std::move(config));
  const std::size_t local_count = assessor.local_end_ - assessor.local_begin_;
  for (std::size_t l = 0; l < local_count; ++l) {
    *assessor.stack_.fine_[l] =
        std::move(parsed.models[assessor.local_begin_ + l]);
    // Re-apply the constructor's nested-pool guard to the *restored*
    // models: a checkpoint saved from a single-lane engine carries
    // parallel_bins = true, and resuming it with real lanes would fan each
    // lane task back out onto (and block on) its own pool.
    if (assessor.lanes_ > 1) {
      assessor.stack_.fine_[l]->options_.mrdmd.parallel_bins = false;
    }
  }
  if (parsed.coarse_model.has_value()) {
    // Every rank restores the full coarse replica (it is replicated at
    // runtime, so every rank needs it regardless of group ownership); the
    // coarse model runs on the caller thread and keeps its own options.
    // The container's grid and map replace the ones the constructor
    // derived from the partition: after elastic growth they differ.
    ModelStack& stack = assessor.stack_;
    *stack.coarse_ = std::move(*parsed.coarse_model);
    stack.rows_ = std::move(parsed.coarse_grid_rows);
    stack.interp_.assign(parsed.interp_lo.size(), {});
    for (std::size_t p = 0; p < stack.interp_.size(); ++p) {
      stack.interp_[p].lo = static_cast<std::size_t>(parsed.interp_lo[p]);
      stack.interp_[p].hi = static_cast<std::size_t>(parsed.interp_hi[p]);
      stack.interp_[p].w = parsed.interp_w[p];
    }
  }
  assessor.zscore_stage_.restore(std::move(parsed.stage_state));
  assessor.chunks_processed_ =
      static_cast<std::size_t>(parsed.chunks_processed);
  assessor.snapshots_seen_ =
      static_cast<std::size_t>(parsed.stream_position);
  // The resumed engine expects the source to continue exactly at the
  // recorded position: the run loop's per-chunk position agreement raises
  // StreamDesync if the first pulled chunk starts anywhere else.
  assessor.stream_expect_ =
      static_cast<std::size_t>(parsed.stream_position);
  return {std::move(assessor), parsed.stream_position};
}

void save_checkpoint(std::ostream& out, const IncrementalMrdmd& model) {
  CheckpointAccess::put_model(out, model);
  if (!out) throw Error("checkpoint write failed");
}

IncrementalMrdmd load_checkpoint(std::istream& raw) {
  BoundedReader in(raw);
  return CheckpointAccess::get_model(in);
}

void save_checkpoint_file(const std::string& path,
                          const IncrementalMrdmd& model) {
  write_file_atomic(
      path, [&model](std::ostream& out) { save_checkpoint(out, model); });
}

IncrementalMrdmd load_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for reading: " + path);
  return load_checkpoint(in);
}

// --- Assessor ------------------------------------------------------------

void save_assessor_checkpoint(std::ostream& out, const Assessor& assessor) {
  IMRDMD_REQUIRE_ARG(!assessor.distributed_topology(),
                     "use the collective save for a distributed engine");
  CheckpointAccess::save_fleet(&out, assessor);
}

void save_assessor_checkpoint(std::ostream* out, const Assessor& assessor) {
  CheckpointAccess::save_fleet(out, assessor);
}

void save_assessor_checkpoint_file(const std::string& path,
                                   const Assessor& assessor) {
  if (assessor.rank() != 0) {
    // Peers only feed the gather; the file belongs to rank 0.
    CheckpointAccess::save_fleet(nullptr, assessor);
    return;
  }
  write_file_atomic(path, [&assessor](std::ostream& out) {
    CheckpointAccess::save_fleet(&out, assessor);
  });
}

RestoredAssessor load_assessor_checkpoint(std::istream& raw,
                                          const AssessorResumeOptions& resume) {
  BoundedReader in(raw);
  return CheckpointAccess::assemble(parse_any(in), nullptr, resume);
}

RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, const AssessorResumeOptions& resume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for reading: " + path);
  return load_assessor_checkpoint(in, resume);
}

RestoredAssessor load_assessor_checkpoint(std::istream& raw,
                                          dist::Communicator& comm,
                                          const AssessorResumeOptions& resume) {
  BoundedReader in(raw);
  return CheckpointAccess::assemble(parse_any(in), &comm, resume);
}

RestoredAssessor load_assessor_checkpoint_file(
    const std::string& path, dist::Communicator& comm,
    const AssessorResumeOptions& resume) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open checkpoint for reading: " + path);
  return load_assessor_checkpoint(in, comm, resume);
}

}  // namespace imrdmd::core
