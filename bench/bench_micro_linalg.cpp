// Microbenchmark of the linalg backend seam on the iSVD hot-path shapes:
// every registered backend (reference / avx2 / openblas when built in)
// times the same small-block kernels — the tall-skinny GEMM rotation, the
// orthogonal-complement projection, the thin QR of an update panel, and
// the dense core-matrix SVD (a random core and the diag-plus-column core
// of a rank-96 one-column update) — and is checked against the reference
// result under the banded contract while it runs. Not a paper artifact: these
// curves track the substrate every experiment is built from, and the
// emitted BENCH_linalg.json records speedup_vs_reference per kernel so CI
// can watch accelerated backends stay accelerated.
//
// Exit status: 0 when every backend stays inside its accuracy band;
// nonzero on divergence (the speedups themselves are informational —
// debug builds legitimately invert them).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/error.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/backend.hpp"
#include "linalg/blas.hpp"
#include "linalg/qr.hpp"
#include "linalg/svd.hpp"

using namespace imrdmd;
using bench::BenchArgs;

namespace {

linalg::Mat random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  linalg::Mat m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.normal();
  return m;
}

double max_rel_err(const linalg::Mat& got, const linalg::Mat& want) {
  double scale = 1.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    scale = std::max(scale, std::abs(want.data()[i]));
  }
  double err = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    err = std::max(err, std::abs(got.data()[i] - want.data()[i]) / scale);
  }
  return err;
}

struct KernelTiming {
  std::string kernel;
  double mean_seconds = 0.0;
  double rel_err = 0.0;  // vs the reference backend's result
};

struct BackendCurve {
  std::string backend;
  std::string capabilities;
  std::vector<KernelTiming> kernels;
};

}  // namespace

int main(int argc, char** argv) try {
  const BenchArgs args = BenchArgs::parse(argc, argv);
  bench::banner(
      "linalg backend seam (reference vs accelerated kernels)",
      "accelerated backends match reference within the banded contract "
      "on iSVD small-block shapes");

  // The steady-state iSVD shapes: a P x r basis rotated/projected against
  // c-column update panels, and the (r + c)-sized dense core SVD.
  const std::size_t P = args.full ? 4392 : 1000;
  const std::size_t r = 16;
  const std::size_t c = 8;
  const std::size_t core_n = 40;
  const std::size_t repeats = std::max<std::size_t>(args.repeats, 3);

  Rng rng(17);
  const linalg::Mat u = linalg::thin_qr(random_matrix(P, r, rng)).q;
  const linalg::Mat rot = random_matrix(r, r + c, rng);
  const linalg::Mat panel = random_matrix(P, c, rng);
  const linalg::Mat core = random_matrix(core_n, core_n, rng);
  // The iSVD core K = [diag(s) U^T b; 0 rho] of a one-column update at
  // rank 96, with s spread over six decades: the shape and conditioning
  // the default uncapped level-1 model reaches on a long stream.
  const std::size_t isvd_r = 96;
  const std::size_t isvd_core_n = isvd_r + 1;
  linalg::Mat isvd_core(isvd_core_n, isvd_core_n);
  for (std::size_t i = 0; i < isvd_r; ++i) {
    isvd_core(i, i) = std::pow(10.0, -6.0 * static_cast<double>(i) /
                                         static_cast<double>(isvd_r - 1));
    isvd_core(i, isvd_r) = 0.1 * rng.normal();
  }
  isvd_core(isvd_r, isvd_r) = 0.05;

  std::printf("shapes: P=%zu r=%zu c=%zu core=%zux%zu isvd_core=%zux%zu, "
              "repeats=%zu\n\n",
              P, r, c, core_n, core_n, isvd_core_n, isvd_core_n, repeats);

  // Reference results once, as the accuracy anchor for every backend.
  linalg::Backend* reference = linalg::find_backend("reference");
  IMRDMD_REQUIRE_ARG(reference != nullptr, "reference backend missing");

  linalg::Mat ref_gemm(P, r + c);
  reference->matmul_into(u, rot, ref_gemm);
  linalg::Mat ref_residual = panel;
  linalg::Mat ref_accum(r, c);
  linalg::Mat ref_ws;
  reference->project_out(u, ref_residual, ref_accum, ref_ws);
  linalg::QrResult ref_qr;
  linalg::QrWorkspace ref_qr_ws;
  reference->thin_qr_into(panel, ref_qr, ref_qr_ws);
  linalg::SvdResult ref_svd;
  linalg::SvdResult ref_isvd_svd;
  linalg::SvdWorkspace ref_svd_ws;
  reference->svd_into(core, ref_svd, ref_svd_ws);
  reference->svd_into(isvd_core, ref_isvd_svd, ref_svd_ws);

  std::vector<BackendCurve> curves;
  bool in_band = true;

  for (const std::string& name : linalg::backend_names()) {
    linalg::Backend* backend = linalg::find_backend(name);
    BackendCurve curve;
    curve.backend = name;
    curve.capabilities = backend->capabilities();
    std::printf("backend %-10s %s\n", name.c_str(),
                curve.capabilities.c_str());

    // GEMM rotation: out = U * rot, the dominant iSVD update flop count.
    {
      linalg::Mat out(P, r + c);
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 20; ++it) {
              out.assign_zero(P, r + c);
              backend->matmul_into(u, rot, out);
            }
          },
          repeats, 1);
      curve.kernels.push_back({"gemm_rotation", stats.mean / 20.0,
                               max_rel_err(out, ref_gemm)});
    }

    // Orthogonal-complement projection of the update panel.
    {
      linalg::Mat residual;
      linalg::Mat accum;
      linalg::Mat ws;
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 20; ++it) {
              residual = panel;
              accum.assign_zero(r, c);
              backend->project_out(u, residual, accum, ws);
            }
          },
          repeats, 1);
      curve.kernels.push_back({"project_out", stats.mean / 20.0,
                               max_rel_err(residual, ref_residual)});
    }

    // Thin QR of the projected panel (re-orthogonalization step). Compared
    // through the factors' product: accelerated QR may pick different
    // (equally valid) factor signs on degenerate columns.
    {
      linalg::QrResult qr;
      linalg::QrWorkspace ws;
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 10; ++it) backend->thin_qr_into(panel, qr, ws);
          },
          repeats, 1);
      curve.kernels.push_back({"thin_qr", stats.mean / 10.0,
                               max_rel_err(linalg::matmul(qr.q, qr.r), panel)});
    }

    // Dense SVD of a core matrix. Accuracy through the singular values
    // (factors carry sign/rotation ambiguity).
    const auto time_svd = [&](const char* kernel, const linalg::Mat& input,
                              const linalg::SvdResult& want) {
      linalg::SvdResult svd;
      linalg::SvdWorkspace ws;
      const RunStats stats = time_repeated(
          [&](std::size_t) {
            for (int it = 0; it < 5; ++it) backend->svd_into(input, svd, ws);
          },
          repeats, 1);
      double err = 0.0;
      for (std::size_t i = 0; i < svd.s.size(); ++i) {
        err = std::max(err, std::abs(svd.s[i] - want.s[i]) /
                                (1.0 + want.s.front()));
      }
      curve.kernels.push_back({kernel, stats.mean / 5.0, err});
    };
    time_svd("core_svd", core, ref_svd);
    time_svd("isvd_core_svd", isvd_core, ref_isvd_svd);

    const BackendCurve* ref_curve = curves.empty() ? nullptr : &curves.front();
    for (const KernelTiming& k : curve.kernels) {
      double speedup = 1.0;
      if (ref_curve != nullptr) {
        for (const KernelTiming& rk : ref_curve->kernels) {
          if (rk.kernel == k.kernel && k.mean_seconds > 0.0) {
            speedup = rk.mean_seconds / k.mean_seconds;
          }
        }
      }
      const bool ok = k.rel_err <= 1e-10;
      in_band = in_band && ok;
      std::printf("  %-14s %9.1f us  speedup %5.2fx  rel_err %.2e %s\n",
                  k.kernel.c_str(), k.mean_seconds * 1e6, speedup, k.rel_err,
                  ok ? "" : "OUT OF BAND");
    }
    curves.push_back(std::move(curve));
  }

  JsonWriter json;
  json.begin_object();
  json.field("bench", "linalg_backends");
  json.field("mode", args.full ? "full" : "default");
  json.key("workload");
  json.begin_object();
  json.field("sensors", P);
  json.field("rank", r);
  json.field("panel_cols", c);
  json.field("core_n", core_n);
  json.field("isvd_core_n", isvd_core_n);
  json.field("repeats", repeats);
  json.end_object();
  json.key("backends");
  json.begin_array();
  const BackendCurve& ref_curve = curves.front();
  for (const BackendCurve& curve : curves) {
    json.begin_object();
    json.field("backend", curve.backend);
    json.field("capabilities", curve.capabilities);
    json.key("kernels");
    json.begin_array();
    for (std::size_t i = 0; i < curve.kernels.size(); ++i) {
      const KernelTiming& k = curve.kernels[i];
      json.begin_object();
      json.field("kernel", k.kernel);
      json.field("mean_seconds", k.mean_seconds);
      json.field("speedup_vs_reference",
                 k.mean_seconds > 0.0
                     ? ref_curve.kernels[i].mean_seconds / k.mean_seconds
                     : 1.0);
      json.field("rel_err_vs_reference", k.rel_err);
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }
  json.end_array();
  json.field("in_band", in_band);
  json.end_object();
  const std::string path = args.out_dir + "/BENCH_linalg.json";
  json.write_file(path);
  std::printf("\nwrote %s\n", path.c_str());

  std::printf("shape claim %s\n", in_band ? "HOLDS" : "VIOLATED");
  return in_band ? 0 : 1;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
