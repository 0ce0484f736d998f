// Reduced-precision operator tests: bf16/fp16 conversion edge cases
// (subnormals, NaN propagation), fp64-referenced error budgets for the
// buffered layout at every value storage and K ∈ {1, 4, 8}, SpMM lane
// parity, operator adjoint/linearity under quantization, reconstruction
// PSNR vs fp32, the measured B/FMA reduction, and the shared fp32 disk
// cache at bf16 including corrupt-entry rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <unistd.h>
#include <vector>

#include "common/error.hpp"
#include "core/opkey.hpp"
#include "core/reconstructor.hpp"
#include "geometry/projector.hpp"
#include "phantom/datasets.hpp"
#include "phantom/phantom.hpp"
#include "pre/normalize.hpp"
#include "sparse/buffered.hpp"
#include "sparse/plan.hpp"
#include "sparse/spmm.hpp"
#include "sparse/spmv.hpp"
#include "test_util.hpp"

namespace memxct::sparse {
namespace {

namespace fs = std::filesystem;

/// fp64-accumulated SpMV reference — the ground truth every reduced-
/// precision kernel's fp32 accumulation is budgeted against.
AlignedVector<real> spmv_fp64(const CsrMatrix& a, std::span<const real> x) {
  AlignedVector<real> y(static_cast<std::size_t>(a.num_rows));
  for (idx_t r = 0; r < a.num_rows; ++r) {
    double acc = 0.0;
    for (nnz_t j = a.displ[r]; j < a.displ[r + 1]; ++j)
      acc += static_cast<double>(a.val[static_cast<std::size_t>(j)]) *
             static_cast<double>(x[static_cast<std::size_t>(
                 a.ind[static_cast<std::size_t>(j)])]);
    y[static_cast<std::size_t>(r)] = static_cast<real>(acc);
  }
  return y;
}

/// Hilbert-ordered projection matrix — the production layout.
CsrMatrix projection_matrix(idx_t angles, idx_t channels) {
  const auto g = geometry::make_geometry(angles, channels);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  return geometry::build_projection_matrix(g, sino, tomo);
}

// ---- conversion edge cases ------------------------------------------------

TEST(ValueStorageNames, RoundTrip) {
  ValueStorage v = ValueStorage::Fp32;
  EXPECT_TRUE(parse_value_storage("bf16", v));
  EXPECT_EQ(v, ValueStorage::Bf16);
  EXPECT_TRUE(parse_value_storage("fp16", v));
  EXPECT_EQ(v, ValueStorage::Fp16);
  EXPECT_TRUE(parse_value_storage("fp32", v));
  EXPECT_EQ(v, ValueStorage::Fp32);
  EXPECT_FALSE(parse_value_storage("fp8", v));
  EXPECT_FALSE(parse_value_storage("", v));
  EXPECT_STREQ(to_string(ValueStorage::Bf16), "bf16");
}

TEST(Bf16, ExactValuesAndRounding) {
  // Powers of two and small integers are exactly representable.
  for (const float f : {0.0f, 1.0f, -2.0f, 0.5f, 96.0f, -0.125f})
    EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(f)), f);
  // bf16's ulp at 1.0 is 2^-7 (7 explicit mantissa bits). The midpoint
  // 1 + 2^-8 ties to the even mantissa (1.0); above it rounds up.
  EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(1.0f + 0x1.0p-8f)), 1.0f);
  EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(1.0f + 0x1.8p-8f)), 1.0f + 0x1.0p-7f);
  // bf16 keeps fp32's exponent range: tiny fp32 normals survive.
  EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(0x1.0p-126f)), 0x1.0p-126f);
}

TEST(Bf16, SpecialsPropagate) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(inf)), inf);
  EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(-inf)), -inf);
  EXPECT_TRUE(std::isnan(
      bf16_to_fp32(fp32_to_bf16(std::numeric_limits<float>::quiet_NaN()))));
  // Signalling payloads are quietened, never truncated into Inf.
  const float snan = std::bit_cast<float>(0x7f800001u);
  EXPECT_TRUE(std::isnan(bf16_to_fp32(fp32_to_bf16(snan))));
  // Rounding never overflows max-normal into a wrong finite value.
  const float big = std::bit_cast<float>(0x7f7fffffu);  // fp32 max
  EXPECT_EQ(bf16_to_fp32(fp32_to_bf16(big)),
            std::numeric_limits<float>::infinity());
}

TEST(Fp16, NormalRangeRoundTrip) {
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 1024.0f, 65504.0f,
                        -65504.0f, 0x1.0p-14f /* smallest normal */})
    EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(f)), f);
  // Values past fp16 max overflow to Inf rather than saturating silently.
  EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(65536.0f)),
            std::numeric_limits<float>::infinity());
  EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(-1e30f)),
            -std::numeric_limits<float>::infinity());
}

TEST(Fp16, SubnormalsRoundTripExactly) {
  // Every fp16 subnormal is mant · 2^-24; all 1023 of them (both signs)
  // must decode and re-encode bitwise.
  for (std::uint32_t mant = 1; mant < 0x400u; ++mant) {
    for (const std::uint16_t sign : {std::uint16_t{0}, std::uint16_t{0x8000}}) {
      const auto h = static_cast<std::uint16_t>(sign | mant);
      const float f = fp16_to_fp32(h);
      EXPECT_EQ(fp32_to_fp16(f), h) << "subnormal mant " << mant;
      EXPECT_GT(std::abs(f), 0.0f);
      EXPECT_LT(std::abs(f), 0x1.0p-14f);
    }
  }
  // Smallest subnormal is 2^-24; half of it ties to even -> zero.
  EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(0x1.0p-24f)), 0x1.0p-24f);
  EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(0x1.0p-25f)), 0.0f);
  EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(0x1.8p-25f)), 0x1.0p-24f);
  // Underflow keeps the sign.
  EXPECT_TRUE(std::signbit(fp16_to_fp32(fp32_to_fp16(-0x1.0p-30f))));
}

TEST(Fp16, SpecialsPropagate) {
  EXPECT_TRUE(std::isnan(
      fp16_to_fp32(fp32_to_fp16(std::numeric_limits<float>::quiet_NaN()))));
  const float snan = std::bit_cast<float>(0x7f800001u);
  EXPECT_TRUE(std::isnan(fp16_to_fp32(fp32_to_fp16(snan))));
  EXPECT_EQ(fp16_to_fp32(fp32_to_fp16(std::numeric_limits<float>::infinity())),
            std::numeric_limits<float>::infinity());
}

// The branch-free software decode fp16_to_fp32 used before it went through
// the compiler's binary16 type: exponent and mantissa shifted into fp32
// position read as 2^-112 times the value, one exact multiply rebiases.
float software_fp16_to_fp32(std::uint16_t h) {
  const std::uint32_t sign = static_cast<std::uint32_t>(h & 0x8000u) << 16;
  const std::uint32_t bits = static_cast<std::uint32_t>(h & 0x7fffu) << 13;
  const std::uint32_t magnitude =
      bits >= (0x7c00u << 13)
          ? bits | 0x7f800000u
          : std::bit_cast<std::uint32_t>(std::bit_cast<float>(bits) * 0x1p112f);
  return std::bit_cast<float>(sign | magnitude);
}

TEST(Fp16, DecodeMatchesSoftwareDecodeOnEveryCode) {
  // All 65 536 codes: bitwise equal wherever the code is not a NaN; NaN
  // codes stay NaN (signalling payloads may come back quietened).
  int nan_codes = 0;
  for (std::uint32_t code = 0; code <= 0xffffu; ++code) {
    const auto h = static_cast<std::uint16_t>(code);
    const float want = software_fp16_to_fp32(h);
    const float got = fp16_to_fp32(h);
    if (std::isnan(want)) {
      ++nan_codes;
      EXPECT_TRUE(std::isnan(got)) << "code " << code;
    } else {
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got),
                std::bit_cast<std::uint32_t>(want))
          << "code " << code;
    }
  }
  EXPECT_EQ(nan_codes, 2 * 1023);
}

TEST(Quantize, IsIdempotentBitwise) {
  // Idempotence: an already-quantized value re-quantizes to the same bits,
  // so a matrix of quantize()d values is exactly what 16-bit storage holds.
  Rng rng(17);
  for (const ValueStorage s : {ValueStorage::Bf16, ValueStorage::Fp16}) {
    for (int i = 0; i < 10000; ++i) {
      const auto f = static_cast<real>(rng.uniform(-4.0, 4.0));
      const real once = quantize(f, s);
      const real twice = quantize(once, s);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(once),
                std::bit_cast<std::uint32_t>(twice));
      // And the relative error of one quantization is within the format's
      // unit roundoff (2^-9 bf16, 2^-12 fp16).
      if (std::abs(f) > 1e-3f) {
        const double tol = s == ValueStorage::Bf16 ? 0x1.0p-8 : 0x1.0p-11;
        EXPECT_LT(std::abs(once - f) / std::abs(f), tol);
      }
    }
  }
}

TEST(Quantize, NormalizeNaNMarkersSurvive) {
  // pre::normalize_transmission marks detector faults with NaN for the
  // ingest layer to repair; quantizing a marked sinogram through 16-bit
  // storage must keep every marker detectable.
  const auto g = geometry::make_geometry(4, 8);
  AlignedVector<real> raw(static_cast<std::size_t>(g.sinogram_extent().size()),
                          500.0f);
  AlignedVector<real> flat(8, 1000.0f), dark(8, 10.0f);
  raw[5] = std::numeric_limits<real>::quiet_NaN();   // dead pixel readout
  raw[9] = std::numeric_limits<real>::infinity();    // saturated readout
  const auto p = pre::normalize_transmission(g, raw, flat, dark);
  ASSERT_TRUE(std::isnan(p[5]));
  ASSERT_TRUE(std::isnan(p[9]));
  for (const ValueStorage s : {ValueStorage::Bf16, ValueStorage::Fp16}) {
    EXPECT_TRUE(std::isnan(quantize(p[5], s)));
    EXPECT_TRUE(std::isnan(quantize(p[9], s)));
    // Unmarked samples stay finite and close.
    EXPECT_TRUE(std::isfinite(quantize(p[0], s)));
  }
}

// ---- kernel error budgets vs fp64 reference -------------------------------

struct FamilyCase {
  const char* name;
  ValueStorage storage;
  /// Relative L2 budget vs the fp64 reference on the ORIGINAL values.
  double budget;
};

// Names the case after its family. Without it gtest prints the raw bytes of
// the struct (a string pointer and padding), so the test names would change
// with every build.
void PrintTo(const FamilyCase& c, std::ostream* os) { *os << c.name; }

class CompressedFamilies : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(CompressedFamilies, MeetsErrorBudgetAtAllWidths) {
  const auto& param = GetParam();
  const CsrMatrix a = projection_matrix(24, 16);
  const auto n = static_cast<std::size_t>(a.num_cols);
  const auto m = static_cast<std::size_t>(a.num_rows);
  const auto x1 = testutil::random_vector(a.num_cols, 31);
  const auto y64 = spmv_fp64(a, x1);

  const BufferedMatrix cbuf =
      compress_buffered(build_buffered(a, {16, 64}), param.storage);

  for (const idx_t k : {idx_t{1}, idx_t{4}, idx_t{8}}) {
    AlignedVector<real> xk(n * static_cast<std::size_t>(k));
    AlignedVector<real> yk(m * static_cast<std::size_t>(k), -7.0f);
    for (std::size_t i = 0; i < n; ++i)
      for (idx_t s = 0; s < k; ++s)
        xk[i * static_cast<std::size_t>(k) + static_cast<std::size_t>(s)] =
            x1[i];
    if (k == 1)
      spmv_buffered(cbuf, xk, yk);
    else
      spmm_buffered(cbuf, k, xk, yk);
    for (idx_t s = 0; s < k; ++s) {
      AlignedVector<real> lane(m);
      for (std::size_t r = 0; r < m; ++r)
        lane[r] = yk[r * static_cast<std::size_t>(k) +
                     static_cast<std::size_t>(s)];
      EXPECT_LT(testutil::rel_error(lane, y64), param.budget)
          << param.name << " width " << k << " lane " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, CompressedFamilies,
    ::testing::Values(FamilyCase{"cbuf-fp32", ValueStorage::Fp32, 1e-5},
                      FamilyCase{"cbuf-bf16", ValueStorage::Bf16, 8e-3},
                      FamilyCase{"cbuf-fp16", ValueStorage::Fp16, 1e-3}));

TEST(CompressedKernels, QuantizedReferenceIsFp32Accurate) {
  // Against the fp64 reference on the QUANTIZED values the only remaining
  // deviation is fp32 accumulation — the budget collapses to 1e-5 for
  // every storage, proving the error model is "one-time quantization only".
  const CsrMatrix a = projection_matrix(20, 12);
  const auto x = testutil::random_vector(a.num_cols, 47);
  const BufferedMatrix bm = build_buffered(a, {16, 64});
  for (const ValueStorage s : {ValueStorage::Bf16, ValueStorage::Fp16}) {
    CsrMatrix aq = a;
    for (real& v : aq.val) v = quantize(v, s);
    const auto y64 = spmv_fp64(aq, x);
    AlignedVector<real> y(static_cast<std::size_t>(a.num_rows));
    spmv_buffered(compress_buffered(bm, s), x, y);
    EXPECT_LT(testutil::rel_error(y, y64), 1e-5) << to_string(s);
  }
}

TEST(CompressedKernels, SpmmLanesBitwiseMatchSpmv) {
  // Contract: lane s of a width-k block apply is bitwise the single-RHS
  // kernel on lane s's input — same accumulation order, contraction off.
  const CsrMatrix a = projection_matrix(24, 16);
  const auto n = static_cast<std::size_t>(a.num_cols);
  const auto m = static_cast<std::size_t>(a.num_rows);
  const BufferedMatrix bm = build_buffered(a, {16, 64});
  const BufferedMatrix cbuf = compress_buffered(bm, ValueStorage::Bf16);

  for (const idx_t k : {idx_t{3}, idx_t{4}, idx_t{7}, idx_t{8}}) {
    AlignedVector<real> xk(n * static_cast<std::size_t>(k));
    for (std::size_t i = 0; i < n; ++i)
      for (idx_t s = 0; s < k; ++s)
        xk[i * static_cast<std::size_t>(k) + static_cast<std::size_t>(s)] =
            0.25f + static_cast<real>((i * 31 + static_cast<std::size_t>(s) * 7)
                                      % 23) * 0.0625f;
    AlignedVector<real> yk_buf(m * static_cast<std::size_t>(k));
    spmm_buffered(cbuf, k, xk, yk_buf);
    for (idx_t s = 0; s < k; ++s) {
      AlignedVector<real> x1(n), y1_buf(m);
      for (std::size_t i = 0; i < n; ++i)
        x1[i] = xk[i * static_cast<std::size_t>(k) +
                   static_cast<std::size_t>(s)];
      spmv_buffered(cbuf, x1, y1_buf);
      for (std::size_t r = 0; r < m; ++r) {
        const std::size_t at =
            r * static_cast<std::size_t>(k) + static_cast<std::size_t>(s);
        EXPECT_EQ(std::memcmp(&yk_buf[at], &y1_buf[r], sizeof(real)), 0)
            << "buffered width " << k << " lane " << s << " row " << r;
      }
    }
  }
}

TEST(CompressedKernels, PlannedMatchesDynamicBitwise) {
  // Partitions own disjoint row ranges and rows accumulate in stream order,
  // so the schedule cannot change any bit of the output.
  const CsrMatrix a = projection_matrix(24, 16);
  const BufferedMatrix bm = build_buffered(a, {16, 64});
  const BufferedMatrix cbuf = compress_buffered(bm, ValueStorage::Fp16);
  const auto x = testutil::random_vector(a.num_cols, 53);
  const auto m = static_cast<std::size_t>(a.num_rows);
  const int slots = 3;

  const auto buf_plan = ApplyPlan::build(partition_nnz(cbuf), slots);
  Workspace ws(slots, cbuf.config.buffsize, cbuf.config.partsize);
  AlignedVector<real> z_dyn(m), z_plan(m, -1.0f);
  spmv_buffered(cbuf, x, z_dyn);
  spmv_buffered_planned(cbuf, buf_plan, ws, x, z_plan);
  EXPECT_EQ(std::memcmp(z_dyn.data(), z_plan.data(), m * sizeof(real)), 0);
}

TEST(CompressedKernels, MeasuredBytesPerFmaBeatFp32ByHalf) {
  // The 16-bit values keep the 2-byte slots, so bf16 saves exactly the 2
  // value bytes of each FMA.
  const CsrMatrix a = projection_matrix(48, 32);
  const BufferedMatrix bm = build_buffered(a, {64, 256});
  const BufferedMatrix cbuf = compress_buffered(bm, ValueStorage::Bf16);
  const auto buf_fp32 = buffered_work(bm).bytes_per_fma();    // 6
  const auto buf_bf16 = buffered_work(cbuf).bytes_per_fma();  // 4
  EXPECT_EQ(buf_fp32 - buf_bf16, 2.0) << "measured " << buf_bf16;
}

}  // namespace
}  // namespace memxct::sparse

// ---- operator- and pipeline-level tests -----------------------------------

namespace memxct::core {
namespace {

namespace fs = std::filesystem;

sparse::CsrMatrix small_projection() {
  const auto g = geometry::make_geometry(16, 20);
  const hilbert::Ordering sino(g.sinogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  const hilbert::Ordering tomo(g.tomogram_extent(),
                               hilbert::CurveKind::Hilbert, 4);
  return geometry::build_projection_matrix(g, sino, tomo);
}

TEST(CompressedOperator, AdjointAndLinearityHold) {
  // <Ax, y> == <x, A'y> exactly characterizes that forward and transpose
  // use the SAME quantized matrix — quantization must not break adjointness
  // (CGLS relies on it), only perturb the operator as a whole.
  for (const auto storage :
       {sparse::ValueStorage::Bf16, sparse::ValueStorage::Fp16}) {
    auto a = small_projection();
    const MemXCTOperator op(std::move(a), KernelKind::Buffered, {16, 64}, 64,
                            ScheduleKind::StaticPlan, storage);
    EXPECT_EQ(op.precision(), storage);
    const auto x = testutil::random_vector(op.num_cols(), 61);
    const auto y = testutil::random_vector(op.num_rows(), 62);
    AlignedVector<real> ax(static_cast<std::size_t>(op.num_rows()));
    AlignedVector<real> aty(static_cast<std::size_t>(op.num_cols()));
    op.apply(x, ax);
    op.apply_transpose(y, aty);
    double axy = 0.0, xaty = 0.0;
    for (std::size_t i = 0; i < ax.size(); ++i)
      axy += static_cast<double>(ax[i]) * y[i];
    for (std::size_t i = 0; i < aty.size(); ++i)
      xaty += static_cast<double>(x[i]) * aty[i];
    EXPECT_NEAR(axy, xaty, 1e-4 * std::max(std::abs(axy), 1.0));

    // Linearity: A(x1 + 2·x2) == A·x1 + 2·A·x2 to fp32 rounding.
    const auto x2 = testutil::random_vector(op.num_cols(), 63);
    AlignedVector<real> combo(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) combo[i] = x[i] + 2.0f * x2[i];
    AlignedVector<real> a_combo(ax.size()), ax2(ax.size());
    op.apply(combo, a_combo);
    op.apply(x2, ax2);
    AlignedVector<real> expected(ax.size());
    for (std::size_t i = 0; i < ax.size(); ++i)
      expected[i] = ax[i] + 2.0f * ax2[i];
    EXPECT_LT(testutil::rel_error(a_combo, expected), 1e-5);
  }
}

TEST(CompressedOperator, BlockApplyMatchesSingleApply) {
  auto a = small_projection();
  const MemXCTOperator op(std::move(a), KernelKind::Buffered, {16, 64}, 64,
                          ScheduleKind::StaticPlan, sparse::ValueStorage::Bf16);
  const auto m = static_cast<std::size_t>(op.num_rows());
  const auto n = static_cast<std::size_t>(op.num_cols());
  for (const idx_t k : {idx_t{3}, idx_t{4}, idx_t{7}, idx_t{8}}) {
    AlignedVector<real> x(n * static_cast<std::size_t>(k));
    for (idx_t s = 0; s < k; ++s) {
      const auto xs = testutil::random_vector(op.num_cols(),
                                              70 + static_cast<std::uint64_t>(s));
      std::copy(xs.begin(), xs.end(),
                x.begin() + static_cast<std::ptrdiff_t>(
                                static_cast<std::size_t>(s) * n));
    }
    AlignedVector<real> y(m * static_cast<std::size_t>(k), -3.0f);
    auto ws = op.make_block_workspace(k);
    op.apply_block(x, y, ws);
    for (idx_t s = 0; s < k; ++s) {
      AlignedVector<real> y1(m);
      op.apply({x.data() + static_cast<std::size_t>(s) * n, n}, y1);
      EXPECT_EQ(std::memcmp(y.data() + static_cast<std::size_t>(s) * m,
                            y1.data(), m * sizeof(real)),
                0)
          << "width " << k << " slice " << s;
    }
  }
}

TEST(CompressedOperator, RejectsUnsupportedKernels) {
  for (const KernelKind kind :
       {KernelKind::Baseline, KernelKind::EllBlock, KernelKind::Library}) {
    auto a = small_projection();
    EXPECT_THROW(MemXCTOperator(std::move(a), kind, {16, 64}, 64,
                                ScheduleKind::StaticPlan,
                                sparse::ValueStorage::Bf16),
                 InvalidArgument);
  }
}

TEST(CompressedOperator, ReportsSmallerFootprint) {
  auto a1 = small_projection();
  auto a2 = small_projection();
  const MemXCTOperator fp32(std::move(a1), KernelKind::Buffered, {16, 64});
  const MemXCTOperator bf16(std::move(a2), KernelKind::Buffered, {16, 64}, 64,
                            ScheduleKind::StaticPlan,
                            sparse::ValueStorage::Bf16);
  EXPECT_LT(bf16.regular_bytes(), fp32.regular_bytes());
  EXPECT_LT(bf16.forward_work().bytes_per_fma(),
            fp32.forward_work().bytes_per_fma());
}

double psnr(std::span<const real> test, std::span<const real> ref) {
  double peak = 0.0, mse = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    peak = std::max(peak, static_cast<double>(std::abs(ref[i])));
    const double d = static_cast<double>(test[i]) - ref[i];
    mse += d * d;
  }
  mse /= static_cast<double>(ref.size());
  return 10.0 * std::log10(peak * peak / std::max(mse, 1e-300));
}

TEST(CompressedReconstruction, PsnrBudgetsVsFp32) {
  const auto spec = phantom::dataset("ADS1").scaled_by(8);
  const auto data = phantom::generate(spec, 7);
  Config base;
  base.iterations = 15;
  const Reconstructor fp32(data.geometry, base);
  const auto ref = fp32.reconstruct(data.sinogram);

  struct Budget { sparse::ValueStorage storage; double min_db; };
  for (const auto& b : {Budget{sparse::ValueStorage::Bf16, 28.0},
                        Budget{sparse::ValueStorage::Fp16, 38.0}}) {
    Config c = base;
    c.precision = b.storage;
    const Reconstructor recon(data.geometry, c);
    const auto result = recon.reconstruct(data.sinogram);
    const double db = psnr(result.image, ref.image);
    EXPECT_GT(db, b.min_db) << sparse::to_string(b.storage);
    // And it still reconstructs the phantom, not just "matches fp32".
    const std::vector<real> zeros(data.image.size(), 0.0f);
    EXPECT_LT(phantom::rmse(result.image, data.image),
              0.5 * phantom::rmse(zeros, data.image));
  }
}

/// Scratch directory per test, removed on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& name)
      : path_("/tmp/memxct_test_" + name + "_" + std::to_string(::getpid())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }
 private:
  std::string path_;
};

TEST(CompressedCache, RoundTripsBitwiseAndSurvivesCorruption) {
  ScratchDir dir("ccache");
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 9);
  Config fp32;
  fp32.iterations = 5;
  fp32.cache_dir = dir.path();
  Config bf16 = fp32;
  bf16.precision = sparse::ValueStorage::Bf16;
  Config uncached = bf16;
  uncached.cache_dir.clear();
  const auto miss = Reconstructor(data.geometry, uncached)
                        .reconstruct(data.sinogram);

  // An fp32 run writes the one exact `.csr` entry every precision shares.
  const Reconstructor first(data.geometry, fp32);
  EXPECT_FALSE(first.preprocess_report().cache_hit);
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir.path()))
    entries.push_back(e.path());
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].extension(), ".csr");

  // A bf16 run hits it and quantizes during its build: bitwise the
  // operator a bf16 miss builds from the traced matrix.
  const Reconstructor second(data.geometry, bf16);
  EXPECT_TRUE(second.preprocess_report().cache_hit);
  const auto hit = second.reconstruct(data.sinogram);
  ASSERT_EQ(miss.image.size(), hit.image.size());
  EXPECT_EQ(std::memcmp(miss.image.data(), hit.image.data(),
                        miss.image.size() * sizeof(real)),
            0);

  // Flip one payload byte: the next build must detect the damage and fall
  // back to retracing instead of crashing or loading garbage.
  {
    std::fstream f(entries[0], std::ios::in | std::ios::out |
                                   std::ios::binary);
    char c;
    f.seekg(-1, std::ios::end);
    f.get(c);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(c ^ 0x5a));
  }
  const Reconstructor third(data.geometry, bf16);
  EXPECT_FALSE(third.preprocess_report().cache_hit);  // graceful rebuild
  EXPECT_TRUE(third.preprocess_report().cache_corrupt);
  const auto rebuilt = third.reconstruct(data.sinogram);
  EXPECT_EQ(std::memcmp(miss.image.data(), rebuilt.image.data(),
                        miss.image.size() * sizeof(real)),
            0);
}

TEST(CompressedConfig, DistributedPathRejectsReducedPrecision) {
  // The partitioned (sharded) path keeps fp32 shard slices only.
  const auto spec = phantom::dataset("ADS1").scaled_by(16);
  const auto data = phantom::generate(spec, 4);
  Config config;
  config.iterations = 2;
  config.num_shards = 2;
  config.precision = sparse::ValueStorage::Bf16;
  EXPECT_THROW(Reconstructor(data.geometry, config), InvalidArgument);
}

TEST(CompressedConfig, OpkeyDistinguishesPrecision) {
  const auto g = geometry::make_geometry(8, 8);
  Config a, b;
  b.precision = sparse::ValueStorage::Bf16;
  EXPECT_NE(operator_key(g, a).text, operator_key(g, b).text);
  EXPECT_NE(operator_key(g, a).hash, operator_key(g, b).hash);
  EXPECT_EQ(operator_config(b).precision, sparse::ValueStorage::Bf16);
}

}  // namespace
}  // namespace memxct::core
