// Blocked/packed GEMM vs the scalar reference semantics.
//
// Kernels::gemm must agree with a naive ascending-k triple loop on every
// shape — including the ragged edges the blocking logic can mishandle
// (n = 0, k = 0/1, odd m, partial MR/NR tiles, KC-crossing depths) — on
// every backend table this machine can dispatch to, and matmul_auto must
// match whichever kernel it routes to. Every product width the model runs
// (the task heads' m <= 8 and the per-type projections' 32 / 96) must also
// give each row the same bits whatever the number of rows around it.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "support/rng.h"
#include "tensor/backend.h"
#include "tensor/tensor.h"

namespace g2p {
namespace {

/// Naive reference: ascending-k accumulation, the backend contract.
std::vector<float> naive_matmul(const std::vector<float>& a, const std::vector<float>& b,
                                int n, int k, int m) {
  std::vector<float> out(static_cast<std::size_t>(n) * m, 0.0f);
  for (int i = 0; i < n; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float av = a[static_cast<std::size_t>(i) * k + kk];
      for (int j = 0; j < m; ++j) {
        out[static_cast<std::size_t>(i) * m + j] +=
            av * b[static_cast<std::size_t>(kk) * m + j];
      }
    }
  }
  return out;
}

std::vector<float> random_values(Rng& rng, std::size_t count) {
  std::vector<float> v(count);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

double max_rel_diff(const std::vector<float>& got, const std::vector<float>& want) {
  EXPECT_EQ(got.size(), want.size());
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const double g = got[i], w = want[i];
    const double scale = std::max({1.0, std::fabs(g), std::fabs(w)});
    worst = std::max(worst, std::fabs(g - w) / scale);
  }
  return worst;
}

struct GemmShape {
  int n, k, m;
};

/// Adversarial shapes: empties, k = 1, odd m (partial NR tiles), odd n
/// (partial MR tiles), tall-skinny, wide, serving projection shapes, and
/// one deep enough to cross the KC blocking boundary.
const GemmShape kShapes[] = {
    {0, 5, 7},    {3, 0, 9},    {4, 3, 0},   {1, 1, 1},   {7, 1, 13},
    {5, 17, 3},   {23, 9, 31},  {6, 16, 16}, {13, 8, 24}, {513, 16, 8},
    {9, 24, 250}, {300, 32, 96}, {128, 64, 256}, {37, 400, 19},
};

// Tolerance for FMA-contracted register tiles vs the naive loop: both
// accumulate k ascending, so only contraction/vectorization rounding may
// differ.
constexpr double kTol = 2e-5;

std::vector<std::string> dispatchable_backends() {
  std::vector<std::string> names;
  for (const char* name : {"scalar", "avx2", "neon"}) {
    if (backend::by_name(name) != nullptr) names.emplace_back(name);
  }
  return names;
}

TEST(Gemm, BlockedMatchesNaiveOnEveryBackendAndShape) {
  Rng rng(20230509);
  for (const auto& name : dispatchable_backends()) {
    const backend::Kernels* kern = backend::by_name(name);
    ASSERT_NE(kern, nullptr);
    for (const auto& s : kShapes) {
      const auto a = random_values(rng, static_cast<std::size_t>(s.n) * s.k);
      const auto b = random_values(rng, static_cast<std::size_t>(s.k) * s.m);
      const auto want = naive_matmul(a, b, s.n, s.k, s.m);
      // Poison the output so "fully overwritten" is actually verified.
      std::vector<float> got(static_cast<std::size_t>(s.n) * s.m, 1e30f);
      kern->gemm(a.data(), b.data(), got.data(), s.n, s.k, s.m);
      EXPECT_LE(max_rel_diff(got, want), kTol)
          << name << " gemm [" << s.n << "," << s.k << "]x[" << s.k << "," << s.m << "]";
      // The legacy kernels define the same math; sanity-check them on the
      // same shapes so a routing change can never alter semantics.
      std::vector<float> legacy(static_cast<std::size_t>(s.n) * s.m, 1e30f);
      kern->matmul(a.data(), b.data(), legacy.data(), s.n, s.k, s.m);
      EXPECT_LE(max_rel_diff(legacy, want), kTol)
          << name << " matmul [" << s.n << "," << s.k << "]x[" << s.k << "," << s.m << "]";
    }
  }
}

TEST(Gemm, MatmulAutoMatchesNaive) {
  Rng rng(7);
  const std::string entry_backend = backend::active_name();
  for (const auto& name : dispatchable_backends()) {
    ASSERT_TRUE(backend::set_active(name));
    for (const auto& s : kShapes) {
      const auto a = random_values(rng, static_cast<std::size_t>(s.n) * s.k);
      const auto b = random_values(rng, static_cast<std::size_t>(s.k) * s.m);
      const auto want = naive_matmul(a, b, s.n, s.k, s.m);
      std::vector<float> got(static_cast<std::size_t>(s.n) * s.m, 1e30f);
      backend::matmul_auto(a.data(), b.data(), got.data(), s.n, s.k, s.m);
      EXPECT_LE(max_rel_diff(got, want), kTol)
          << name << " matmul_auto [" << s.n << "," << s.k << "]x[" << s.k << "," << s.m
          << "]";
    }
  }
  ASSERT_TRUE(backend::set_active(entry_backend));
}

TEST(Gemm, NarrowRowsAreIndependentOfBatchSize) {
  // The task heads are [n_loops, dim] x [dim, 2] products and the per-type
  // projections [rows_of_type, dim] x [dim, 3*dim or dim] ones; a served
  // loop's answer must not depend on how many loops share its batch. So
  // row i of an n-row product must be bitwise the product of row i alone,
  // for every n and every position of i, on every backend table — also
  // past the row count where matmul_auto switches to the blocked `gemm`.
  Rng rng(20231019);
  const std::string entry_backend = backend::active_name();
  constexpr int kMaxRows = 64;
  for (const auto& name : dispatchable_backends()) {
    ASSERT_TRUE(backend::set_active(name));
    for (const int m : {2, 4, 8, 16, 32, 64, 96}) {
      for (const int k : {7, 32, 64}) {
        const auto a = random_values(rng, static_cast<std::size_t>(kMaxRows) * k);
        const auto b = random_values(rng, static_cast<std::size_t>(k) * m);
        std::vector<float> alone(static_cast<std::size_t>(kMaxRows) * m);
        for (int i = 0; i < kMaxRows; ++i) {
          backend::matmul_auto(a.data() + static_cast<std::size_t>(i) * k, b.data(),
                               alone.data() + static_cast<std::size_t>(i) * m, 1, k, m);
        }
        int differing_rows = 0;
        std::string first;
        for (int n = 1; n <= kMaxRows; ++n) {
          std::vector<float> batch(static_cast<std::size_t>(n) * m, 1e30f);
          backend::matmul_auto(a.data(), b.data(), batch.data(), n, k, m);
          for (int i = 0; i < n; ++i) {
            const std::size_t off = static_cast<std::size_t>(i) * m;
            if (std::memcmp(batch.data() + off, alone.data() + off, m * sizeof(float)) != 0) {
              if (differing_rows++ == 0) {
                first = "n=" + std::to_string(n) + " row " + std::to_string(i);
              }
            }
          }
        }
        EXPECT_EQ(differing_rows, 0)
            << name << " [n," << k << "]x[" << k << "," << m << "]: first at " << first;
      }
    }
  }
  ASSERT_TRUE(backend::set_active(entry_backend));
}

TEST(Gemm, PackedPanelScratchIsAligned) {
  // The SIMD micro-kernels load packed panels with 64-byte-aligned vector
  // loads; FloatVec (tensor_pool) guarantees it for every size class.
  for (const std::size_t count : {1u << 2, 1u << 10, 1u << 14, 1u << 16, 1u << 20}) {
    FloatVec v(count);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(v.data()) % tensor_pool::kAlignment, 0u)
        << count << " floats";
  }
}

}  // namespace
}  // namespace g2p
