// Unit tests for the from-scratch BLAS subset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "blas/blas.hpp"
#include "blas/simd.hpp"
#include "common/rng.hpp"
#include "isa_guard.hpp"

namespace pulsarqr {
namespace {

using blas::Diag;
using blas::Side;
using blas::Trans;
using blas::Uplo;

Matrix random_matrix(int m, int n, std::uint64_t seed) {
  Matrix a(m, n);
  fill_random(a.view(), seed);
  return a;
}

// Naive reference gemm for validation.
Matrix naive_gemm(Trans ta, Trans tb, double alpha, const Matrix& a,
                  const Matrix& b, double beta, const Matrix& c) {
  Matrix out = c;
  const int m = c.rows();
  const int n = c.cols();
  const int k = ta == Trans::No ? a.cols() : a.rows();
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < m; ++i) {
      double s = 0.0;
      for (int p = 0; p < k; ++p) {
        const double av = ta == Trans::No ? a(i, p) : a(p, i);
        const double bv = tb == Trans::No ? b(p, j) : b(j, p);
        s += av * bv;
      }
      out(i, j) = alpha * s + beta * c(i, j);
    }
  }
  return out;
}

double max_diff(const Matrix& a, const Matrix& b) {
  double d = 0.0;
  for (int j = 0; j < a.cols(); ++j) {
    for (int i = 0; i < a.rows(); ++i) {
      d = std::fmax(d, std::fabs(a(i, j) - b(i, j)));
    }
  }
  return d;
}

TEST(Level1, AxpyScalDotCopy) {
  std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y = {4.0, 5.0, 6.0};
  blas::axpy(3, 2.0, x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 12.0);
  blas::scal(3, 0.5, y.data());
  EXPECT_DOUBLE_EQ(y[1], 4.5);
  EXPECT_DOUBLE_EQ(blas::dot(3, x.data(), x.data()), 14.0);
  std::vector<double> z(3);
  blas::copy(3, x.data(), z.data());
  EXPECT_EQ(z, x);
}

TEST(Level1, Nrm2MatchesSqrtDot) {
  Rng rng(7);
  std::vector<double> x(257);
  for (auto& v : x) v = rng.next_symmetric();
  const double n1 = blas::nrm2(static_cast<int>(x.size()), x.data());
  const double n2 = std::sqrt(blas::dot(static_cast<int>(x.size()), x.data(), x.data()));
  EXPECT_NEAR(n1, n2, 1e-12 * n2);
}

TEST(Level1, Nrm2AvoidsOverflow) {
  std::vector<double> x = {1e200, 1e200};
  EXPECT_DOUBLE_EQ(blas::nrm2(2, x.data()), std::sqrt(2.0) * 1e200);
  std::vector<double> tiny = {1e-200, 1e-200};
  EXPECT_NEAR(blas::nrm2(2, tiny.data()), std::sqrt(2.0) * 1e-200,
              1e-210);
}

TEST(Level2, GemvBothTrans) {
  Matrix a = random_matrix(5, 3, 11);
  std::vector<double> x = {1.0, -2.0, 0.5};
  std::vector<double> y(5, 1.0);
  blas::gemv(Trans::No, 2.0, a.view(), x.data(), 3.0, y.data());
  for (int i = 0; i < 5; ++i) {
    double s = 0.0;
    for (int j = 0; j < 3; ++j) s += a(i, j) * x[j];
    EXPECT_NEAR(y[i], 2.0 * s + 3.0, 1e-14);
  }
  std::vector<double> xt = {1.0, -1.0, 2.0, 0.5, 0.25};
  std::vector<double> yt(3, -1.0);
  blas::gemv(Trans::Yes, 1.5, a.view(), xt.data(), 0.5, yt.data());
  for (int j = 0; j < 3; ++j) {
    double s = 0.0;
    for (int i = 0; i < 5; ++i) s += a(i, j) * xt[i];
    EXPECT_NEAR(yt[j], 1.5 * s - 0.5, 1e-14);
  }
}

TEST(Level2, Ger) {
  Matrix a = random_matrix(4, 3, 13);
  Matrix a0 = a;
  std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y = {0.5, -1.0, 2.0};
  blas::ger(2.0, x.data(), y.data(), a.view());
  for (int j = 0; j < 3; ++j) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_NEAR(a(i, j), a0(i, j) + 2.0 * x[i] * y[j], 1e-14);
    }
  }
}

class GemmParam : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmParam, AllTransCombosMatchNaive) {
  const auto [m, n, k] = GetParam();
  for (Trans ta : {Trans::No, Trans::Yes}) {
    for (Trans tb : {Trans::No, Trans::Yes}) {
      Matrix a = ta == Trans::No ? random_matrix(m, k, 1) : random_matrix(k, m, 1);
      Matrix b = tb == Trans::No ? random_matrix(k, n, 2) : random_matrix(n, k, 2);
      Matrix c = random_matrix(m, n, 3);
      Matrix expect = naive_gemm(ta, tb, 1.7, a, b, -0.3, c);
      blas::gemm(ta, tb, 1.7, a.view(), b.view(), -0.3, c.view());
      EXPECT_LT(max_diff(c, expect), 1e-12 * (1.0 + k));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmParam,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 4, 5),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(17, 5, 9),
                                           std::make_tuple(2, 31, 6),
                                           std::make_tuple(24, 24, 1)));

TEST(Level3, GemmBetaZeroIgnoresGarbage) {
  Matrix a = random_matrix(3, 3, 5);
  Matrix b = random_matrix(3, 3, 6);
  Matrix c(3, 3);
  c(0, 0) = std::nan("");
  Matrix zero(3, 3);
  Matrix expect = naive_gemm(Trans::No, Trans::No, 1.0, a, b, 0.0, zero);
  blas::gemm(Trans::No, Trans::No, 1.0, a.view(), b.view(), 0.0, c.view());
  EXPECT_LT(max_diff(c, expect), 1e-13);
}

Matrix make_triangular(int n, Uplo uplo, std::uint64_t seed) {
  Matrix a = random_matrix(n, n, seed);
  for (int j = 0; j < n; ++j) {
    for (int i = 0; i < n; ++i) {
      const bool keep = uplo == Uplo::Upper ? i <= j : i >= j;
      if (!keep) a(i, j) = 0.0;
    }
    a(j, j) += 3.0;  // well conditioned
  }
  return a;
}

class TriParam
    : public ::testing::TestWithParam<std::tuple<Side, Uplo, Trans, Diag>> {};

TEST_P(TriParam, TrmmMatchesGemm) {
  const auto [side, uplo, trans, diag] = GetParam();
  const int n = 7;
  const int m = 5;
  Matrix a = make_triangular(side == Side::Left ? m : n, uplo, 21);
  Matrix aeff = a;
  if (diag == Diag::Unit) {
    for (int j = 0; j < aeff.cols(); ++j) aeff(j, j) = 1.0;
  }
  Matrix b = random_matrix(m, n, 22);
  Matrix expect(m, n);
  if (side == Side::Left) {
    expect = naive_gemm(trans, Trans::No, 1.3, aeff, b, 0.0, expect);
  } else {
    expect = naive_gemm(Trans::No, trans, 1.3, b, aeff, 0.0, expect);
  }
  blas::trmm(side, uplo, trans, diag, 1.3, a.view(), b.view());
  EXPECT_LT(max_diff(b, expect), 1e-12);
}

TEST_P(TriParam, TrsmInvertsTrmm) {
  const auto [side, uplo, trans, diag] = GetParam();
  const int n = 6;
  const int m = 4;
  Matrix a = make_triangular(side == Side::Left ? m : n, uplo, 31);
  Matrix b = random_matrix(m, n, 32);
  Matrix b0 = b;
  blas::trmm(side, uplo, trans, diag, 1.0, a.view(), b.view());
  blas::trsm(side, uplo, trans, diag, 1.0, a.view(), b.view());
  EXPECT_LT(max_diff(b, b0), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, TriParam,
    ::testing::Combine(::testing::Values(Side::Left, Side::Right),
                       ::testing::Values(Uplo::Upper, Uplo::Lower),
                       ::testing::Values(Trans::No, Trans::Yes),
                       ::testing::Values(Diag::NonUnit, Diag::Unit)));

// ---- Left trmm: shapes that reach the recursion, on every ISA -------------

using blas::simd::Isa;

// A k-by-k triangle and a k-by-n B, both stored with ld > rows. Every
// entry of A's storage outside the operand (the other triangle, the
// diagonal when Diag::Unit, the padding rows) is NaN, so reading any of
// them shows up in the result. B's padding rows hold a sentinel that
// trmm must leave alone.
template <class T>
struct TrmmOperands {
  static constexpr T kSentinel = T(12345);
  int k, n, lda, ldb;
  std::vector<T> a, b;

  TrmmOperands(Uplo uplo, Diag diag, int k_, int n_, std::uint64_t seed)
      : k(k_), n(n_), lda(k_ + 3), ldb(k_ + 2) {
    Rng rng(seed);
    a.assign(static_cast<std::size_t>(lda) * std::max(k, 1),
             std::numeric_limits<T>::quiet_NaN());
    for (int j = 0; j < k; ++j) {
      for (int i = 0; i < k; ++i) {
        const bool in_tri = uplo == Uplo::Upper ? i <= j : i >= j;
        if (in_tri && !(diag == Diag::Unit && i == j)) {
          a[i + static_cast<std::size_t>(j) * lda] =
              static_cast<T>(rng.next_symmetric());
        }
      }
    }
    b.assign(static_cast<std::size_t>(ldb) * n, kSentinel);
    for (int j = 0; j < n; ++j) {
      for (int i = 0; i < k; ++i) {
        b[i + static_cast<std::size_t>(j) * ldb] =
            static_cast<T>(rng.next_symmetric());
      }
    }
  }

  T& at_a(int i, int j) { return a[i + static_cast<std::size_t>(j) * lda]; }
  T& at_b(int i, int j) { return b[i + static_cast<std::size_t>(j) * ldb]; }
  ConstMatrixViewT<T> a_view() const {
    return ConstMatrixViewT<T>(a.data(), k, k, lda);
  }
  MatrixViewT<T> b_view() { return MatrixViewT<T>(b.data(), k, n, ldb); }
};

// Per-column oracle for B := alpha * op(A) * B, in double: out(i, j) sums
// op(A)(i, p) * B(p, j) over op(A)'s triangle only, with no skipped terms,
// and abs_out the same sum of magnitudes (for the rounding bound).
template <class T>
void trmm_oracle(Uplo uplo, Trans trans, Diag diag, double alpha,
                 TrmmOperands<T>& x, Matrix& out, Matrix& abs_out) {
  const bool upper_op = (uplo == Uplo::Upper) == (trans == Trans::No);
  out = Matrix(x.k, x.n);
  abs_out = Matrix(x.k, x.n);
  for (int j = 0; j < x.n; ++j) {
    for (int i = 0; i < x.k; ++i) {
      double s = 0.0;
      double sa = 0.0;
      const int lo = upper_op ? i : 0;
      const int hi = upper_op ? x.k - 1 : i;
      for (int p = lo; p <= hi; ++p) {
        const double opa =
            p == i && diag == Diag::Unit
                ? 1.0
                : static_cast<double>(trans == Trans::No ? x.at_a(i, p)
                                                         : x.at_a(p, i));
        const double bv = static_cast<double>(x.at_b(p, j));
        s += opa * bv;
        sa += std::fabs(opa * bv);
      }
      out(i, j) = alpha * s;
      abs_out(i, j) = std::fabs(alpha) * sa;
    }
  }
}

// Runs one left trmm against the oracle. Finite oracle entries must agree
// within the rounding bound of a k-term sum; the set of non-finite entries
// must be the same; B's padding rows must be untouched.
template <class T>
void expect_left_trmm_matches(Uplo uplo, Trans trans, Diag diag, T alpha,
                              TrmmOperands<T>& x) {
  Matrix expect;
  Matrix bound;
  trmm_oracle(uplo, trans, diag, static_cast<double>(alpha), x, expect, bound);
  blas::trmm(Side::Left, uplo, trans, diag, alpha, x.a_view(), x.b_view());
  const double eps = std::numeric_limits<T>::epsilon();
  int bad = 0;
  for (int j = 0; j < x.n && bad < 5; ++j) {
    for (int i = 0; i < x.ldb && bad < 5; ++i) {
      const double got = static_cast<double>(x.at_b(i, j));
      if (i >= x.k) {
        if (got != static_cast<double>(TrmmOperands<T>::kSentinel)) {
          ADD_FAILURE() << "padding row " << i << " of column " << j
                        << " was written";
          ++bad;
        }
        continue;
      }
      const double want = expect(i, j);
      if (std::isfinite(want) != std::isfinite(got)) {
        ADD_FAILURE() << "B(" << i << "," << j << ") = " << got
                      << ", oracle " << want;
        ++bad;
      } else if (std::isfinite(want) &&
                 std::fabs(got - want) >
                     4.0 * (x.k + 2) * eps * bound(i, j) + 1e-300) {
        ADD_FAILURE() << "B(" << i << "," << j << ") = " << got
                      << ", oracle " << want << ", bound " << bound(i, j);
        ++bad;
      }
    }
  }
}

template <class T>
void left_trmm_sweep() {
  IsaGuard guard;
  for (Isa isa : supported_isas()) {
    ASSERT_TRUE(blas::simd::set_isa(isa));
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          for (int k : {0, 1, 7, 8, 9, 16, 31, 32, 33, 48, 64, 128}) {
            for (int n : {1, 5, 128}) {
              for (T alpha : {T(1), T(-0.7)}) {
                SCOPED_TRACE(::testing::Message()
                             << blas::simd::isa_name(isa) << " uplo="
                             << (uplo == Uplo::Upper ? "U" : "L")
                             << " trans=" << (trans == Trans::No ? "N" : "T")
                             << " diag=" << (diag == Diag::Unit ? "U" : "N")
                             << " k=" << k << " n=" << n
                             << " alpha=" << alpha);
                TrmmOperands<T> x(uplo, diag, k, n, 1000 + 7 * k + n);
                expect_left_trmm_matches(uplo, trans, diag, alpha, x);
              }
            }
          }
        }
      }
    }
  }
}

TEST(TrmmLeft, RecursionSweepEveryIsaF64) { left_trmm_sweep<double>(); }

TEST(TrmmLeft, RecursionSweepEveryIsaF32) { left_trmm_sweep<float>(); }

// Hostile inputs: Inf, -Inf and NaN in B, and exact zeros inside A's
// triangle (diagonal included), so 0 * Inf must come out as NaN exactly
// where the per-column oracle forms that product and nowhere else — in
// particular, no gemm may multiply padded zeros into real entries.
template <class T>
void left_trmm_hostile() {
  IsaGuard guard;
  const T inf = std::numeric_limits<T>::infinity();
  for (Isa isa : supported_isas()) {
    ASSERT_TRUE(blas::simd::set_isa(isa));
    for (Uplo uplo : {Uplo::Upper, Uplo::Lower}) {
      for (Trans trans : {Trans::No, Trans::Yes}) {
        for (Diag diag : {Diag::NonUnit, Diag::Unit}) {
          for (int k : {1, 9, 17, 33, 64, 128}) {
            for (int n : {5, 128}) {
              SCOPED_TRACE(::testing::Message()
                           << blas::simd::isa_name(isa) << " uplo="
                           << (uplo == Uplo::Upper ? "U" : "L")
                           << " trans=" << (trans == Trans::No ? "N" : "T")
                           << " diag=" << (diag == Diag::Unit ? "U" : "N")
                           << " k=" << k << " n=" << n);
              const std::uint64_t seed = 5000 + 7 * k + n;
              TrmmOperands<T> x(uplo, diag, k, n, seed);
              Rng rng(seed + 1);
              auto pick = [&](int m) {
                return static_cast<int>(rng.next_u64() %
                                        static_cast<std::uint64_t>(m));
              };
              x.at_b(pick(k), pick(n)) = inf;
              x.at_b(pick(k), pick(n)) = -inf;
              x.at_b(pick(k), pick(n)) = std::numeric_limits<T>::quiet_NaN();
              x.at_b(k - 1, pick(n)) = inf;  // last row feeds every upper row
              x.at_b(0, pick(n)) = -inf;     // first row feeds every lower row
              for (int z = 0; z < 3; ++z) {
                const int i = pick(k);
                const int p = pick(k);
                const bool up = uplo == Uplo::Upper;
                const int r = up ? std::min(i, p) : std::max(i, p);
                const int c = up ? std::max(i, p) : std::min(i, p);
                if (!(diag == Diag::Unit && r == c)) x.at_a(r, c) = T(0);
              }
              expect_left_trmm_matches(uplo, trans, diag, T(-0.7), x);
            }
          }
        }
      }
    }
  }
}

TEST(TrmmLeft, HostileInputsEveryIsaF64) { left_trmm_hostile<double>(); }

TEST(TrmmLeft, HostileInputsEveryIsaF32) { left_trmm_hostile<float>(); }

TEST(Level2, TrsvSolves) {
  Matrix a = make_triangular(8, Uplo::Upper, 41);
  std::vector<double> x = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> b = x;
  blas::trmv(Uplo::Upper, Trans::No, Diag::NonUnit, a.view(), b.data());
  blas::trsv(Uplo::Upper, Trans::No, Diag::NonUnit, a.view(), b.data());
  for (int i = 0; i < 8; ++i) EXPECT_NEAR(b[i], x[i], 1e-12);
}

TEST(Aux, LasetAndNorms) {
  Matrix a(3, 4);
  blas::laset_all(2.0, 5.0, a.view());
  EXPECT_DOUBLE_EQ(a(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(a(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(a(2, 2), 5.0);
  EXPECT_DOUBLE_EQ(blas::norm_max(a.view()), 5.0);
  Matrix b(2, 2);
  b(0, 0) = 3.0;
  b(1, 1) = 4.0;
  EXPECT_DOUBLE_EQ(blas::norm_fro(b.view()), 5.0);
  b(0, 1) = -10.0;
  EXPECT_DOUBLE_EQ(blas::norm_one(b.view()), 14.0);
}

TEST(Aux, LacpyTriangles) {
  Matrix a = random_matrix(4, 4, 51);
  Matrix u(4, 4);
  Matrix l(4, 4);
  blas::lacpy(Uplo::Upper, a.view(), u.view());
  blas::lacpy(Uplo::Lower, a.view(), l.view());
  for (int j = 0; j < 4; ++j) {
    for (int i = 0; i < 4; ++i) {
      EXPECT_DOUBLE_EQ(u(i, j), i <= j ? a(i, j) : 0.0);
      EXPECT_DOUBLE_EQ(l(i, j), i >= j ? a(i, j) : 0.0);
    }
  }
}

}  // namespace
}  // namespace pulsarqr
