// Bit-packed Boolean matrix tests against dense references, including
// shapes that straddle the 64-bit word boundary.
#include <gtest/gtest.h>

#include <vector>

#include "semiring/bitmatrix.hpp"
#include "semiring/matrix.hpp"
#include "semiring/semiring.hpp"
#include "util/random.hpp"

namespace sepsp {
namespace {

BitMatrix random_bits(std::size_t rows, std::size_t cols, Rng& rng,
                      double density = 0.2) {
  BitMatrix m(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      if (rng.next_bool(density)) m.set(i, j);
    }
  }
  return m;
}

Matrix<BooleanSR> to_dense(const BitMatrix& m) {
  Matrix<BooleanSR> d(m.rows(), m.cols());
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t j = 0; j < m.cols(); ++j) {
      d.at(i, j) = m.get(i, j) ? 1 : 0;
    }
  }
  return d;
}

TEST(BitMatrix, SetGetAndClear) {
  BitMatrix m(70, 70);  // crosses the word boundary
  EXPECT_FALSE(m.get(69, 69));
  m.set(69, 69);
  m.set(0, 63);
  m.set(0, 64);
  EXPECT_TRUE(m.get(69, 69));
  EXPECT_TRUE(m.get(0, 63));
  EXPECT_TRUE(m.get(0, 64));
  EXPECT_FALSE(m.get(0, 62));
  m.set(0, 63, false);
  EXPECT_FALSE(m.get(0, 63));
  EXPECT_EQ(m.popcount(), 2u);
}

TEST(BitMatrix, IdentityAndMerge) {
  BitMatrix id = BitMatrix::identity(5);
  EXPECT_EQ(id.popcount(), 5u);
  BitMatrix other(5, 5);
  other.set(0, 4);
  id.merge(other);
  EXPECT_TRUE(id.get(0, 4));
  EXPECT_EQ(id.popcount(), 6u);
}

TEST(BitMatrix, MultiplyMatchesDenseSemiring) {
  Rng rng(31);
  for (const auto [r, k, c] :
       {std::array<std::size_t, 3>{5, 5, 5},
        std::array<std::size_t, 3>{10, 70, 3},
        std::array<std::size_t, 3>{65, 65, 65},
        std::array<std::size_t, 3>{1, 128, 1}}) {
    const BitMatrix a = random_bits(r, k, rng);
    const BitMatrix b = random_bits(k, c, rng);
    const BitMatrix got = a.multiply(b);
    const Matrix<BooleanSR> want = multiply(to_dense(a), to_dense(b));
    for (std::size_t i = 0; i < r; ++i) {
      for (std::size_t j = 0; j < c; ++j) {
        ASSERT_EQ(got.get(i, j), want.at(i, j) != 0)
            << r << "x" << k << "x" << c << " at " << i << "," << j;
      }
    }
  }
}

TEST(BitMatrix, ClosureMatchesDenseClosure) {
  Rng rng(32);
  for (const std::size_t n : {1u, 7u, 64u, 100u}) {
    const BitMatrix a = random_bits(n, n, rng, 0.05);
    const BitMatrix got = a.closure();
    const auto want = closure_by_squaring(to_dense(a));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        ASSERT_EQ(got.get(i, j), want.at(i, j) != 0) << n;
      }
    }
  }
}

TEST(BitMatrix, ClosureOfPathIsUpperTriangle) {
  BitMatrix m(50, 50);
  for (std::size_t i = 0; i + 1 < 50; ++i) m.set(i, i + 1);
  const BitMatrix c = m.closure();
  for (std::size_t i = 0; i < 50; ++i) {
    for (std::size_t j = 0; j < 50; ++j) {
      EXPECT_EQ(c.get(i, j), j >= i) << i << "," << j;
    }
  }
}

TEST(BitMatrix, SquareStepFixpoint) {
  BitMatrix m = BitMatrix::identity(4);
  m.set(0, 1);
  EXPECT_FALSE(m.square_step());
  m.set(1, 2);
  EXPECT_TRUE(m.square_step());
  EXPECT_TRUE(m.get(0, 2));
}

TEST(BitMatrix, MultiplyThroughZeroInnerDimension) {
  // r x 0 (x) 0 x c: no k to route through, so the product is all zero.
  const BitMatrix a(3, 0);
  const BitMatrix b(0, 5);
  const BitMatrix got = a.multiply(b);
  EXPECT_EQ(got.rows(), 3u);
  EXPECT_EQ(got.cols(), 5u);
  EXPECT_EQ(got.popcount(), 0u);
}

TEST(BitMatrix, MultiplyIntoZeroColumns) {
  // r x k (x) k x 0: the result has rows but no words per row.
  Rng rng(33);
  const BitMatrix a = random_bits(4, 70, rng, 0.5);
  const BitMatrix b(70, 0);
  const BitMatrix got = a.multiply(b);
  EXPECT_EQ(got.rows(), 4u);
  EXPECT_EQ(got.cols(), 0u);
  EXPECT_EQ(got.popcount(), 0u);
}

TEST(BitMatrix, FloydWarshallMatchesSquaringClosure) {
  Rng rng(34);
  for (const std::size_t n : {0u, 1u, 7u, 64u, 100u}) {
    BitMatrix m = random_bits(n, n, rng, 0.05);
    const BitMatrix want = m.closure();
    for (std::size_t i = 0; i < n; ++i) m.set(i, i);
    floyd_warshall(m);
    EXPECT_EQ(m, want) << n;
  }
}

}  // namespace
}  // namespace sepsp
