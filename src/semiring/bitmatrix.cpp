#include "semiring/bitmatrix.hpp"

#include <algorithm>
#include <bit>

#include "pram/cost_model.hpp"
#include "pram/thread_pool.hpp"

namespace sepsp {

BitMatrix::BitMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows),
      cols_(cols),
      words_per_row_((cols + 63) / 64),
      words_(rows * words_per_row_, 0) {}

BitMatrix BitMatrix::identity(std::size_t n) {
  BitMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.set(i, i);
  return m;
}

void BitMatrix::reset(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  words_per_row_ = (cols + 63) / 64;
  words_.assign(rows * words_per_row_, 0);
}

void BitMatrix::merge(const BitMatrix& rhs) {
  SEPSP_CHECK(rhs.rows_ == rows_ && rhs.cols_ == cols_);
  for (std::size_t w = 0; w < words_.size(); ++w) words_[w] |= rhs.words_[w];
}

void multiply_into(const BitMatrix& a, const BitMatrix& b, BitMatrix& out) {
  SEPSP_CHECK(a.cols_ == b.rows_);
  SEPSP_CHECK(&out != &a && &out != &b);
  out.reset(a.rows_, b.cols_);
  const std::size_t out_wpr = out.words_per_row_;
  // Row pointers come from data(): with a zero-column operand a row has
  // no words, and indexing the empty vector would be undefined.
  pram::ThreadPool::global().parallel_for(0, a.rows_, [&](std::size_t i) {
    std::uint64_t* out_row = out.words_.data() + i * out_wpr;
    const std::uint64_t* a_row = a.words_.data() + i * a.words_per_row_;
    for (std::size_t kw = 0; kw < a.words_per_row_; ++kw) {
      std::uint64_t bits = a_row[kw];
      while (bits != 0) {
        const std::size_t k =
            kw * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint64_t* b_row = b.words_.data() + k * b.words_per_row_;
        for (std::size_t w = 0; w < out_wpr; ++w) out_row[w] |= b_row[w];
      }
    }
  });
  pram::CostMeter::charge_work(a.rows_ * a.cols_ *
                               std::max<std::size_t>(1, out_wpr));
  pram::CostMeter::charge_depth(std::bit_width(a.cols_) + 1);
}

BitMatrix BitMatrix::multiply(const BitMatrix& rhs) const {
  BitMatrix result;
  multiply_into(*this, rhs, result);
  return result;
}

bool square_step(BitMatrix& m, BitMatrix& scratch) {
  SEPSP_CHECK(m.is_square());
  multiply_into(m, m, scratch);
  bool changed = false;
  for (std::size_t w = 0; w < m.words_.size(); ++w) {
    const std::uint64_t merged = m.words_[w] | scratch.words_[w];
    if (merged != m.words_[w]) changed = true;
    m.words_[w] = merged;
  }
  pram::CostMeter::charge_work(m.words_.size());
  pram::CostMeter::charge_depth(1);
  return changed;
}

bool BitMatrix::square_step() {
  BitMatrix scratch;
  return sepsp::square_step(*this, scratch);
}

void floyd_warshall(BitMatrix& m) {
  SEPSP_CHECK(m.is_square());
  const std::size_t n = m.rows_;
  const std::size_t wpr = m.words_per_row_;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint64_t* k_row = m.words_.data() + k * wpr;
    for (std::size_t i = 0; i < n; ++i) {
      if (!m.get(i, k)) continue;
      std::uint64_t* i_row = m.words_.data() + i * wpr;
      for (std::size_t w = 0; w < wpr; ++w) i_row[w] |= k_row[w];
    }
  }
  pram::CostMeter::charge_work(n * n * std::max<std::size_t>(1, wpr));
  pram::CostMeter::charge_depth(n);
}

void closure_by_squaring_inplace(BitMatrix& m, BitMatrix& scratch) {
  SEPSP_CHECK(m.is_square());
  const std::size_t n = m.rows();
  for (std::size_t i = 0; i < n; ++i) m.set(i, i);
  if (n <= 2) return;
  const std::size_t steps = std::bit_width(n - 2);  // ceil(log2(n-1))
  for (std::size_t s = 0; s < steps; ++s) {
    if (!square_step(m, scratch)) break;
  }
}

BitMatrix BitMatrix::closure() const {
  SEPSP_CHECK(is_square());
  BitMatrix m = *this;
  BitMatrix scratch;
  closure_by_squaring_inplace(m, scratch);
  return m;
}

std::size_t BitMatrix::popcount() const {
  std::size_t total = 0;
  for (const std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

void BitMatrix::clear() {
  rows_ = cols_ = words_per_row_ = 0;
  words_.clear();
  words_.shrink_to_fit();
}

}  // namespace sepsp
