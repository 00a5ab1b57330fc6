// Packed Boolean matrices: 64 adjacency bits per machine word.
//
// This is the library's stand-in for the paper's fast Boolean matrix
// multiplication M(r) (Coppersmith–Winograd-style bounds are galactic;
// every practical system uses word-packed cubic kernels). Reachability
// variants of the builders route their separator-sized products through
// this type, so the "separator-sized products beat n-sized products"
// shape of the paper's reachability bounds is preserved.
#pragma once

#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace sepsp {

/// Row-major rows x cols bit matrix.
class BitMatrix {
 public:
  BitMatrix() = default;
  BitMatrix(std::size_t rows, std::size_t cols);
  explicit BitMatrix(std::size_t n) : BitMatrix(n, n) {}

  static BitMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool is_square() const { return rows_ == cols_; }

  bool get(std::size_t i, std::size_t j) const {
    SEPSP_DCHECK(i < rows_ && j < cols_);
    return (words_[i * words_per_row_ + j / 64] >> (j % 64)) & 1u;
  }

  void set(std::size_t i, std::size_t j, bool value = true) {
    SEPSP_DCHECK(i < rows_ && j < cols_);
    const std::uint64_t bit = 1ULL << (j % 64);
    std::uint64_t& word = words_[i * words_per_row_ + j / 64];
    if (value) {
      word |= bit;
    } else {
      word &= ~bit;
    }
  }

  /// Matrix<S>-style spellings, so the Algorithm 4.1 node step
  /// (core/node_step.hpp) runs on either kernel unchanged.
  /// Re-shapes to rows x cols of zero bits, reusing the storage.
  void reset(std::size_t rows, std::size_t cols);
  void reset(std::size_t n) { reset(n, n); }
  bool at(std::size_t i, std::size_t j) const { return get(i, j); }
  /// combine-assign: at(i,j) |= v.
  void merge(std::size_t i, std::size_t j, bool v) {
    if (v) set(i, j);
  }

  /// this |= rhs (elementwise; same shape).
  void merge(const BitMatrix& rhs);

  /// Boolean product this (x) rhs (cols() must equal rhs.rows()); see
  /// multiply_into.
  BitMatrix multiply(const BitMatrix& rhs) const;

  /// this = this | this (x) this; returns true if any bit was added.
  /// Square only.
  bool square_step();

  /// Reflexive-transitive closure by repeated squaring. Square only.
  BitMatrix closure() const;

  /// Number of set bits.
  std::size_t popcount() const;

  /// Releases storage.
  void clear();

  bool operator==(const BitMatrix&) const = default;

  /// Boolean product a (x) b into `out` (re-shaped, storage reused; must
  /// alias neither operand). O(rows * cols * b.cols/64) word operations,
  /// charged as such to the cost model with log depth.
  friend void multiply_into(const BitMatrix& a, const BitMatrix& b,
                            BitMatrix& out);
  /// m |= m (x) m with the product in `scratch`; true if a bit was added.
  friend bool square_step(BitMatrix& m, BitMatrix& scratch);
  /// Warshall's transitive closure in place, one word-wide row OR per
  /// (i, k) pair. O(n^2 * n/64) work, depth n.
  friend void floyd_warshall(BitMatrix& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_per_row_ = 0;
  std::vector<std::uint64_t> words_;
};

/// Reflexive-transitive closure by at most ceil(log2(n-1)) squarings
/// (or until fixpoint), products backed by `scratch`. Square only.
void closure_by_squaring_inplace(BitMatrix& m, BitMatrix& scratch);

}  // namespace sepsp
