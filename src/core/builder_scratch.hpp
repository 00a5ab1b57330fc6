// Per-node scratch arenas for the E+ builders.
//
// The builders process many tree nodes per level, and every node used
// to allocate its own index-lookup structures and intermediate matrices.
// The arenas here (and the Algorithm 4.1 NodeScratch in node_step.hpp)
// let a node task lease a reusable scratch object instead: matrix
// storage is re-shaped with Matrix::reset (no allocation once grown to
// the high-water mark) and vertex->index lookups use an epoch-stamped
// dense map (O(1) per probe, O(list) per bind, no clearing pass).
//
// IMPORTANT: leases come from a mutex-protected pool, NOT from
// thread_local storage. The work-stealing pool's joins are help-first —
// a thread waiting on a nested parallel region (say, inside a blocked
// kernel) may pick up and execute a *different node's* task before its
// join completes. A thread_local scratch would be re-entered mid-use;
// pool leases give each in-flight node task its own object. The pool's
// size is bounded by the maximum number of simultaneously in-flight
// node tasks, which is small (≈ workers x nesting depth).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "semiring/matrix.hpp"
#include "util/check.hpp"

namespace sepsp::detail {

/// Dense vertex -> index map over a bound vertex list. Probes are O(1)
/// array reads; bind() is O(list) with no clearing (epoch stamps mark
/// which entries belong to the current binding).
class VertexIndexMap {
 public:
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

  explicit VertexIndexMap(std::size_t num_vertices)
      : stamp_(num_vertices, 0), index_(num_vertices, 0) {}

  /// Binds the map to `list` (entries must be < num_vertices). Any
  /// previous binding is implicitly dropped.
  void bind(std::span<const Vertex> list) {
    if (++epoch_ == 0) {  // stamp wrap: invalidate everything once
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    for (std::size_t i = 0; i < list.size(); ++i) {
      const auto v = static_cast<std::size_t>(list[i]);
      SEPSP_DCHECK(v < stamp_.size());
      stamp_[v] = epoch_;
      index_[v] = static_cast<std::uint32_t>(i);
    }
  }

  /// Index of v in the bound list, or kNpos.
  std::size_t find(Vertex v) const {
    const auto i = static_cast<std::size_t>(v);
    SEPSP_DCHECK(i < stamp_.size());
    return stamp_[i] == epoch_ ? index_[i] : kNpos;
  }

 private:
  std::vector<std::uint32_t> stamp_;
  std::vector<std::uint32_t> index_;
  std::uint32_t epoch_ = 0;
};

/// Pool of reusable scratch objects handed out as RAII leases. Acquire
/// returns a recycled object when one is free, else constructs a new one
/// via the factory.
template <typename T>
class ScratchPool {
 public:
  template <typename Factory>
  explicit ScratchPool(Factory&& make) : make_(std::forward<Factory>(make)) {}

  class Lease {
   public:
    Lease(ScratchPool* pool, std::unique_ptr<T> obj)
        : pool_(pool), obj_(std::move(obj)) {}
    ~Lease() {
      if (obj_) pool_->release(std::move(obj_));
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&&) = default;

    T& operator*() { return *obj_; }
    T* operator->() { return obj_.get(); }

   private:
    ScratchPool* pool_;
    std::unique_ptr<T> obj_;
  };

  Lease acquire() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!free_.empty()) {
        auto obj = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(obj));
      }
    }
    return Lease(this, make_());
  }

 private:
  void release(std::unique_ptr<T> obj) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_.push_back(std::move(obj));
  }

  std::function<std::unique_ptr<T>()> make_;
  std::mutex mutex_;
  std::vector<std::unique_ptr<T>> free_;  // guarded by mutex_
};

/// Scratch for one node task of the doubling builder (Algorithm 4.3).
template <Semiring S>
struct DoublingScratch {
  explicit DoublingScratch(std::size_t num_vertices)
      : map0(num_vertices), map1(num_vertices) {}

  VertexIndexMap map0;  // node V_H
  VertexIndexMap map1;  // leaf t.vertices
  Matrix<S> local;      // leaf APSP buffer
  Matrix<S> square;     // square_step product buffer
};

}  // namespace sepsp::detail
