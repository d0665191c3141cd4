#ifndef SNETSAC_SACPP_SHAPE_HPP
#define SNETSAC_SACPP_SHAPE_HPP

/// \file shape.hpp
/// Shapes and index vectors for the SaC-style array layer.
///
/// SaC arrays are n-dimensional and rank-generic: scalars are rank-0 arrays
/// with an empty shape vector (paper, Section 2). `Shape` mirrors the result
/// of SaC's built-in `shape()`, `Index` mirrors the index vectors (`iv`)
/// used in with-loop generators and selections.

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "sacpp/small_vector.hpp"

namespace sac {

/// An index vector. Up to rank 4 (every array in the paper) its
/// components live inline, so building one — a shape's extents, a
/// generator bound, a with-loop body's `iv` — allocates nothing.
using Index = SmallVector<std::int64_t, 4>;

/// Error for rank/shape/bounds violations; SaC would abort at runtime with
/// a similar diagnostic.
class ShapeError : public std::runtime_error {
 public:
  explicit ShapeError(const std::string& what) : std::runtime_error(what) {}
};

/// Row-major rectangular shape. Rank 0 (empty dims) denotes a scalar. The
/// extents are an Index, so copying a shape of rank <= 4 — with every
/// Array copy and with-loop result — allocates nothing.
class Shape {
 public:
  Shape() = default;
  Shape(std::initializer_list<std::int64_t> dims) : dims_(dims) { validate(); }
  explicit Shape(const std::vector<std::int64_t>& dims)
      : dims_(dims.begin(), dims.end()) {
    validate();
  }
  explicit Shape(Index dims) : dims_(std::move(dims)) { validate(); }

  int rank() const { return static_cast<int>(dims_.size()); }
  bool is_scalar() const { return dims_.empty(); }

  std::int64_t extent(int axis) const {
    if (axis < 0 || axis >= rank()) [[unlikely]] {
      throw_axis_out_of_range(axis);
    }
    return dims_[static_cast<std::size_t>(axis)];
  }
  const Index& dims() const { return dims_; }

  /// Total number of elements (1 for scalars, 0 if any extent is 0).
  std::int64_t element_count() const;

  /// Row-major strides; stride[rank-1] == 1 for non-empty shapes.
  Index strides() const;

  /// Row-major linearisation of a full index vector. Throws ShapeError on
  /// rank mismatch or out-of-bounds component. Inline, and straight-line
  /// code up to rank 4: with-loop bodies index their arrays through it
  /// once per cell. Forced inline: in a translation unit that already
  /// inlines a few with-loops, gcc's growth limits would otherwise leave a
  /// call per cell.
  [[gnu::always_inline]] std::int64_t linearize(const Index& iv) const {
    if (iv.size() != dims_.size()) [[unlikely]] {
      throw_rank_mismatch(iv);
    }
    switch (dims_.size()) {
      case 1:
        return linearize_rank<1>(iv);
      case 2:
        return linearize_rank<2>(iv);
      case 3:
        return linearize_rank<3>(iv);
      case 4:
        return linearize_rank<4>(iv);
      default:
        return linearize_any(iv);
    }
  }

  /// True when \p iv has matching rank and every component is in bounds.
  bool contains(const Index& iv) const;

  /// Inverse of linearize.
  Index delinearize(std::int64_t offset) const;

  /// Shape of the subarray selected by an index prefix (SaC's `array[iv]`
  /// with a short iv): the trailing `rank() - prefix_len` axes.
  Shape suffix(int prefix_len) const;

  bool operator==(const Shape& other) const { return dims_ == other.dims_; }
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string to_string() const;

 private:
  void validate() const;
  /// linearize at rank R: a fixed trip count the compiler unrolls, and one
  /// branch for all the bounds checks. The offset accumulates unsigned, so
  /// an out-of-range component wraps harmlessly before the check rejects it.
  template <std::size_t R>
  [[gnu::always_inline]] std::int64_t linearize_rank(const Index& iv) const {
    const std::int64_t* c = iv.data();
    const std::int64_t* d = dims_.data();
    bool in = true;
    std::uint64_t off = 0;
    for (std::size_t a = 0; a < R; ++a) {
      const auto ca = static_cast<std::uint64_t>(c[a]);
      const auto da = static_cast<std::uint64_t>(d[a]);
      // One unsigned compare catches both negative and too-large components.
      in &= ca < da;
      off = off * da + ca;
    }
    if (!in) [[unlikely]] {
      throw_out_of_bounds(iv);
    }
    return static_cast<std::int64_t>(off);
  }
  std::int64_t linearize_any(const Index& iv) const;

  // The throwing paths of the inline accessors, out of line: message
  // building at every call site would keep the callers from inlining.
  [[noreturn]] void throw_axis_out_of_range(int axis) const;
  [[noreturn]] void throw_rank_mismatch(const Index& iv) const;
  [[noreturn]] void throw_out_of_bounds(const Index& iv) const;
  Index dims_;
};

/// Concatenation of two shape vectors (used for nested selections).
Shape concat_shapes(const Shape& a, const Shape& b);

std::string index_to_string(const Index& iv);

namespace detail {
/// The with-loop checks' throwing paths, out of line for the same reason
/// as Shape's: generator setup runs on every with-loop call and must stay
/// small enough to inline.
[[noreturn]] void throw_shape_error(const char* what);
[[noreturn]] void throw_bounds_rank(const Index& lb, const Index& ub);
[[noreturn]] void throw_generator_rank(std::size_t rank, const Shape& target);
[[noreturn]] void throw_generator_range(const Index& lb, const Index& ub,
                                        const Shape& target);
[[noreturn]] void throw_fold_lower_bound(const Index& lb);
}  // namespace detail

}  // namespace sac

#endif
