#ifndef SNETSAC_SACPP_OPS_HPP
#define SNETSAC_SACPP_OPS_HPP

/// \file ops.hpp
/// Universally applicable array operations, built the way the paper builds
/// them: as with-loop abstractions ("one purpose of with-loops is to serve
/// as an implementation vehicle for universally applicable array
/// operations"). The vector concatenation `++` here is a direct transcript
/// of the paper's Section 2 definition.

#include <algorithm>
#include <functional>
#include <type_traits>

#include "sacpp/array.hpp"
#include "sacpp/with_loop.hpp"

namespace sac {

/// Element-wise map: result[iv] = f(a[iv]). A one-stage fused chain: one
/// segment pass over a's storage, template-inlined body, no per-element
/// set_linear/COW checks.
template <class T, class F>
auto map(const Array<T>& a, F f) -> Array<std::invoke_result_t<F, T>> {
  return lazy(a).map(std::move(f)).to_array();
}

/// Element-wise zip: result[iv] = f(a[iv], b[iv]); shapes must coincide.
template <class T, class U, class F>
auto zip_with(const Array<T>& a, const Array<U>& b, F f)
    -> Array<std::invoke_result_t<F, T, U>> {
  return lazy(a).zip_with(b, std::move(f)).to_array();
}

/// Whole-array reduction in row-major order.
template <class T, class R, class F>
R reduce(const Array<T>& a, F combine, R neutral) {
  R acc = neutral;
  const std::int64_t n = a.element_count();
  for (std::int64_t i = 0; i < n; ++i) {
    acc = combine(acc, a.linear(i));
  }
  return acc;
}

template <class T>
T sum(const Array<T>& a) {
  return reduce(a, [](T x, T y) { return static_cast<T>(x + y); }, T{});
}

inline bool all_true(const Array<bool>& a) {
  return reduce(a, [](bool x, bool y) { return x && y; }, true);
}

inline bool any_true(const Array<bool>& a) {
  return reduce(a, [](bool x, bool y) { return x || y; }, false);
}

/// Number of elements equal to \p v.
template <class T>
std::int64_t count(const Array<T>& a, T v) {
  std::int64_t acc = 0;
  const std::int64_t n = a.element_count();
  for (std::int64_t i = 0; i < n; ++i) {
    if (a.linear(i) == v) {
      ++acc;
    }
  }
  return acc;
}

template <class T>
T min_val(const Array<T>& a) {
  if (a.element_count() == 0) {
    throw ShapeError("min_val on empty array");
  }
  T acc = a.linear(0);
  for (std::int64_t i = 1; i < a.element_count(); ++i) {
    acc = std::min(acc, a.linear(i));
  }
  return acc;
}

template <class T>
T max_val(const Array<T>& a) {
  if (a.element_count() == 0) {
    throw ShapeError("max_val on empty array");
  }
  T acc = a.linear(0);
  for (std::int64_t i = 1; i < a.element_count(); ++i) {
    acc = std::max(acc, a.linear(i));
  }
  return acc;
}

/// `[0, 1, ..., n-1]`, SaC's iota.
inline Array<std::int64_t> iota(std::int64_t n) {
  Array<std::int64_t> out(Shape{n}, 0);
  for (std::int64_t i = 0; i < n; ++i) {
    out.set_linear(i, i);
  }
  return out;
}

/// Reinterprets the row-major data under a new shape of equal element count.
template <class T>
Array<T> reshape(const Array<T>& a, const Shape& shp) {
  if (shp.element_count() != a.element_count()) {
    throw ShapeError("reshape " + a.shape().to_string() + " -> " + shp.to_string() +
                     " changes element count");
  }
  Array<T> out(shp, T{});
  for (std::int64_t i = 0; i < a.element_count(); ++i) {
    out.set_linear(i, a.linear(i));
  }
  return out;
}

/// Vector concatenation `a ++ b` — the paper's Section 2 example, written
/// with the exact same two-generator genarray-with-loop.
template <class T>
Array<T> concat(const Array<T>& a, const Array<T>& b) {
  if (a.dim() != 1 || b.dim() != 1) {
    throw ShapeError("++ requires vectors, got " + a.shape().to_string() + " and " +
                     b.shape().to_string());
  }
  const std::int64_t na = a.shape().extent(0);
  const std::int64_t nb = b.shape().extent(0);
  return With<T>()
      .gen({0}, {na}, [&](const Index& iv) { return a[iv]; })
      .gen({na}, {na + nb}, [&](const Index& iv) { return b[{iv[0] - na}]; })
      .genarray(Shape{na + nb}, T{});
}

/// First \p n elements along axis 0 (negative n: last |n|).
template <class T>
Array<T> take(std::int64_t n, const Array<T>& a) {
  if (a.dim() == 0) {
    throw ShapeError("take on scalar");
  }
  const std::int64_t ext = a.shape().extent(0);
  const std::int64_t cnt = std::min(std::abs(n), ext);
  const std::int64_t start = n >= 0 ? 0 : ext - cnt;
  Index dims = a.shape().dims();
  dims[0] = cnt;
  const Shape out_shape(std::move(dims));
  const std::int64_t row = a.shape().suffix(1).element_count();
  Array<T> out(out_shape, T{});
  for (std::int64_t i = 0; i < cnt * row; ++i) {
    out.set_linear(i, a.linear(start * row + i));
  }
  return out;
}

/// Drops the first \p n elements along axis 0 (negative n: last |n|).
template <class T>
Array<T> drop(std::int64_t n, const Array<T>& a) {
  if (a.dim() == 0) {
    throw ShapeError("drop on scalar");
  }
  const std::int64_t ext = a.shape().extent(0);
  const std::int64_t cnt = std::min(std::abs(n), ext);
  const std::int64_t remain = ext - cnt;
  const std::int64_t start = n >= 0 ? cnt : 0;
  Index dims = a.shape().dims();
  dims[0] = remain;
  const Shape out_shape(std::move(dims));
  const std::int64_t row = a.shape().suffix(1).element_count();
  Array<T> out(out_shape, T{});
  for (std::int64_t i = 0; i < remain * row; ++i) {
    out.set_linear(i, a.linear(start * row + i));
  }
  return out;
}

/// Cyclic rotation along axis 0 by \p offset (SaC's `rotate`); positive
/// offsets move elements towards higher indices.
template <class T>
Array<T> rotate(std::int64_t offset, const Array<T>& a) {
  if (a.dim() == 0) {
    throw ShapeError("rotate on scalar");
  }
  const std::int64_t ext = a.shape().extent(0);
  if (ext == 0) {
    return a;
  }
  const std::int64_t shift_by = ((offset % ext) + ext) % ext;
  const std::int64_t row = a.shape().suffix(1).element_count();
  Array<T> out(a.shape(), T{});
  for (std::int64_t i = 0; i < ext; ++i) {
    const std::int64_t src = (i - shift_by + ext) % ext;
    for (std::int64_t j = 0; j < row; ++j) {
      out.set_linear(i * row + j, a.linear(src * row + j));
    }
  }
  return out;
}

/// Non-cyclic shift along axis 0 (SaC's `shift`): vacated positions take
/// \p fill.
template <class T>
Array<T> shift(std::int64_t offset, T fill, const Array<T>& a) {
  if (a.dim() == 0) {
    throw ShapeError("shift on scalar");
  }
  const std::int64_t ext = a.shape().extent(0);
  const std::int64_t row = a.shape().suffix(1).element_count();
  Array<T> out(a.shape(), fill);
  for (std::int64_t i = 0; i < ext; ++i) {
    const std::int64_t src = i - offset;
    if (src < 0 || src >= ext) {
      continue;
    }
    for (std::int64_t j = 0; j < row; ++j) {
      out.set_linear(i * row + j, a.linear(src * row + j));
    }
  }
  return out;
}

/// Element-wise choice: mask ? a : b (SaC's `where`).
template <class T>
Array<T> where(const Array<bool>& mask, const Array<T>& a, const Array<T>& b) {
  if (mask.shape() != a.shape() || a.shape() != b.shape()) {
    throw ShapeError("where requires equal shapes, got " + mask.shape().to_string() +
                     ", " + a.shape().to_string() + ", " + b.shape().to_string());
  }
  Array<T> out(a.shape(), T{});
  for (std::int64_t i = 0; i < a.element_count(); ++i) {
    out.set_linear(i, mask.linear(i) ? a.linear(i) : b.linear(i));
  }
  return out;
}

/// Reduction over axis 0: result shape is the suffix shape; each cell is
/// the sum over the leading axis.
template <class T>
Array<T> sum_axis0(const Array<T>& a) {
  if (a.dim() == 0) {
    throw ShapeError("sum_axis0 on scalar");
  }
  const std::int64_t ext = a.shape().extent(0);
  const Shape sub = a.shape().suffix(1);
  const std::int64_t row = sub.element_count();
  Array<T> out(sub, T{});
  for (std::int64_t i = 0; i < ext; ++i) {
    for (std::int64_t j = 0; j < row; ++j) {
      out.set_linear(j, static_cast<T>(out.linear(j) + a.linear(i * row + j)));
    }
  }
  return out;
}

/// Matrix transpose (rank 2 only).
template <class T>
Array<T> transpose(const Array<T>& a) {
  if (a.dim() != 2) {
    throw ShapeError("transpose requires rank 2, got " + a.shape().to_string());
  }
  const std::int64_t r = a.shape().extent(0);
  const std::int64_t c = a.shape().extent(1);
  return With<T>()
      .gen({0, 0}, {c, r}, [&](const Index& iv) { return a[{iv[1], iv[0]}]; })
      .genarray(Shape{c, r}, T{});
}

}  // namespace sac

#endif
