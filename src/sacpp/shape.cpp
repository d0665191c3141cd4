#include "sacpp/shape.hpp"

#include <sstream>

namespace sac {

void Shape::validate() const {
  for (const auto d : dims_) {
    if (d < 0) {
      throw ShapeError("negative extent in shape " + to_string());
    }
  }
}

std::int64_t Shape::element_count() const {
  std::int64_t n = 1;
  for (const auto d : dims_) {
    n *= d;
  }
  return n;
}

Index Shape::strides() const {
  Index s(dims_.size(), 1);
  for (int a = rank() - 2; a >= 0; --a) {
    const auto ua = static_cast<std::size_t>(a);
    s[ua] = s[ua + 1] * dims_[ua + 1];
  }
  return s;
}

std::int64_t Shape::linearize_any(const Index& iv) const {
  std::int64_t off = 0;
  for (std::size_t a = 0; a < dims_.size(); ++a) {
    if (iv[a] < 0 || iv[a] >= dims_[a]) {
      throw_out_of_bounds(iv);
    }
    off = off * dims_[a] + iv[a];
  }
  return off;
}

void Shape::throw_axis_out_of_range(int axis) const {
  throw std::out_of_range("axis " + std::to_string(axis) + " out of range for shape " +
                          to_string());
}

void Shape::throw_rank_mismatch(const Index& iv) const {
  throw ShapeError("index " + index_to_string(iv) + " has rank " +
                   std::to_string(iv.size()) + ", array has rank " +
                   std::to_string(rank()));
}

void Shape::throw_out_of_bounds(const Index& iv) const {
  throw ShapeError("index " + index_to_string(iv) + " out of bounds for shape " +
                   to_string());
}

bool Shape::contains(const Index& iv) const {
  if (static_cast<int>(iv.size()) != rank()) {
    return false;
  }
  for (std::size_t a = 0; a < dims_.size(); ++a) {
    if (iv[a] < 0 || iv[a] >= dims_[a]) {
      return false;
    }
  }
  return true;
}

Index Shape::delinearize(std::int64_t offset) const {
  Index iv(dims_.size(), 0);
  for (int a = rank() - 1; a >= 0; --a) {
    const auto ua = static_cast<std::size_t>(a);
    if (dims_[ua] > 0) {
      iv[ua] = offset % dims_[ua];
      offset /= dims_[ua];
    }
  }
  return iv;
}

Shape Shape::suffix(int prefix_len) const {
  if (prefix_len < 0 || prefix_len > rank()) {
    throw ShapeError("selection prefix of length " + std::to_string(prefix_len) +
                     " invalid for shape " + to_string());
  }
  return Shape(Index(dims_.begin() + prefix_len, dims_.end()));
}

std::string Shape::to_string() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t a = 0; a < dims_.size(); ++a) {
    if (a != 0) {
      os << ',';
    }
    os << dims_[a];
  }
  os << ']';
  return os.str();
}

Shape concat_shapes(const Shape& a, const Shape& b) {
  Index d = a.dims();
  for (const std::int64_t e : b.dims()) {
    d.emplace_back(e);
  }
  return Shape(std::move(d));
}

std::string index_to_string(const Index& iv) {
  std::ostringstream os;
  os << '[';
  for (std::size_t a = 0; a < iv.size(); ++a) {
    if (a != 0) {
      os << ',';
    }
    os << iv[a];
  }
  os << ']';
  return os.str();
}

namespace detail {

void throw_shape_error(const char* what) { throw ShapeError(what); }

void throw_bounds_rank(const Index& lb, const Index& ub) {
  throw ShapeError("generator bounds " + index_to_string(lb) + " and " +
                   index_to_string(ub) + " differ in rank");
}

void throw_generator_rank(std::size_t rank, const Shape& target) {
  throw ShapeError("generator of rank " + std::to_string(rank) +
                   " does not match result shape " + target.to_string());
}

void throw_generator_range(const Index& lb, const Index& ub, const Shape& target) {
  throw ShapeError("generator range " + index_to_string(lb) + " .. " +
                   index_to_string(ub) + " exceeds result shape " + target.to_string());
}

void throw_fold_lower_bound(const Index& lb) {
  throw ShapeError("fold generator lower bound " + index_to_string(lb) +
                   " is negative");
}

}  // namespace detail

}  // namespace sac
