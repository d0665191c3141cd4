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

std::int64_t Shape::linearize(const Index& iv) const {
  if (static_cast<int>(iv.size()) != rank()) {
    throw ShapeError("index " + index_to_string(iv) + " has rank " +
                     std::to_string(iv.size()) + ", array has rank " +
                     std::to_string(rank()));
  }
  std::int64_t off = 0;
  for (std::size_t a = 0; a < dims_.size(); ++a) {
    if (iv[a] < 0 || iv[a] >= dims_[a]) {
      throw ShapeError("index " + index_to_string(iv) + " out of bounds for shape " +
                       to_string());
    }
    off = off * dims_[a] + iv[a];
  }
  return off;
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

}  // namespace sac
