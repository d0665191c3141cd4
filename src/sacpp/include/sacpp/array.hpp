#ifndef SNETSAC_SACPP_ARRAY_HPP
#define SNETSAC_SACPP_ARRAY_HPP

/// \file array.hpp
/// SaC-style stateless value arrays.
///
/// "Arrays in SaC are neither explicitly allocated nor de-allocated. They
/// exist as long as the associated data is needed, just like scalars in
/// conventional languages." (paper, Section 2). We reproduce this with
/// value semantics over a shared, copy-on-write buffer: copying an array is
/// O(1); the first mutation of a shared buffer clones it. This mirrors the
/// reference-counting memory management of the actual SaC runtime.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sacpp/shape.hpp"

namespace sac {

namespace detail {
/// Element storage type. `bool` is stored as one byte per element because
/// `std::vector<bool>` packs bits, whose proxy writes would race when a
/// with-loop is executed data-parallel over disjoint index ranges.
template <class T>
struct Storage {
  using type = T;
};
template <>
struct Storage<bool> {
  using type = unsigned char;
};
template <class T>
using storage_t = typename Storage<T>::type;

/// 64-byte-aligned allocator for array buffers: segment kernels run plain
/// countable loops over raw storage, and cacheline/SIMD-width alignment lets
/// the autovectoriser use aligned loads/stores without peeling.
template <class T>
struct AlignedAllocator {
  using value_type = T;
  static constexpr std::size_t kAlign = 64;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}  // NOLINT

  // Over-allocate with plain operator new and stash the base pointer just
  // below the aligned block: aligned operator new bypasses the allocator
  // fast path (measured 3-5x slower per call), and arrays are allocated on
  // every with-loop result — the solver's inner loop feels it.
  T* allocate(std::size_t n) {
    void* raw = ::operator new(n * sizeof(T) + kAlign + sizeof(void*));
    auto addr = reinterpret_cast<std::uintptr_t>(raw) + sizeof(void*);
    addr = (addr + (kAlign - 1)) & ~static_cast<std::uintptr_t>(kAlign - 1);
    reinterpret_cast<void**>(addr)[-1] = raw;
    return reinterpret_cast<T*>(addr);
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(reinterpret_cast<void**>(p)[-1]);
  }
  template <class U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
  template <class U>
  bool operator!=(const AlignedAllocator<U>&) const noexcept {
    return false;
  }
};
}  // namespace detail

template <class T>
class Array {
 public:
  using storage_type = detail::storage_t<T>;
  /// Row-major storage buffer; 64-byte-aligned so compiled segment kernels
  /// see aligned, vectorisable spans.
  using buffer_type =
      std::vector<storage_type, detail::AlignedAllocator<storage_type>>;

  /// Rank-0 array holding a value-initialised element (SaC scalar).
  Array() : Array(T{}) {}

  /// Rank-0 array holding \p scalar. Implicit on purpose: in SaC any
  /// scalar *is* a rank-0 array.
  Array(T scalar)  // NOLINT(google-explicit-constructor)
      : shape_(),
        data_(std::make_shared<buffer_type>(
            1, static_cast<storage_type>(scalar))) {}

  /// Array of \p shape with every element set to \p fill.
  Array(Shape shape, T fill)
      : shape_(std::move(shape)),
        data_(std::make_shared<buffer_type>(
            static_cast<std::size_t>(shape_.element_count()),
            static_cast<storage_type>(fill))) {}

  /// Array of \p shape adopting \p data (row-major). Throws on size
  /// mismatch.
  Array(Shape shape, std::vector<T> data) : shape_(std::move(shape)) {
    if (static_cast<std::int64_t>(data.size()) != shape_.element_count()) {
      throw ShapeError("data size " + std::to_string(data.size()) +
                       " does not match shape " + shape_.to_string());
    }
    if constexpr (std::is_same_v<T, storage_type>) {
      data_ = std::make_shared<buffer_type>(data.begin(), data.end());
    } else {
      auto buf = std::make_shared<buffer_type>(data.size());
      for (std::size_t i = 0; i < data.size(); ++i) {
        (*buf)[i] = static_cast<storage_type>(data[i]);
      }
      data_ = std::move(buf);
    }
  }

  /// Array of \p shape adopting an already-laid-out storage buffer
  /// (row-major, `bool` as one byte per element) without element
  /// conversion — the import side of the record wire codec (snet/wire.hpp)
  /// decodes straight into a `buffer_type` and hands it over here. Throws
  /// on size mismatch.
  Array(Shape shape, buffer_type storage) : shape_(std::move(shape)) {
    if (static_cast<std::int64_t>(storage.size()) != shape_.element_count()) {
      throw ShapeError("storage size " + std::to_string(storage.size()) +
                       " does not match shape " + shape_.to_string());
    }
    data_ = std::make_shared<buffer_type>(std::move(storage));
  }

  /// SaC `dim(array)`.
  int dim() const { return shape_.rank(); }
  /// SaC `shape(array)`.
  const Shape& shape() const { return shape_; }
  std::int64_t element_count() const { return shape_.element_count(); }
  bool is_scalar() const { return shape_.is_scalar(); }

  /// Scalar extraction; only valid for rank-0 arrays.
  T scalar() const {
    if (!is_scalar()) {
      throw ShapeError("scalar() on array of shape " + shape_.to_string());
    }
    return static_cast<T>((*data_)[0]);
  }

  /// Full-index element selection, SaC `array[iv]` with |iv| == dim().
  T operator[](const Index& iv) const {
    return static_cast<T>((*data_)[static_cast<std::size_t>(shape_.linearize(iv))]);
  }

  /// Row-major element access without index math.
  T linear(std::int64_t offset) const {
    return static_cast<T>((*data_)[static_cast<std::size_t>(offset)]);
  }

  /// Subarray selection, SaC `array[iv]` with |iv| <= dim(): selects the
  /// subarray at index prefix iv. |iv| == dim() yields a rank-0 array.
  Array sel(const Index& prefix) const {
    const int plen = static_cast<int>(prefix.size());
    const Shape sub = shape_.suffix(plen);
    std::int64_t base = 0;
    for (int a = 0; a < plen; ++a) {
      const std::int64_t c = prefix[static_cast<std::size_t>(a)];
      if (c < 0 || c >= shape_.extent(a)) {
        throw ShapeError("sel prefix component " + std::to_string(c) +
                         " out of bounds for axis " + std::to_string(a));
      }
      base = base * shape_.extent(a) + c;
    }
    for (int a = plen; a < shape_.rank(); ++a) {
      base *= shape_.extent(a);
    }
    const std::int64_t count = sub.element_count();
    Array out(sub, T{});
    // The selected slice is always one contiguous row-major range.
    const auto* src = data_->data() + base;
    std::copy(src, src + count, out.data_->data());
    return out;
  }

  /// Mutating element update with copy-on-write (used by the with-loop
  /// engine and for single-cell updates such as `board[i,j] = k`).
  void set(const Index& iv, T value) {
    const std::int64_t off = shape_.linearize(iv);
    ensure_unique();
    (*data_)[static_cast<std::size_t>(off)] = static_cast<storage_type>(value);
  }

  void set_linear(std::int64_t offset, T value) {
    ensure_unique();
    (*data_)[static_cast<std::size_t>(offset)] = static_cast<storage_type>(value);
  }

  /// Same shape *and* same element values.
  bool operator==(const Array& other) const {
    return shape_ == other.shape_ && *data_ == *other.data_;
  }
  bool operator!=(const Array& other) const { return !(*this == other); }

  /// Read-only view of the row-major storage buffer (bool is stored as one
  /// byte per element, see detail::Storage).
  const buffer_type& data() const { return *data_; }

  /// True when this array is the sole owner of its buffer (observability
  /// hook for copy-on-write tests).
  bool unique() const { return data_.use_count() == 1; }

  /// Grants the with-loop engine direct mutable access after detaching.
  buffer_type& mutable_data() {
    ensure_unique();
    return *data_;
  }

 private:
  void ensure_unique() {
    if (data_.use_count() != 1) {
      data_ = std::make_shared<buffer_type>(*data_);
    }
  }

  Shape shape_;
  std::shared_ptr<buffer_type> data_;
};

/// SaC `dim` / `shape` as free functions, matching the paper's notation.
template <class T>
int dim(const Array<T>& a) {
  return a.dim();
}
template <class T>
const Shape& shape(const Array<T>& a) {
  return a.shape();
}

}  // namespace sac

#endif
