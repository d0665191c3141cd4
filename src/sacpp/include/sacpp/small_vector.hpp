#ifndef SNETSAC_SACPP_SMALL_VECTOR_HPP
#define SNETSAC_SACPP_SMALL_VECTOR_HPP

/// \file small_vector.hpp
/// A vector whose first N elements live inline.
///
/// With-loops are built afresh at every call site — sudoku's `options_at`
/// builds one per board cell — so a heap allocation per index vector or
/// per generator list costs more than executing the loop. Every index
/// vector of the SaC layer (`sac::Index`: shape extents, generator bounds,
/// body indices) and the with-loop generator list (`With::gens_`) live in
/// this container: up to N elements need no heap, longer lists move to the
/// heap once and keep doubling from there. Like `std::vector`, growth is
/// alias-safe: `v.push_back(v[0])` on a full vector copies the element
/// before the old buffer goes.

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sac {

template <class T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "SmallVector needs inline room for one element");
  static_assert(std::is_nothrow_move_constructible_v<T>,
                "moving a SmallVector moves inline elements one by one");

 public:
  // User-provided, not defaulted: value-initialising `Index{}` would
  // otherwise zero the inline storage first.
  SmallVector() noexcept {}
  SmallVector(std::size_t n, const T& value) : SmallVector() {
    reserve(n);
    std::uninitialized_fill_n(data_, n, value);
    size_ = n;
  }
  SmallVector(std::initializer_list<T> vals) : SmallVector() {
    append(vals.begin(), vals.end());
  }
  template <std::forward_iterator It>
  SmallVector(It first, It last) : SmallVector() {
    append(first, last);
  }
  // Delegating to the default constructor makes the destructor free a
  // heap buffer when an element copy throws.
  SmallVector(const SmallVector& other) : SmallVector() {
    append(other.begin(), other.end());
  }
  SmallVector(SmallVector&& other) noexcept { take(std::move(other)); }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      append(other.begin(), other.end());
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) {
      release();
      take(std::move(other));
    }
    return *this;
  }
  ~SmallVector() { release(); }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  T& back() { return data_[size_ - 1]; }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) {
      return grow_and_emplace(std::forward<Args>(args)...);
    }
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }
  void pop_back() { std::destroy_at(data_ + --size_); }

  /// Shrinks to, or grows with value-initialised elements to, \p n.
  void resize(std::size_t n) {
    reserve(n);
    if (n > size_) {
      std::uninitialized_value_construct(end(), data_ + n);
    } else {
      std::destroy(data_ + n, end());
    }
    size_ = n;
  }

  void clear() {
    std::destroy(begin(), end());
    size_ = 0;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  T* inline_data() { return inline_.items; }
  bool is_inline() const { return data_ == inline_.items; }

  /// Appends [first, last), which must not alias this vector.
  template <class It>
  void append(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    reserve(size_ + n);
    if constexpr (std::is_trivially_copyable_v<T> && std::is_pointer_v<It>) {
      if (n <= N) {
        // A short copy: a fixed trip count the compiler unrolls, where
        // std::uninitialized_copy would call memmove.
        T* d = end();
        for (std::size_t i = 0; i < N; ++i) {
          if (i < n) {
            d[i] = first[i];
          }
        }
        size_ += n;
        return;
      }
    }
    std::uninitialized_copy(first, last, end());
    size_ += n;
  }

  void reserve(std::size_t n) {
    if (n > capacity_) {
      adopt(std::allocator<T>().allocate(n), n);
    }
  }

  /// Moves to a buffer of twice the capacity and appends there. The new
  /// element is built first, while the old elements still live: \p args
  /// may refer to one of them.
  template <class... Args>
  T& grow_and_emplace(Args&&... args) {
    const std::size_t capacity = 2 * capacity_;
    T* fresh = std::allocator<T>().allocate(capacity);
    T* slot = fresh + size_;
    try {
      ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    } catch (...) {
      std::allocator<T>().deallocate(fresh, capacity);
      throw;
    }
    adopt(fresh, capacity);
    ++size_;
    return *slot;
  }

  /// Moves the elements into \p fresh, a buffer of \p capacity, and frees
  /// the old buffer if it was on the heap.
  void adopt(T* fresh, std::size_t capacity) {
    std::uninitialized_move(begin(), end(), fresh);
    std::destroy(begin(), end());
    if (!is_inline()) {
      std::allocator<T>().deallocate(data_, capacity_);
    }
    data_ = fresh;
    capacity_ = capacity;
  }

  /// Destroys the elements and frees a heap buffer; leaves the vector
  /// empty and inline.
  void release() {
    clear();
    if (!is_inline()) {
      std::allocator<T>().deallocate(data_, capacity_);
      data_ = inline_data();
      capacity_ = N;
    }
  }

  /// Takes \p other's elements into this empty, inline vector: a heap
  /// buffer changes hands, inline elements are moved one by one (a
  /// trivially copyable T as one copy of the inline buffer).
  void take(SmallVector&& other) noexcept {
    if (other.is_inline()) {
      if constexpr (std::is_trivially_copyable_v<T>) {
        // The whole inline buffer, a fixed size: no memmove call.
        std::memcpy(static_cast<void*>(inline_data()), other.inline_data(),
                    sizeof(inline_));
      } else {
        std::uninitialized_move(other.begin(), other.end(), inline_data());
      }
      size_ = other.size_;
      other.clear();
      return;
    }
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = other.inline_data();
    other.size_ = 0;
    other.capacity_ = N;
  }

  /// Raw room for N elements: a union member is neither constructed nor
  /// destroyed implicitly, so only the first size_ items ever live.
  union Inline {
    Inline() {}
    ~Inline() {}
    T items[N];
  } inline_;
  T* data_ = inline_.items;
  std::size_t size_ = 0;
  std::size_t capacity_ = N;
};

}  // namespace sac

#endif
