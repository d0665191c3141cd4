#ifndef SNETSAC_SACPP_SMALL_VECTOR_HPP
#define SNETSAC_SACPP_SMALL_VECTOR_HPP

/// \file small_vector.hpp
/// A vector whose first N elements live inline.
///
/// With-loops are built afresh at every call site — sudoku's `options_at`
/// builds one per board cell — so a heap allocation per generator list or
/// per bound vector costs more than executing the loop. The with-loop
/// engine keeps both its generator bounds (`SpecIndex`) and its generator
/// list (`With::gens_`) in this container: up to N elements need no heap,
/// longer lists move to the heap once and keep doubling from there.

#include <cstddef>
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
  SmallVector() = default;
  SmallVector(std::initializer_list<T> vals) : SmallVector() {
    append(vals.begin(), vals.end());
  }
  template <std::input_iterator It>
  SmallVector(It first, It last) : SmallVector() {
    append(first, last);
  }
  // Delegating to the default constructor makes a throwing element copy
  // run the destructor on the elements copied so far.
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
      grow(2 * capacity_);
    }
    T* slot = ::new (static_cast<void*>(data_ + size_)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void clear() {
    std::destroy(begin(), end());
    size_ = 0;
  }

 private:
  T* inline_data() { return inline_.items; }
  bool is_inline() const { return data_ == inline_.items; }

  template <class It>
  void append(It first, It last) {
    for (; first != last; ++first) {
      emplace_back(*first);
    }
  }

  void grow(std::size_t capacity) {
    T* fresh = std::allocator<T>().allocate(capacity);
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
  /// buffer changes hands, inline elements are moved one by one.
  void take(SmallVector&& other) noexcept {
    if (other.is_inline()) {
      std::uninitialized_move(other.begin(), other.end(), inline_data());
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
