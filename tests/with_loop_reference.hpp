#ifndef SNETSAC_TESTS_WITH_LOOP_REFERENCE_HPP
#define SNETSAC_TESTS_WITH_LOOP_REFERENCE_HPP

/// \file with_loop_reference.hpp
/// The interpreted with-loop engine: the equivalence oracle of the with-loop
/// and fusion tests. It shares nothing with the compiled engine
/// (sacpp/with_loop.hpp) but the generator list: it walks every generator
/// element by recursive per-axis iteration, calls the body through its
/// `std::function` once per cell (never the row runner) and linearises
/// the full index vector per cell. Fused chains materialise their root
/// and then apply the stages elementwise, unfused. Sequential only; it
/// reaches the generator list and the chain state through the
/// `sac::testing::ReferenceEngine` friend hook.

#include <cstdint>
#include <type_traits>
#include <utility>

#include "sacpp/with_loop.hpp"

namespace sac::testing {

struct ReferenceEngine {
  template <class T>
  static Array<T> genarray(const With<T>& w, const Shape& result_shape,
                           std::type_identity_t<T> default_value) {
    Array<T> result(result_shape, std::move(default_value));
    apply(w, result);
    return result;
  }

  template <class T>
  static Array<T> modarray(const With<T>& w, Array<T> src) {
    apply(w, src);
    return src;
  }

  template <class T, class C>
  static T fold(const With<T>& w, const C& combine, std::type_identity_t<T> neutral) {
    T acc = std::move(neutral);
    for (const auto& g : w.gens_) {
      w.validate_striding(g.spec);  // before any member-count division by step
      const std::int64_t est = member_count(g.spec);
      w.validate_rank_only(g, est);
      if (est == 0) {
        continue;
      }
      visit(g.spec, [&](const Index& iv) { acc = combine(acc, eval<T>(g, iv)); });
    }
    return acc;
  }

  template <class T, class Post>
  static auto to_array(const Fused<T, Post>& f) {
    using R = typename Fused<T, Post>::value_type;
    Array<R> out(f.shape_, R{});
    const std::int64_t n = f.shape_.element_count();
    if (n == 0) {
      return out;
    }
    const Array<T> root = root_of(f);
    auto& ob = out.mutable_data();
    for (std::int64_t i = 0; i < n; ++i) {
      ob[static_cast<std::size_t>(i)] =
          static_cast<detail::storage_t<R>>(f.post_(root.linear(i), i));
    }
    return out;
  }

  template <class T, class Post, class C>
  static auto fold(const Fused<T, Post>& f, const C& combine,
                   typename Fused<T, Post>::value_type neutral) {
    const std::int64_t n = f.shape_.element_count();
    if (n == 0) {
      return neutral;
    }
    const Array<T> root = root_of(f);
    auto acc = std::move(neutral);
    for (std::int64_t i = 0; i < n; ++i) {
      acc = combine(acc, f.post_(root.linear(i), i));
    }
    return acc;
  }

 private:
  template <class T>
  static T eval(const typename With<T>::Generator& g, const Index& iv) {
    return g.is_const() ? g.const_val : g.body(iv);
  }

  /// Writes every generator's elements in generator order, so a later
  /// generator overwrites an earlier one.
  template <class T>
  static void apply(const With<T>& w, Array<T>& result) {
    const Shape& shp = result.shape();
    for (const auto& g : w.gens_) {
      w.validate_striding(g.spec);  // before any member-count division by step
      const std::int64_t est = member_count(g.spec);
      w.validate_against(g, shp, est);
      if (est == 0) {
        continue;
      }
      auto& buf = result.mutable_data();
      visit(g.spec, [&](const Index& iv) {
        buf[static_cast<std::size_t>(shp.linearize(iv))] =
            static_cast<detail::storage_t<T>>(eval<T>(g, iv));
      });
    }
  }

  template <class T, class Post>
  static Array<T> root_of(const Fused<T, Post>& f) {
    return f.has_src_ ? modarray(f.with_, f.src_) : genarray(f.with_, f.shape_, f.def_);
  }

  static bool axis_member(const GeneratorSpec& g, std::size_t axis, std::int64_t pos) {
    if (g.step.empty()) {
      return true;
    }
    const std::int64_t st = g.step[axis];
    const std::int64_t wd = g.width.empty() ? 1 : g.width[axis];
    return (pos - g.lb[axis]) % st < wd;
  }

  /// Visits every index vector of \p g in row-major order; a rank-0
  /// generator denotes the single empty index vector.
  template <class F>
  static void visit(const GeneratorSpec& g, const F& fn) {
    Index iv(g.lb.size(), 0);
    visit_axis(g, iv, 0, fn);
  }

  template <class F>
  static void visit_axis(const GeneratorSpec& g, Index& iv, std::size_t axis,
                         const F& fn) {
    if (axis == g.lb.size()) {
      fn(const_cast<const Index&>(iv));
      return;
    }
    for (std::int64_t p = g.lb[axis]; p < g.ub[axis]; ++p) {
      if (axis_member(g, axis, p)) {
        iv[axis] = p;
        visit_axis(g, iv, axis + 1, fn);
      }
    }
  }
};

}  // namespace sac::testing

#endif
