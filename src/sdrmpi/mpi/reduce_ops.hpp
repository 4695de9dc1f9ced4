// Elementwise reduction kernels. Collectives are type-erased internally
// (element size + combine function); this header builds the combine function
// for an arithmetic type and an Op.
#pragma once

#include <cstddef>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <type_traits>

#include "sdrmpi/mpi/types.hpp"

namespace sdrmpi::mpi {

/// Combines `count` elements: out[i] = op(a[i], b[i]), operand a first.
/// Three operands let a reduction write its result straight into a fresh
/// buffer instead of copying a there first. `out` may alias `a`: element
/// i of both operands is read before out[i] is written.
using ReduceFn = std::function<void(std::byte* out, const std::byte* a,
                                    const std::byte* b, std::size_t count)>;

namespace detail {

template <class T, class F>
ReduceFn make_reduce(F f) {
  return [f](std::byte* out, const std::byte* a, const std::byte* b,
             std::size_t count) {
    auto* o = reinterpret_cast<T*>(out);
    const auto* x = reinterpret_cast<const T*>(a);
    const auto* y = reinterpret_cast<const T*>(b);
    for (std::size_t i = 0; i < count; ++i) o[i] = f(x[i], y[i]);
  };
}

}  // namespace detail

template <class T>
[[nodiscard]] ReduceFn reduce_fn(Op op) {
  static_assert(std::is_arithmetic_v<T>, "reductions need arithmetic types");
  switch (op) {
    case Op::Sum:
      return detail::make_reduce<T>([](T a, T b) { return a + b; });
    case Op::Prod:
      return detail::make_reduce<T>([](T a, T b) { return a * b; });
    case Op::Max:
      return detail::make_reduce<T>([](T a, T b) { return a > b ? a : b; });
    case Op::Min:
      return detail::make_reduce<T>([](T a, T b) { return a < b ? a : b; });
    case Op::Land:
      return detail::make_reduce<T>(
          [](T a, T b) { return static_cast<T>(a != T{} && b != T{}); });
    case Op::Lor:
      return detail::make_reduce<T>(
          [](T a, T b) { return static_cast<T>(a != T{} || b != T{}); });
    case Op::Band:
      if constexpr (std::is_integral_v<T>) {
        return detail::make_reduce<T>([](T a, T b) { return a & b; });
      }
      break;
    case Op::Bor:
      if constexpr (std::is_integral_v<T>) {
        return detail::make_reduce<T>([](T a, T b) { return a | b; });
      }
      break;
  }
  throw std::invalid_argument("reduce_fn: op unsupported for type");
}

}  // namespace sdrmpi::mpi
