// px/dist/collectives.hpp
// Collective operations over the localities of a domain, built on actions.
// These are driver-side conveniences (SPMD-style loops are equally valid);
// each returns futures so collectives overlap with other work.
#pragma once

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "px/dist/distributed_domain.hpp"
#include "px/lcos/when_all.hpp"

namespace px::dist {

// Invokes Fn(args...) on every locality; element i of the result is
// locality i's future.
template <auto Fn, typename... Args>
auto broadcast(locality& from, Args const&... args)
    -> std::vector<future<typename detail::fn_sig<decltype(Fn)>::ret>> {
  using R = typename detail::fn_sig<decltype(Fn)>::ret;
  std::size_t const n = from.domain().size();
  std::vector<future<R>> futures;
  futures.reserve(n);
  for (std::size_t l = 0; l < n; ++l)
    futures.push_back(from.call<Fn>(static_cast<std::uint32_t>(l),
                                    Args(args)...));
  return futures;
}

// Broadcast + collect: waits for every locality's result, returned in
// locality order. Suspends the calling task.
template <auto Fn, typename... Args>
auto gather(locality& from, Args const&... args)
    -> std::vector<typename detail::fn_sig<decltype(Fn)>::ret> {
  auto futures = broadcast<Fn>(from, args...);
  std::vector<typename detail::fn_sig<decltype(Fn)>::ret> results;
  results.reserve(futures.size());
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

// Loss-tolerant gather for lossy fabrics: element i holds locality i's
// result, or nullopt when delivery to/from locality i exhausted its retry
// budget (px::net::delivery_error). Any other failure still propagates —
// an action throwing is a program error, not a transport one.
template <auto Fn, typename... Args>
auto try_gather(locality& from, Args const&... args)
    -> std::vector<std::optional<typename detail::fn_sig<decltype(Fn)>::ret>> {
  using R = typename detail::fn_sig<decltype(Fn)>::ret;
  static_assert(!std::is_void_v<R>,
                "try_gather needs a value-returning action; use gather for "
                "void actions");
  auto futures = broadcast<Fn>(from, args...);
  std::vector<std::optional<R>> results;
  results.reserve(futures.size());
  for (auto& f : futures) {
    try {
      results.push_back(f.get());
    } catch (net::delivery_error const&) {
      results.push_back(std::nullopt);
    }
  }
  return results;
}

// Broadcast + fold: op(acc, result_i) over localities in order.
template <auto Fn, typename T, typename Op, typename... Args>
T reduce(locality& from, T init, Op op, Args const&... args) {
  auto results = gather<Fn>(from, args...);
  for (auto& r : results) init = op(std::move(init), std::move(r));
  return init;
}

// [lo, hi) of block `index` when `n` items split into `parts` contiguous
// blocks whose sizes differ by at most one (the first n % parts are
// larger): the decomposition of scatter-style collectives and the solvers.
[[nodiscard]] inline std::pair<std::size_t, std::size_t> block_bounds(
    std::size_t n, std::size_t parts, std::size_t index) {
  std::size_t const base = n / parts;
  std::size_t const extra = n % parts;
  std::size_t const lo = index * base + std::min(index, extra);
  return {lo, lo + base + (index < extra ? 1 : 0)};
}

// Splits `data` into `parts` blocks as block_bounds does.
template <typename T>
std::vector<std::vector<T>> split_blocks(std::vector<T> const& data,
                                         std::size_t parts) {
  PX_ASSERT(parts >= 1);
  std::vector<std::vector<T>> blocks(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    auto const [lo, hi] = block_bounds(data.size(), parts, p);
    blocks[p].assign(data.begin() + static_cast<std::ptrdiff_t>(lo),
                     data.begin() + static_cast<std::ptrdiff_t>(hi));
  }
  return blocks;
}

}  // namespace px::dist
