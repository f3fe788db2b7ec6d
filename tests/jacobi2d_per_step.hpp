// The oracle of the temporally blocked 2D Jacobi sweep, shared by
// test_jacobi2d (scalar and fixed-width pack cells) and test_simd_kernels
// (every vns_abi preset): a per-step loop of jacobi2d_row_update, and a
// checker that runs run_jacobi2d against it at the step counts around the
// pass depth and compares the final buffer's storage bitwise (halos and
// padded lanes included), plus the random problems both suites start from.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <random>
#include <string>

#include "px/px.hpp"
#include "px/stencil/jacobi2d.hpp"

namespace px_test {

// `steps` single sweeps, one row update at a time.
template <typename Cell>
void per_step_sweeps(px::stencil::field2d<Cell>& u0,
                     px::stencil::field2d<Cell>& u1, std::size_t steps) {
  px::stencil::field2d<Cell>* grids[2] = {&u0, &u1};
  for (std::size_t t = 0; t < steps; ++t)
    for (std::size_t y = 1; y <= u0.ny(); ++y)
      px::stencil::jacobi2d_row_update(*grids[t % 2], *grids[(t + 1) % 2], y);
}

// A scalar problem with random interior and boundaries.
template <typename T>
px::stencil::field2d<T> random_problem(std::size_t nx, std::size_t ny,
                                       std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<T> dist(T(-2), T(2));
  px::stencil::field2d<T> f(px::execution::seq, nx, ny);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) f.set(x, y, dist(rng));
    f.set_left_boundary(y, dist(rng));
    f.set_right_boundary(y, dist(rng));
  }
  for (std::size_t x = 0; x < nx; ++x) {
    f.set_top_boundary(x, dist(rng));
    f.set_bottom_boundary(x, dist(rng));
  }
  return f;
}

// Every storage cell (halos, padded lanes, ghost rows) bitwise equal.
template <typename Cell>
bool same_storage(px::stencil::field2d<Cell> const& a,
                  px::stencil::field2d<Cell> const& b) {
  return std::memcmp(a.row(0), b.row(0),
                     a.row_stride() * (a.ny() + 2) * sizeof(Cell)) == 0;
}

// run_jacobi2d under `policy` against per_step_sweeps, both pairs full
// copies of `initial`, at steps {0, 1, 2, d - 1, d, d + 1, 2d + 3} for
// the pass depth d. Must run on a px worker for parallel policies.
// Returns d.
template <typename Cell, typename Policy, typename T>
std::size_t expect_blocked_matches_per_step(
    Policy const& policy, px::stencil::field2d<T> const& initial,
    std::string const& what) {
  using px::stencil::field2d;
  auto fresh = [&] {
    field2d<Cell> f(px::execution::seq, initial.nx(), initial.ny());
    px::stencil::copy_problem(px::execution::seq, f, initial);
    return f;
  };
  std::size_t const d = px::stencil::jacobi2d_pass_depth(policy, fresh());
  for (std::size_t steps : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            d - 1, d, d + 1, 2 * d + 3}) {
    field2d<Cell> u0 = fresh(), u1 = fresh(), r0 = fresh(), r1 = fresh();
    auto const res = px::stencil::run_jacobi2d(policy, u0, u1, steps);
    per_step_sweeps(r0, r1, steps);
    EXPECT_EQ(res.final_index, steps % 2)
        << what << " d=" << d << " steps=" << steps;
    EXPECT_TRUE(same_storage(res.final_index == 0 ? u0 : u1,
                             steps % 2 == 0 ? r0 : r1))
        << what << " nx=" << initial.nx() << " ny=" << initial.ny()
        << " d=" << d << " steps=" << steps;
  }
  return d;
}

// The checker over odd nx (3 is below every pack width of 4 or more), ny
// from a single row to far beyond the depth, under seq, par, and
// par.with(k) with bands shorter (1, 4) and longer (64) than the depth
// seq reaches. Expects the matrix to reach the blocked path.
template <typename Cell>
void expect_blocked_matches_per_step_everywhere(px::runtime& rt) {
  using T = px::simd::get_type_t<Cell>;
  std::size_t max_depth = 1;
  auto check = [&](auto const& policy, auto const& initial,
                   std::string const& what) {
    max_depth = std::max(
        max_depth, expect_blocked_matches_per_step<Cell>(policy, initial,
                                                          what));
  };
  for (std::size_t nx : {3, 37}) {
    for (std::size_t ny : {1, 2, 20, 1600}) {
      auto const initial = random_problem<T>(nx, ny, 31 * nx + ny);
      check(px::execution::seq, initial, "seq");
      px::sync_wait(rt, [&] {
        for (std::size_t chunk : {0, 1, 4, 64})
          check(px::execution::par.with(chunk), initial,
                "par.with(" + std::to_string(chunk) + ")");
        return 0;
      });
    }
  }
  EXPECT_GT(max_depth, 1u);
}

}  // namespace px_test
