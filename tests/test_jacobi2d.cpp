// Tests for the 2D Jacobi solver: agreement with the serial reference,
// scalar-vs-pack equivalence across widths and precisions, boundary
// handling, convergence, and the temporally blocked sweep (bitwise against
// a per-step loop, the depth rule and the band-pass geometry).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "jacobi2d_per_step.hpp"
#include "px/px.hpp"
#include "px/stencil/convergence.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/reference.hpp"

namespace {

using px::simd::pack;
using namespace px::stencil;

px::scheduler_config cfg3() {
  px::scheduler_config c;
  c.num_workers = 3;
  return c;
}

// Builds the reference ghost-ring grid matching init_dirichlet_problem.
std::vector<double> reference_initial(std::size_t nx, std::size_t ny) {
  std::vector<double> u((nx + 2) * (ny + 2), 0.0);
  for (std::size_t y = 0; y < ny + 2; ++y) {
    u[y * (nx + 2)] = 1.0;
    u[y * (nx + 2) + nx + 1] = 1.0;
  }
  for (std::size_t x = 0; x < nx + 2; ++x) {
    u[x] = 1.0;
    u[(ny + 1) * (nx + 2) + x] = 1.0;
  }
  return u;
}

template <typename Cell>
void check_against_reference(std::size_t nx, std::size_t ny,
                             std::size_t steps) {
  px::runtime rt(cfg3());
  field2d<Cell> u0(nx, ny), u1(nx, ny);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);

  auto result = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, steps);
  });
  auto const& final_field = result.final_index == 0 ? u0 : u1;

  auto ref = reference_jacobi2d(reference_initial(nx, ny), nx, ny, steps);
  using scalar = typename field2d<Cell>::scalar;
  double const tol = std::is_same_v<scalar, float> ? 2e-5 : 1e-12;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_NEAR(static_cast<double>(final_field.get(x, y)),
                  ref[(y + 1) * (nx + 2) + x + 1], tol)
          << "x=" << x << " y=" << y;
}

TEST(Jacobi2d, ScalarDoubleMatchesReference) {
  check_against_reference<double>(16, 12, 20);
}
TEST(Jacobi2d, ScalarFloatMatchesReference) {
  check_against_reference<float>(16, 12, 20);
}
TEST(Jacobi2d, PackDoubleW2MatchesReference) {
  check_against_reference<pack<double, 2>>(16, 12, 20);
}
TEST(Jacobi2d, PackDoubleW4MatchesReference) {
  check_against_reference<pack<double, 4>>(32, 9, 15);
}
TEST(Jacobi2d, PackDoubleW8MatchesReference) {
  check_against_reference<pack<double, 8>>(64, 5, 10);
}
TEST(Jacobi2d, PackFloatW4MatchesReference) {
  check_against_reference<pack<float, 4>>(16, 8, 10);
}
TEST(Jacobi2d, PackFloatW8MatchesReference) {
  check_against_reference<pack<float, 8>>(32, 8, 10);
}
TEST(Jacobi2d, PackFloatW16MatchesReference) {
  // The A64FX SVE-512 shape of the paper.
  check_against_reference<pack<float, 16>>(64, 6, 8);
}

TEST(Jacobi2d, ScalarAndPackBitwiseIdenticalForDoubles) {
  // The pack kernel evaluates the same expression per element, so double
  // results must agree bitwise with the scalar kernel.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 32, ny = 10, steps = 25;
  field2d<double> s0(nx, ny), s1(nx, ny);
  field2d<pack<double, 4>> p0(nx, ny), p1(nx, ny);
  init_dirichlet_problem(s0);
  init_dirichlet_problem(s1);
  init_dirichlet_problem(p0);
  init_dirichlet_problem(p1);
  px::sync_wait(rt, [&] {
    run_jacobi2d(px::execution::par, s0, s1, steps);
    run_jacobi2d(px::execution::par, p0, p1, steps);
    return 0;
  });
  auto const& sf = steps % 2 == 0 ? s0 : s1;
  auto const& pf = steps % 2 == 0 ? p0 : p1;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_EQ(sf.get(x, y), pf.get(x, y)) << "x=" << x << " y=" << y;
}

TEST(Jacobi2d, ConvergesTowardBoundaryValue) {
  // With all-1 Dirichlet boundaries the interior converges to 1.
  px::runtime rt(cfg3());
  field2d<double> u0(8, 8), u1(8, 8);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, 2000);
  });
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      EXPECT_NEAR(u0.get(x, y), 1.0, 1e-6);
}

TEST(Jacobi2d, ZeroStepsLeavesFieldUntouched) {
  px::runtime rt(cfg3());
  field2d<double> u0(8, 4), u1(8, 4);
  init_dirichlet_problem(u0);
  u0.set(3, 2, 9.0);
  auto r = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, 0);
  });
  EXPECT_EQ(r.final_index, 0u);
  EXPECT_DOUBLE_EQ(u0.get(3, 2), 9.0);
}

TEST(Jacobi2d, ReportsPlausibleGlups) {
  px::runtime rt(cfg3());
  field2d<float> u0(128, 64), u1(128, 64);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto r = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, 50);
  });
  EXPECT_GT(r.glups, 0.0);
  EXPECT_EQ(r.steps, 50u);
  EXPECT_GT(r.seconds, 0.0);
}

TEST(Jacobi2d, ResidualIsZeroAtFixedPoint) {
  px::runtime rt(cfg3());
  field2d<double> f(8, 8);
  // Constant field equal to its boundaries is the Jacobi fixed point.
  init_dirichlet_problem(f);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x) f.set(x, y, 1.0);
  f.refresh_all_halos();
  double const r = px::sync_wait(rt, [&] {
    return jacobi2d_residual(px::execution::par, f);
  });
  EXPECT_NEAR(r, 0.0, 1e-15);
}

TEST(Jacobi2d, ResidualDetectsDefect) {
  px::runtime rt(cfg3());
  field2d<double> f(8, 8);
  init_dirichlet_problem(f);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 8; ++x) f.set(x, y, 1.0);
  f.set(3, 3, 1.5);
  f.refresh_all_halos();
  double const r = px::sync_wait(rt, [&] {
    return jacobi2d_residual(px::execution::par, f);
  });
  EXPECT_NEAR(r, 0.5, 1e-12);  // the poked cell's own defect dominates
}

TEST(Jacobi2d, SolveToToleranceConverges) {
  px::runtime rt(cfg3());
  field2d<double> u0(16, 16), u1(16, 16);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto result = px::sync_wait(rt, [&] {
    return solve_jacobi2d_to_tolerance(px::execution::par, u0, u1, 1e-8,
                                       100000, 32);
  });
  EXPECT_TRUE(result.converged);
  EXPECT_LE(result.residual, 1e-8);
  EXPECT_GT(result.sweeps, 10u);
  auto const& fin = result.final_index == 0 ? u0 : u1;
  for (std::size_t y = 0; y < 16; ++y)
    for (std::size_t x = 0; x < 16; ++x)
      EXPECT_NEAR(fin.get(x, y), 1.0, 1e-5);
}

TEST(Jacobi2d, SolveToToleranceRespectsSweepCap) {
  px::runtime rt(cfg3());
  field2d<double> u0(32, 32), u1(32, 32);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto result = px::sync_wait(rt, [&] {
    return solve_jacobi2d_to_tolerance(px::execution::par, u0, u1, 1e-14,
                                       20, 8);
  });
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.sweeps, 20u);
  EXPECT_GT(result.residual, 1e-14);
}

TEST(Jacobi2d, ResidualAgreesBetweenScalarAndPack) {
  px::runtime rt(cfg3());
  field2d<double> s(16, 8);
  field2d<px::simd::pack<double, 4>> p(16, 8);
  init_dirichlet_problem(s);
  init_dirichlet_problem(p);
  for (std::size_t y = 0; y < 8; ++y)
    for (std::size_t x = 0; x < 16; ++x) {
      double const v = 0.1 * static_cast<double>(x) -
                       0.05 * static_cast<double>(y);
      s.set(x, y, v);
      p.set(x, y, v);
    }
  s.refresh_all_halos();
  p.refresh_all_halos();
  auto [rs, rp] = px::sync_wait(rt, [&] {
    return std::make_pair(jacobi2d_residual(px::execution::par, s),
                          jacobi2d_residual(px::execution::par, p));
  });
  EXPECT_DOUBLE_EQ(rs, rp);
}

TEST(Jacobi2d, SequencedPolicyGivesSameAnswer) {
  field2d<double> a0(8, 6), a1(8, 6), b0(8, 6), b1(8, 6);
  for (auto* f : {&a0, &a1, &b0, &b1}) init_dirichlet_problem(*f);
  px::runtime rt(cfg3());
  px::sync_wait(rt, [&] {
    run_jacobi2d(px::execution::par, a0, a1, 13);
    return 0;
  });
  run_jacobi2d(px::execution::seq, b0, b1, 13);
  for (std::size_t y = 0; y < 6; ++y)
    for (std::size_t x = 0; x < 8; ++x)
      ASSERT_EQ(a1.get(x, y), b1.get(x, y));
}

// ---- temporal blocking --------------------------------------------------

TEST(Jacobi2dTemporal, ScalarFloatBitwiseEqualsPerStepLoop) {
  px::runtime rt(cfg3());
  px_test::expect_blocked_matches_per_step_everywhere<float>(rt);
}
TEST(Jacobi2dTemporal, ScalarDoubleBitwiseEqualsPerStepLoop) {
  px::runtime rt(cfg3());
  px_test::expect_blocked_matches_per_step_everywhere<double>(rt);
}
TEST(Jacobi2dTemporal, PackDoubleW4BitwiseEqualsPerStepLoop) {
  px::runtime rt(cfg3());
  px_test::expect_blocked_matches_per_step_everywhere<pack<double, 4>>(rt);
}
TEST(Jacobi2dTemporal, PackFloatW8BitwiseEqualsPerStepLoop) {
  px::runtime rt(cfg3());
  px_test::expect_blocked_matches_per_step_everywhere<pack<float, 8>>(rt);
}

// The band pass on its own, at depths the depth rule never picks (even
// ones, deeper than the grid, deeper than the band): bands tiling [1, ny]
// in order must give exactly `depth` single sweeps.
template <typename Cell>
void band_pass_case(std::size_t nx, std::size_t ny, std::size_t band,
                    std::size_t depth) {
  using T = px::simd::get_type_t<Cell>;
  auto const initial = px_test::random_problem<T>(nx, ny, 5 * ny + depth);
  field2d<Cell> u0(px::execution::seq, nx, ny), u1(px::execution::seq, nx, ny);
  field2d<Cell> r0(px::execution::seq, nx, ny), r1(px::execution::seq, nx, ny);
  for (auto* f : {&u0, &u1, &r0, &r1})
    copy_problem(px::execution::seq, *f, initial);
  std::vector<Cell> scratch(3 * (depth - 1) * u0.row_stride());
  for (std::size_t lo = 1; lo <= ny; lo += band)
    detail::jacobi2d_band_pass(u0, u1, lo, std::min(lo + band, ny + 1), depth,
                               scratch.data());
  px_test::per_step_sweeps(r0, r1, depth);
  EXPECT_TRUE(px_test::same_storage(u1, depth % 2 == 0 ? r0 : r1))
      << "nx=" << nx << " ny=" << ny << " band=" << band
      << " depth=" << depth;
}

TEST(Jacobi2dTemporal, BandPassGeometryMatchesPerStepAtAnyDepth) {
  for (std::size_t ny : {1, 2, 5, 13}) {
    for (std::size_t band : {1, 2, 3, 13}) {
      for (std::size_t depth : {1, 2, 3, 4, 7, 9}) {
        band_pass_case<double>(5, ny, band, depth);
        band_pass_case<float>(3, ny, band, depth);
        band_pass_case<pack<double, 4>>(7, ny, band, depth);
      }
    }
  }
}

TEST(Jacobi2dTemporal, DepthRuleIsOddAndFallsBackToSingleSweeps) {
  // 3 * (d - 1) rows within the 1 MiB per-worker budget, d - 1 <= band / 8.
  EXPECT_EQ(detail::temporal_depth(41088, 336), 9u);  // the pxbench grid
  EXPECT_EQ(detail::temporal_depth(64, 7), 1u);
  EXPECT_EQ(detail::temporal_depth(64, 16), 3u);
  EXPECT_EQ(detail::temporal_depth(64, 24), 3u);  // lag 3 rounds down
  EXPECT_EQ(detail::temporal_depth(64, 1600), 201u);
  EXPECT_EQ(detail::temporal_depth(400'000, 100'000), 1u);  // huge rows
  for (std::size_t row = 8; row < 1'000'000; row = row * 3 + 1)
    for (std::size_t band = 1; band < 5000; band = band * 2 + 1)
      EXPECT_EQ(detail::temporal_depth(row, band) % 2, 1u);

  px::runtime rt(cfg3());
  field2d<double> tiny(px::execution::seq, 8, 4);
  field2d<double> tall(px::execution::seq, 8, 1600);
  field2d<double> wide(px::execution::seq, 50'000, 16);
  EXPECT_EQ(jacobi2d_pass_depth(px::execution::seq, tiny), 1u);
  EXPECT_EQ(jacobi2d_pass_depth(px::execution::seq, wide), 1u);
  EXPECT_EQ(jacobi2d_pass_depth(px::execution::seq, tall), 201u);
  px::sync_wait(rt, [&] {
    EXPECT_EQ(jacobi2d_pass_depth(px::execution::par.with(1), tall), 1u);
    // 3 workers: 24 bands of 66 rows.
    EXPECT_EQ(jacobi2d_pass_depth(px::execution::par, tall), 9u);
    return 0;
  });
}

}  // namespace
