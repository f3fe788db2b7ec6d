// Tests for the distributed 2D Jacobi solver and the cache-blocked
// shared-memory variant.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "px/px.hpp"
#include "px/stencil/stencil.hpp"

namespace {

using namespace px::stencil;

px::dist::domain_config dcfg(std::size_t n) {
  px::dist::domain_config c;
  c.num_localities = n;
  c.locality_cfg.num_workers = 2;
  c.injection_scale = 0.001;
  return c;
}

std::vector<double> wavy_interior(std::size_t nx, std::size_t ny) {
  std::vector<double> v(nx * ny);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      v[y * nx + x] = std::sin(0.3 * static_cast<double>(x)) *
                      std::cos(0.2 * static_cast<double>(y));
  return v;
}

class DistJacobiLocalities : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DistJacobiLocalities, MatchesSerialReference) {
  std::size_t const nloc = GetParam();
  px::dist::distributed_domain dom(dcfg(nloc));
  dist_jacobi_config cfg;
  cfg.nx = 24;
  cfg.ny_total = 37;  // ragged row blocks
  cfg.steps = 15;
  auto initial = wavy_interior(cfg.nx, cfg.ny_total);
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  auto ref = reference_jacobi2d_interior(initial, cfg.nx, cfg.ny_total,
                                         cfg.steps, cfg.boundary);
  ASSERT_EQ(result.values.size(), ref.size());
  EXPECT_LT(max_abs_diff(result.values, ref), 1e-13) << nloc;
}

INSTANTIATE_TEST_SUITE_P(Localities, DistJacobiLocalities,
                         ::testing::Values(1, 2, 3, 5));

TEST(DistJacobi, SingleRowBlocks) {
  // As many localities as rows: every block is one row; all neighbours
  // are remote. The hardest halo pattern.
  px::dist::distributed_domain dom(dcfg(6));
  dist_jacobi_config cfg;
  cfg.nx = 16;
  cfg.ny_total = 6;
  cfg.steps = 10;
  auto initial = wavy_interior(cfg.nx, cfg.ny_total);
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  auto ref = reference_jacobi2d_interior(initial, cfg.nx, cfg.ny_total,
                                         cfg.steps, cfg.boundary);
  EXPECT_LT(max_abs_diff(result.values, ref), 1e-13);
}

TEST(DistJacobi, HaloTrafficScalesWithRowLength) {
  auto run_nx = [&](std::size_t nx) {
    px::dist::distributed_domain dom(dcfg(2));
    dist_jacobi_config cfg;
    cfg.nx = nx;
    cfg.ny_total = 8;
    cfg.steps = 5;
    auto initial = wavy_interior(cfg.nx, cfg.ny_total);
    auto result = run_distributed_jacobi2d(dom, initial, cfg);
    return result.halo_bytes;
  };
  auto const narrow = run_nx(16);
  auto const wide = run_nx(256);
  // Halo rows are nx doubles; the gather/scatter traffic also grows with
  // nx, so wide must be much larger.
  EXPECT_GT(wide, 4 * narrow);
}

TEST(DistJacobi, SimdBlocksMatchScalarBlocksBitwise) {
  // SIMD inside the blocks + parcels between them: results must equal the
  // scalar path bitwise (doubles, same per-element expression).
  dist_jacobi_config cfg;
  cfg.nx = 32;  // lane multiple for every plausible native width
  cfg.ny_total = 21;
  cfg.steps = 12;
  auto initial = wavy_interior(cfg.nx, cfg.ny_total);

  px::dist::distributed_domain dom_scalar(dcfg(3));
  auto scalar = run_distributed_jacobi2d(dom_scalar, initial, cfg);

  cfg.use_simd = true;
  px::dist::distributed_domain dom_simd(dcfg(3));
  auto simd = run_distributed_jacobi2d(dom_simd, initial, cfg);

  ASSERT_EQ(scalar.values.size(), simd.values.size());
  for (std::size_t i = 0; i < scalar.values.size(); ++i)
    ASSERT_EQ(scalar.values[i], simd.values[i]) << i;
}

TEST(DistJacobi, SimdFallsBackWhenRowNotLaneMultiple) {
  dist_jacobi_config cfg;
  cfg.nx = 17;  // never a lane multiple
  cfg.ny_total = 9;
  cfg.steps = 8;
  cfg.use_simd = true;
  auto initial = wavy_interior(cfg.nx, cfg.ny_total);
  px::dist::distributed_domain dom(dcfg(2));
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  auto ref = reference_jacobi2d_interior(initial, cfg.nx, cfg.ny_total,
                                         cfg.steps, cfg.boundary);
  EXPECT_LT(max_abs_diff(result.values, ref), 1e-13);
}

TEST(DistJacobi, CustomBoundaryValue) {
  px::dist::distributed_domain dom(dcfg(2));
  dist_jacobi_config cfg;
  cfg.nx = 8;
  cfg.ny_total = 8;
  cfg.steps = 400;
  cfg.boundary = -2.5;
  std::vector<double> initial(cfg.nx * cfg.ny_total, 0.0);
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  // Long runs converge to the boundary value.
  for (double v : result.values) EXPECT_NEAR(v, -2.5, 1e-3);
}

TEST(DistJacobi, HalosFlushAtStepBoundaryOnCoalescingDomain) {
  // Every step ships its halo rows and flushes the coalescing buffers, so
  // a halo never waits out the buffer's deadline.
  auto c = dcfg(3);
  c.coalescing.enabled = true;
  px::dist::distributed_domain dom(c);
  dist_jacobi_config cfg;
  cfg.nx = 24;
  cfg.ny_total = 30;
  cfg.steps = 40;
  auto initial = wavy_interior(cfg.nx, cfg.ny_total);
  auto const before = px::counters::builtin().net_flushes_explicit.load();
  auto result = run_distributed_jacobi2d(dom, initial, cfg);
  auto const flushes =
      px::counters::builtin().net_flushes_explicit.load() - before;
  auto ref = reference_jacobi2d_interior(initial, cfg.nx, cfg.ny_total,
                                         cfg.steps, cfg.boundary);
  ASSERT_EQ(result.values.size(), ref.size());
  EXPECT_LT(max_abs_diff(result.values, ref), 1e-13);
  EXPECT_GE(flushes, cfg.steps);
}

TEST(DistJacobi, ConcurrentSolvesOnOneDomainStayApart) {
  // Two solves share the localities but not their partitions: each must
  // match its own reference.
  px::dist::distributed_domain dom(dcfg(3));
  dist_jacobi_config cfg;
  cfg.nx = 20;
  cfg.ny_total = 27;
  cfg.steps = 30;
  auto const a = wavy_interior(cfg.nx, cfg.ny_total);
  std::vector<double> b(a.size());
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 - 2.0 * a[i];

  dist_jacobi_result ra, rb;
  std::thread other([&] { rb = run_distributed_jacobi2d(dom, b, cfg); });
  ra = run_distributed_jacobi2d(dom, a, cfg);
  other.join();

  auto const ref_a = reference_jacobi2d_interior(a, cfg.nx, cfg.ny_total,
                                                 cfg.steps, cfg.boundary);
  auto const ref_b = reference_jacobi2d_interior(b, cfg.nx, cfg.ny_total,
                                                 cfg.steps, cfg.boundary);
  ASSERT_EQ(ra.values.size(), ref_a.size());
  ASSERT_EQ(rb.values.size(), ref_b.size());
  EXPECT_LT(max_abs_diff(ra.values, ref_a), 1e-13);
  EXPECT_LT(max_abs_diff(rb.values, ref_b), 1e-13);
}

// ---- cache-blocked variant --------------------------------------------------

struct BlockedTest : ::testing::Test {
  px::runtime rt{[] {
    px::scheduler_config c;
    c.num_workers = 3;
    return c;
  }()};
};

class BlockedBandRows : public BlockedTest,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(BlockedBandRows, BitwiseEqualToPlainKernel) {
  constexpr std::size_t nx = 32, ny = 23, steps = 9;
  field2d<double> p0(nx, ny), p1(nx, ny), b0(nx, ny), b1(nx, ny);
  for (auto* f : {&p0, &p1, &b0, &b1}) init_dirichlet_problem(*f);

  blocked_config bc;
  bc.band_rows = GetParam();
  px::sync_wait(rt, [&] {
    run_jacobi2d(px::execution::par, p0, p1, steps);
    run_jacobi2d_blocked(px::execution::par, b0, b1, steps, bc);
    return 0;
  });
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_EQ(p1.get(x, y), b1.get(x, y))
          << "band=" << GetParam() << " x=" << x << " y=" << y;
}

INSTANTIATE_TEST_SUITE_P(Bands, BlockedBandRows,
                         ::testing::Values(1, 2, 3, 8, 23, 100));

TEST_F(BlockedTest, BlockedWorksWithPackCells) {
  using Cell = px::simd::pack<double, 4>;
  constexpr std::size_t nx = 32, ny = 12, steps = 7;
  field2d<Cell> b0(nx, ny), b1(nx, ny);
  field2d<double> r0(nx, ny), r1(nx, ny);
  for (auto* f : {&r0, &r1}) init_dirichlet_problem(*f);
  init_dirichlet_problem(b0);
  init_dirichlet_problem(b1);
  px::sync_wait(rt, [&] {
    run_jacobi2d_blocked(px::execution::par, b0, b1, steps);
    run_jacobi2d(px::execution::par, r0, r1, steps);
    return 0;
  });
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_EQ(b1.get(x, y), r1.get(x, y));
}

TEST_F(BlockedTest, DerivedBandRowsRespectCacheBudget) {
  field2d<double> f(1024, 8);
  blocked_config bc;
  bc.cache_bytes = 64 * 1024;
  std::size_t const rows = derive_band_rows(f, bc);
  EXPECT_GE(rows, 2u);
  // 4 rows x row bytes must fit the budget (or be clamped to minimum 2).
  if (rows > 2)
    EXPECT_LE(4 * rows * f.row_stride() * sizeof(double), bc.cache_bytes);
}

}  // namespace
