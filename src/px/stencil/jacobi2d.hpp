// px/stencil/jacobi2d.hpp
// The paper's 2D benchmark: a shared-memory Jacobi solver (Eq. 4, 5-point
// stencil) written once, generically, over scalar or pack cells — the
// structure of Listing 2. Row bands are distributed over px tasks; each
// row update performs the branch-free 5-point stencil and, for pack fields,
// shuffles its halos. Sweeps are temporally blocked: one pass over the grid
// advances several time steps through cache-resident scratch rows.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "px/parallel/algorithms.hpp"
#include "px/stencil/field2d.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {

// One row of the 5-point Jacobi update on raw storage rows: out[s] for s
// in [1, cells] from the rows above (`up`), at (`mid`) and below (`down`).
// The one kernel of both sweep forms below.
template <typename Cell>
void jacobi2d_row_kernel(Cell const* up, Cell const* mid, Cell const* down,
                         Cell* out, std::size_t cells) noexcept {
  using scalar = simd::get_type_t<Cell>;
  scalar const quarter = scalar(0.25);
#pragma GCC unroll 4
  for (std::size_t s = 1; s <= cells; ++s) {
    out[s] = (mid[s - 1] + mid[s + 1] + up[s] + down[s]) * Cell(quarter);
  }
}

// One row of the 5-point Jacobi update: next(s,y) from curr's neighbours.
// `y` is a storage row index in [1, ny]. Mirrors stencil_update of
// Listing 2 (including the trailing halo shuffle for SIMD containers).
template <typename Cell>
void jacobi2d_row_update(field2d<Cell> const& curr, field2d<Cell>& next,
                         std::size_t y) noexcept {
  jacobi2d_row_kernel(curr.row(y - 1), curr.row(y), curr.row(y + 1),
                      next.row(y), curr.cells());
  next.refresh_row_halos(y);
}

struct jacobi2d_result {
  double seconds = 0.0;
  double glups = 0.0;  // giga lattice-site updates per second
  std::size_t steps = 0;
  // Which buffer of the ping-pong pair holds the final state (0 or 1).
  std::size_t final_index = 0;
};

namespace detail {

// Per-worker cache budget of a temporally blocked pass: the scratch rows
// that hold its intermediate time levels.
inline constexpr std::size_t temporal_scratch_bytes = std::size_t{1} << 20;

// Time steps one pass over the grid advances: the largest odd depth whose
// 3 * (depth - 1) scratch rows fit temporal_scratch_bytes and whose band
// overlap stays small (depth - 1 <= band_rows / 8). Odd, so that every
// pass flips the ping-pong pair; 1 is the plain per-step sweep.
[[nodiscard]] inline std::size_t temporal_depth(std::size_t row_bytes,
                                                std::size_t band_rows) {
  std::size_t const lag =
      std::min(temporal_scratch_bytes / (3 * row_bytes), band_rows / 8);
  return lag - lag % 2 + 1;
}

// Advances storage rows [lo, hi) by `depth` steps, from curr into next.
// Level 0 is curr, level `depth` is next; level k needs rows
// [lo - (depth - k), hi + (depth - k)) clipped to the interior, so
// neighbouring bands recompute their overlap instead of exchanging it. A
// lagged wavefront computes row i - (k - 1) of every level k at step i, so
// intermediate level k only ever needs its last three rows: a ring in
// `scratch` (3 * (depth - 1) rows of row_stride() cells), row y in slot
// y % 3. Every row goes through the per-step kernel and halo refresh, so
// the result is bitwise that of `depth` single sweeps; depth 1 is exactly
// the per-step sweep of the band.
template <typename Cell>
void jacobi2d_band_pass(field2d<Cell> const& curr, field2d<Cell>& next,
                        std::size_t lo, std::size_t hi, std::size_t depth,
                        Cell* scratch) noexcept {
  std::size_t const ny = curr.ny();
  std::size_t const stride = curr.row_stride();
  auto ring = [&](std::size_t k, std::size_t y) {
    return scratch + ((k - 1) * 3 + y % 3) * stride;
  };
  // Level k's row y; the boundary rows are the same at every level.
  auto level_row = [&](std::size_t k, std::size_t y) -> Cell const* {
    return k == 0 || y == 0 || y == ny + 1 ? curr.row(y) : ring(k, y);
  };
  std::size_t const first = lo > depth - 1 ? lo - (depth - 1) : 1;
  for (std::size_t i = first; i < hi + depth - 1; ++i) {
    for (std::size_t k = 1; k <= depth; ++k) {
      std::size_t const reach = depth - k;
      std::size_t const lo_k = lo > reach ? lo - reach : 1;
      if (i + 1 < lo_k + k) break;  // this and every later level wait
      std::size_t const y = i + 1 - k;
      if (y >= std::min(ny + 1, hi + reach)) continue;
      Cell* const out = k == depth ? next.row(y) : ring(k, y);
      jacobi2d_row_kernel(level_row(k - 1, y - 1), level_row(k - 1, y),
                          level_row(k - 1, y + 1), out, curr.cells());
      if (k == depth)
        next.refresh_row_halos(y);
      else
        next.refresh_row_halos(out, y);
    }
  }
}

// A pass's decomposition: the row bands (one task each under par, all
// rows under seq) and the scheduler whose workers each own a scratch slot.
struct band_plan {
  rt::scheduler* sched = nullptr;
  std::size_t bands = 1;
  std::size_t slots = 1;
};

inline band_plan plan_bands(execution::sequenced_policy, std::size_t) {
  return {};
}

inline band_plan plan_bands(execution::parallel_policy const& policy,
                            std::size_t ny) {
  parallel::detail::bulk_plan const plan =
      parallel::detail::plan_bulk(policy, ny);
  return {plan.sched, plan.num_chunks, plan.sched->num_workers()};
}

// f(lo, hi, slot) for each band of storage rows [lo, hi) in [1, ny].
template <typename F>
void for_bands(execution::sequenced_policy, band_plan const&, std::size_t ny,
               F f) {
  f(std::size_t{1}, ny + 1, std::size_t{0});
}

// A band task never suspends, so a worker runs one band at a time and its
// index names a scratch slot no other running band uses. A single band
// runs inline on the caller, which may belong to another scheduler: slot 0.
template <typename F>
void for_bands(execution::parallel_policy const& policy,
               band_plan const& plan, std::size_t ny, F f) {
  parallel::detail::bulk_run(
      policy, *plan.sched, ny, plan.bands,
      [&](std::size_t lo, std::size_t hi, std::size_t) {
        rt::worker* const w = rt::worker::current();
        std::size_t const slot =
            w != nullptr && &w->owner() == plan.sched ? w->index() : 0;
        PX_ASSERT_DEBUG(slot < plan.slots);
        f(1 + lo, 1 + hi, slot);
      });
}

// The bands of a pass and the depth they allow.
struct pass_plan {
  band_plan bands;
  std::size_t depth = 1;
};

template <typename Cell, typename Policy>
[[nodiscard]] pass_plan plan_passes(Policy const& policy,
                                    field2d<Cell> const& f) {
  band_plan const bands = plan_bands(policy, f.ny());
  return {bands, temporal_depth(f.row_stride() * sizeof(Cell),
                                f.ny() / bands.bands)};
}

}  // namespace detail

// Time steps one pass of run_jacobi2d(policy, f, ...) advances; 1 when
// the grid, its bands or its rows leave no room for temporal blocking.
template <typename Cell, typename Policy>
[[nodiscard]] std::size_t jacobi2d_pass_depth(Policy const& policy,
                                              field2d<Cell> const& f) {
  return detail::plan_passes(policy, f).depth;
}

// Runs `steps` Jacobi sweeps over the ping-pong pair U[0]/U[1] (U[0] holds
// the initial state; both fields must have identical shape and boundary
// values). Returns timing in the hpx::util::high_resolution_timer style of
// Listing 2.
//
// The sweeps are temporally blocked: each pass over the grid is one
// fork/join over row bands that advances detail::temporal_depth steps
// (see jacobi2d_band_pass), so DRAM sees one read and one write of the
// grid per pass instead of per step. Depths are odd — a remainder r below
// the depth runs as one pass, or as (r - 1) + 1 when r is even — so
// final_index is steps % 2 as for single sweeps, and the final state is
// bitwise that of `steps` single sweeps. The other buffer holds the state
// at the start of the last pass, not necessarily step steps - 1.
template <typename Cell, typename Policy>
jacobi2d_result run_jacobi2d(Policy const& policy, field2d<Cell>& u0,
                             field2d<Cell>& u1, std::size_t steps) {
  PX_ASSERT(u0.nx() == u1.nx() && u0.ny() == u1.ny());
  field2d<Cell>* grids[2] = {&u0, &u1};
  std::size_t const ny = u0.ny();
  detail::pass_plan const plan = detail::plan_passes(policy, u0);
  std::size_t const depth = plan.depth;
  std::size_t const slot_cells = 3 * (depth - 1) * u0.row_stride();
  std::vector<Cell, default_init_allocator<aligned_allocator<Cell, 64>>>
      scratch(plan.bands.slots * slot_cells);

  high_resolution_timer timer;
  std::size_t passes = 0;
  for (std::size_t done = 0; done < steps; ++passes) {
    std::size_t const left = steps - done;
    std::size_t const d =
        left >= depth ? depth : (left % 2 == 1 ? left : left - 1);
    field2d<Cell> const& curr = *grids[passes % 2];
    field2d<Cell>& next = *grids[(passes + 1) % 2];
    detail::for_bands(policy, plan.bands, ny,
                      [&](std::size_t lo, std::size_t hi, std::size_t slot) {
                        detail::jacobi2d_band_pass(
                            curr, next, lo, hi, d,
                            scratch.data() + slot * slot_cells);
                      });
    done += d;
  }
  jacobi2d_result res;
  res.seconds = timer.elapsed();
  res.steps = steps;
  res.final_index = passes % 2;  // == steps % 2: every depth is odd
  double const lups = static_cast<double>(u0.nx()) *
                      static_cast<double>(ny) * static_cast<double>(steps);
  res.glups = res.seconds > 0.0 ? lups / res.seconds / 1e9 : 0.0;
  return res;
}

// Builds the benchmark's initial condition: zero interior with unit
// Dirichlet boundaries on all four edges (a well-conditioned Laplace
// problem whose solution converges toward 1 everywhere).
template <typename Cell>
void init_dirichlet_problem(field2d<Cell>& f) {
  using scalar = typename field2d<Cell>::scalar;
  for (std::size_t y = 0; y < f.ny(); ++y) {
    f.set_left_boundary(y, scalar(1));
    f.set_right_boundary(y, scalar(1));
  }
  for (std::size_t x = 0; x < f.nx(); ++x) {
    f.set_top_boundary(x, scalar(1));
    f.set_bottom_boundary(x, scalar(1));
  }
  f.refresh_all_halos();
}

// Copies a scalar field's interior and boundaries into a field of the same
// scalar type (e.g. scalar -> pack) so both start from identical state: one
// assign_row per storage row (a VNS encode for pack fields), the rows spread
// over `policy`.
template <typename Policy, typename Cell>
void copy_problem(Policy const& policy, field2d<Cell>& dst,
                  field2d<simd::get_type_t<Cell>> const& src) {
  PX_ASSERT(dst.nx() == src.nx() && dst.ny() == src.ny());
  detail::for_rows(policy, dst.ny() + 2, dst.row_stride() * sizeof(Cell),
                   [&](std::size_t y) { dst.assign_row(y, src.row(y)); });
}

template <typename Cell>
void copy_problem(field2d<Cell>& dst,
                  field2d<simd::get_type_t<Cell>> const& src) {
  copy_problem(detail::ambient_policy{}, dst, src);
}

// Copies only src's Dirichlet boundaries: both ghost rows (with their
// halos) and every row's column ghosts. The interior rows' cells and halos
// keep their values — for the second buffer of a ping-pong pair, whose
// first sweep writes every interior cell (padding lanes included) and
// refreshes those halos before anything reads them.
template <typename Cell>
void copy_boundaries(field2d<Cell>& dst,
                     field2d<simd::get_type_t<Cell>> const& src) {
  PX_ASSERT(dst.nx() == src.nx() && dst.ny() == src.ny());
  dst.assign_row(0, src.row(0));
  dst.assign_row(dst.ny() + 1, src.row(dst.ny() + 1));
  for (std::size_t y = 0; y < dst.ny(); ++y) {
    dst.set_left_boundary(y, src.left_boundary(y));
    dst.set_right_boundary(y, src.right_boundary(y));
  }
}

}  // namespace px::stencil
