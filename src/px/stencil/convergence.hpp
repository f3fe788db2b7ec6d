// px/stencil/convergence.hpp
// Residual computation and tolerance-driven Jacobi solving. The paper runs
// fixed 100-step sweeps (kernel benchmarking); a production solver iterates
// to a residual target — provided here on top of the same kernels.
//
// Residual: r = max_{x,y} |u - 0.25*(uW + uE + uN + uS)|, the max-norm
// defect of the Jacobi fixed point, computed with a parallel
// transform_reduce over rows.
#pragma once

#include "px/parallel/algorithms.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"

namespace px::stencil {

// Max-norm Jacobi defect of the current field state.
template <typename Cell, typename Policy>
double jacobi2d_residual(Policy const& policy, field2d<Cell> const& f) {
  using scalar = typename field2d<Cell>::scalar;
  std::size_t const ny = f.ny();
  std::size_t const cells = f.cells();

  std::vector<double> row_max(ny, 0.0);
  parallel::for_loop(policy, 1, ny + 1, [&](std::size_t y) {
    Cell const* const up = f.row(y - 1);
    Cell const* const mid = f.row(y);
    Cell const* const down = f.row(y + 1);
    double worst = 0.0;
    for (std::size_t s = 1; s <= cells; ++s) {
      Cell const stencil_value =
          (mid[s - 1] + mid[s + 1] + up[s] + down[s]) * Cell(scalar(0.25));
      Cell const defect = mid[s] - stencil_value;
      if constexpr (field2d<Cell>::vectorized) {
        worst = std::max(
            worst, static_cast<double>(px::simd::reduce_max(
                       px::simd::abs(defect))));
      } else {
        worst = std::max(worst, std::abs(static_cast<double>(defect)));
      }
    }
    row_max[y - 1] = worst;
  });
  double r = 0.0;
  for (double v : row_max) r = std::max(r, v);
  return r;
}

struct converged_result {
  double seconds = 0.0;
  double residual = 0.0;
  std::size_t sweeps = 0;
  bool converged = false;
  std::size_t final_index = 0;  // which ping-pong buffer holds the result
};

// Sweeps until the residual drops below `tolerance` or `max_sweeps` is
// exhausted. The residual is evaluated every `check_every` sweeps (a full
// extra pass over the grid — checking each sweep would halve throughput);
// each batch in between is one temporally blocked run_jacobi2d.
template <typename Cell, typename Policy>
converged_result solve_jacobi2d_to_tolerance(Policy const& policy,
                                             field2d<Cell>& u0,
                                             field2d<Cell>& u1,
                                             double tolerance,
                                             std::size_t max_sweeps,
                                             std::size_t check_every = 16) {
  PX_ASSERT(tolerance > 0.0 && check_every >= 1);
  field2d<Cell>* grids[2] = {&u0, &u1};
  converged_result res;
  high_resolution_timer timer;

  while (res.sweeps < max_sweeps) {
    std::size_t const batch =
        std::min(check_every, max_sweeps - res.sweeps);
    run_jacobi2d(policy, *grids[res.sweeps % 2],
                 *grids[(res.sweeps + 1) % 2], batch);
    res.sweeps += batch;
    res.residual =
        jacobi2d_residual(policy, *grids[res.sweeps % 2]);
    if (res.residual <= tolerance) {
      res.converged = true;
      break;
    }
  }
  res.seconds = timer.elapsed();
  res.final_index = res.sweeps % 2;
  return res;
}

}  // namespace px::stencil
