// Ablation: cache blocking (§VII-B). A64FX and ThunderX2 get the 3->2
// transfers/LUP reduction "for free" from long cache lines; short-line
// machines must implement it. This bench shows (1) the modeled effect —
// what each paper machine would gain if the kernel were blocked — and
// (2) a real host comparison of three traversals: one plain sweep per
// step, spatially banded sweeps (run_jacobi2d_blocked) and temporally
// blocked passes that advance several steps per trip to DRAM
// (run_jacobi2d).
#include <cstdio>
#include <type_traits>

#include "bench_common.hpp"
#include "px/px.hpp"
#include "px/stencil/stencil.hpp"
#include "px/support/env.hpp"

namespace {

enum class traversal { per_step, banded, temporal };

// One row-parallel sweep per step, composed from the row update: the
// plain traversal, three grid transfers per update on short-line hosts.
template <typename Cell>
double per_step_glups(px::stencil::field2d<Cell>& u0,
                      px::stencil::field2d<Cell>& u1, std::size_t steps) {
  px::stencil::field2d<Cell>* grids[2] = {&u0, &u1};
  px::high_resolution_timer timer;
  for (std::size_t t = 0; t < steps; ++t) {
    auto const& curr = *grids[t % 2];
    auto& next = *grids[(t + 1) % 2];
    px::parallel::for_loop(px::execution::par, 1, u0.ny() + 1,
                           [&](std::size_t y) {
                             px::stencil::jacobi2d_row_update(curr, next, y);
                           });
  }
  return static_cast<double>(u0.nx() * u0.ny() * steps) / timer.elapsed() /
         1e9;
}

template <typename Cell>
double host_run(px::runtime& rt, traversal how, std::size_t nx,
                std::size_t ny, std::size_t steps) {
  using namespace px::stencil;
  field2d<Cell> u0(nx, ny), u1(nx, ny);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  return px::sync_wait(rt, [&] {
    switch (how) {
      case traversal::per_step:
        return per_step_glups(u0, u1, steps);
      case traversal::banded:
        return run_jacobi2d_blocked(px::execution::par, u0, u1, steps)
            .glups;
      case traversal::temporal:
      default:
        return run_jacobi2d(px::execution::par, u0, u1, steps).glups;
    }
  }) * 1e3;
}

}  // namespace

int main() {
  using namespace px::arch;
  px::bench::print_header(
      "ABLATION — cache blocking of the 2D stencil",
      "Modeled 2-vs-3-transfer effect per machine + real banded traversal "
      "on the host.");

  std::printf("modeled full-node expected peak (float, GLUP/s): 3 "
              "transfers vs 2 transfers\n");
  for (auto const& m : paper_machines()) {
    stencil2d_model model(m);
    std::size_t const c = m.total_cores();
    double const pmin = model.expected_peak_min_glups(c, 4);
    double const pmax = model.expected_peak_max_glups(c, 4);
    std::printf("  %-12s %8.2f -> %8.2f  (+%.0f%%)  %s\n",
                m.short_name.c_str(), pmin, pmax,
                100.0 * (pmax / pmin - 1.0),
                m.inherent_cache_blocking
                    ? "inherent (long cache lines)"
                    : "requires software blocking");
  }
  std::printf("\nThe +50%% column is the paper's \"49%% performance "
              "boost\" (§VII-B).\n");

  // Real comparison. On hosts whose last-level cache already holds three
  // grid rows the per-step and banded traversals tie — the paper's
  // assumption; the banded version matters when rows outgrow the cache.
  // The temporally blocked passes cut DRAM traffic per step further, by
  // the pass depth, once the grid outgrows the last-level cache.
  std::size_t const nx = px::env_size("PX_NX").value_or(2048);
  std::size_t const ny = px::env_size("PX_NY").value_or(512);
  std::size_t const steps = px::env_size("PX_STEPS").value_or(10);
  px::runtime rt{px::scheduler_config{}};
  std::printf("\nhost %zux%zu, %zu steps (MLUP/s):\n", nx, ny, steps);
  auto row = [&](char const* type, auto tag) {
    using Cell = typename decltype(tag)::type;
    double const plain = host_run<Cell>(rt, traversal::per_step, nx, ny,
                                        steps);
    double const banded = host_run<Cell>(rt, traversal::banded, nx, ny,
                                         steps);
    double const temporal = host_run<Cell>(rt, traversal::temporal, nx, ny,
                                           steps);
    std::printf("  %-6s per-step %8.0f | banded %8.0f (%.2fx) | "
                "temporal %8.0f (%.2fx)\n",
                type, plain, banded, banded / plain, temporal,
                temporal / plain);
  };
  row("float", std::type_identity<float>{});
  row("double", std::type_identity<double>{});
  return 0;
}
