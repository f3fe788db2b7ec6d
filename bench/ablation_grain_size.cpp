// Ablation: task grain size on the 2D stencil. §VII-B: "Like every AMT
// model, HPX is known to have contention overheads when the grain size is
// too small" — the A64FX investigation that motivated Fig 7. This bench
// sweeps rows-per-task on the real kernel and reports throughput plus the
// scheduler's own counters (tasks, steals), showing where scheduling
// overhead eats the kernel. Bands of 16 rows or more also let
// run_jacobi2d block several steps per pass; the steps/pass column shows
// where that starts.
#include <cstdio>
#include <utility>

#include "bench_common.hpp"
#include "px/px.hpp"
#include "px/stencil/stencil.hpp"
#include "px/support/env.hpp"

int main() {
  using namespace px::stencil;
  px::bench::print_header(
      "ABLATION — task grain size (rows per task) on the 2D stencil",
      "Small grains expose AMT scheduling overhead; large grains starve "
      "the pool. The sweet spot depends on rows x row-cost vs spawn cost.");

  std::size_t const nx = px::env_size("PX_NX").value_or(1024);
  std::size_t const ny = px::env_size("PX_NY").value_or(256);
  std::size_t const steps = px::env_size("PX_STEPS").value_or(30);

  px::runtime rt{px::scheduler_config{}};
  std::printf("grid %zux%zu, %zu steps, %zu workers\n\n", nx, ny, steps,
              rt.num_workers());
  std::printf("rows/task |  tasks/pass | steps/pass | MLUP/s  | tasks total "
              "| steals\n");
  std::printf("----------+-------------+------------+---------+-------------"
              "+-------\n");

  for (std::size_t rows_per_task : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    if (rows_per_task > ny) break;
    field2d<float> u0(nx, ny), u1(nx, ny);
    init_dirichlet_problem(u0);
    init_dirichlet_problem(u1);
    auto const policy = px::execution::par.with(rows_per_task);
    auto const before = rt.stats();
    auto const [result, depth] = px::sync_wait(rt, [&] {
      return std::make_pair(run_jacobi2d(policy, u0, u1, steps),
                            jacobi2d_pass_depth(policy, u0));
    });
    auto const after = rt.stats();
    std::printf("%9zu | %11zu | %10zu | %7.0f | %11llu | %llu\n",
                rows_per_task, (ny + rows_per_task - 1) / rows_per_task,
                depth, result.glups * 1e3,
                static_cast<unsigned long long>(after.tasks_executed -
                                                before.tasks_executed),
                static_cast<unsigned long long>(after.steals -
                                                before.steals));
  }
  std::printf("\n(The paper's Fig 7 asks the same question at node scale: "
              "growing the grid 1.5x on A64FX bought nothing, so grains "
              "were already large enough.)\n");
  return 0;
}
