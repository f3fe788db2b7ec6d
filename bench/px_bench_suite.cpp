// px_bench_suite — the px::bench regression suite.
//
// One binary covering the runtime hot paths the paper's overhead analysis
// cares about (task spawn/drain, future round trips, yields, LCO traffic,
// tracing, work stealing, type-erased callables), the layer costs below
// them (fiber switches, parallel-algorithm grain, parcels, SIMD rows) and
// host-scale runs of the fig3 (1D heat) and fig4 (2D Jacobi) kernels.
// Every case is reported through px::bench::runner: ns/op median + MAD
// across PX_BENCH_REPS repetitions and the counter deltas of the timed
// block, written as one px-bench/1 JSON document.
//
//   px_bench_suite --out BENCH_pr5.json
//   px_bench_suite --out now.json --compare BENCH_seed.json --threshold 10
//
// scripts/bench.sh drives it pinned and warm; scripts/check.sh --bench
// runs the --smoke variant as a CI lane. Repetition/warmup counts come
// from PX_BENCH_REPS / PX_BENCH_WARMUP; the run seed from PX_SEED.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include <cstdint>
#include <functional>
#include <numeric>
#include <span>
#include <string>

#include "bench_common.hpp"
#include "jacobi2d_novec.hpp"
#include "px/arch/cluster_sim.hpp"
#include "px/arch/roofline.hpp"
#include "px/arch/stream_bench.hpp"
#include "px/counters/counters.hpp"
#include "px/dist/distributed_domain.hpp"
#include "px/dist/membership.hpp"
#include "px/fibers/fiber.hpp"
#include "px/fibers/stack.hpp"
#include "px/net/fault_plane.hpp"
#include "px/px.hpp"
#include "px/runtime/ws_deque.hpp"
#include "px/serial/archive.hpp"
#include "px/serve/serve.hpp"
#include "px/simd/simd.hpp"
#include "px/stencil/stencil.hpp"

namespace {

int bench_coalesce_sink(px::dist::locality&, int) { return 0; }

int bench_tiny_action(int x) { return x + 1; }

double bench_sum_payload(std::vector<double> v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

std::atomic<std::uint64_t> bench_applied{0};
void bench_count_sink(int) {
  bench_applied.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

PX_REGISTER_ACTION(bench_coalesce_sink)
PX_REGISTER_ACTION(bench_tiny_action)
PX_REGISTER_ACTION(bench_sum_payload)
PX_REGISTER_ACTION(bench_count_sink)

namespace {

using px::bench::runner;
using px::bench::suite_cli;

// All runtime cases use a fixed worker count so reports stay comparable
// across hosts with different core counts.
constexpr std::size_t bench_workers = 4;

px::scheduler_config rt_cfg() {
  px::scheduler_config cfg = px::scheduler_config::from_env();
  cfg.num_workers = bench_workers;
  return cfg;
}

std::vector<std::pair<std::string, std::string>> rt_params(
    std::initializer_list<std::pair<std::string, std::string>> extra = {}) {
  std::vector<std::pair<std::string, std::string>> p{
      {"workers", std::to_string(bench_workers)}};
  p.insert(p.end(), extra.begin(), extra.end());
  return p;
}

// --- micro_runtime --------------------------------------------------------

// The spawn-latency hot path: detached spawn of trivial tasks from inside
// task-land, drained in batches. Steady state exercises the per-worker
// task pool, the stack pool and the local deque; nothing should allocate.
void spawn_latency(px::runtime& rt, std::uint64_t iters) {
  px::sync_wait(rt, [iters] {
    std::atomic<std::uint64_t> done{0};
    constexpr std::uint64_t batch = 256;
    for (std::uint64_t n = 0; n < iters;) {
      std::uint64_t const k = std::min(batch, iters - n);
      for (std::uint64_t i = 0; i < k; ++i)
        px::post([&done] { done.fetch_add(1, std::memory_order_relaxed); });
      n += k;
      while (done.load(std::memory_order_acquire) < n)
        px::this_task::yield();
    }
    return 0;
  });
}

// External submission: post from the calling (non-worker) thread, drain
// via quiescence — the global-queue injection path.
void spawn_drain_external(px::runtime& rt, std::uint64_t iters) {
  std::atomic<std::uint64_t> done{0};
  for (std::uint64_t i = 0; i < iters; ++i)
    rt.post([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  rt.wait_quiescent();
}

void future_roundtrip(px::runtime& rt, std::uint64_t iters) {
  px::sync_wait(rt, [iters] {
    int acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i)
      acc += px::async([] { return 1; }).get();
    return acc;
  });
}

void task_yield(px::runtime& rt, std::uint64_t iters) {
  px::sync_wait(rt, [iters] {
    for (std::uint64_t i = 0; i < iters; ++i) px::this_task::yield();
    return 0;
  });
}

// --- micro_lco ------------------------------------------------------------

void channel_pingpong(px::runtime& rt, std::uint64_t iters) {
  px::channel<int> ping, pong;
  rt.post([&] {
    for (;;) {
      int const v = ping.get();
      if (v < 0) return;
      pong.send(v + 1);
    }
  });
  px::sync_wait(rt, [&] {
    int acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
      ping.send(1);
      acc += pong.get();
    }
    return acc;
  });
  ping.send(-1);
  rt.wait_quiescent();
}

// --- micro_trace ----------------------------------------------------------

// The tracer's record hot path, single producer.
void trace_record_slice(std::uint64_t iters) {
  px::trace::enable();
  for (std::uint64_t i = 0; i < iters; ++i)
    px::trace::record_slice("bench", i, i, 1, 0);
  px::trace::disable();
}

// Tracing under real multi-worker task load: every task slice is recorded
// from its worker. This is the case a global tracer lock serializes.
void trace_task_slices(px::runtime& rt, std::uint64_t iters) {
  px::trace::enable();
  spawn_latency(rt, iters);
  px::trace::disable();
}

// --- micro_support --------------------------------------------------------

// Construction + one invocation of a type-erased callable the size of a
// typical stencil continuation (six captured pointers). Whether this fits
// the unique_function SBO decides one heap allocation per spawn.
void unique_function_six_ptr(std::uint64_t iters) {
  std::uint64_t sink = 0;
  std::uint64_t* p = &sink;
  for (std::uint64_t i = 0; i < iters; ++i) {
    px::unique_function<void()> fn(
        [p, a = p, b = p, c = p, d = p, e = p] {
          *p += reinterpret_cast<std::uintptr_t>(a) != 0;
          (void)b;
          (void)c;
          (void)d;
          (void)e;
        });
    fn();
  }
  if (sink != iters) std::abort();
}

// --- micro_ws_deque -------------------------------------------------------

// Thief-side drain of a loaded deque, the coarse-grain theft path of
// worker::try_steal. (Single-threaded: measures the per-item cost of the
// steal protocol itself, fences and CAS included.)
void ws_deque_steal_drain(std::uint64_t iters) {
  px::rt::ws_deque<int> dq(1024);
  static int cell = 7;
  constexpr std::uint64_t load = 512;
  for (std::uint64_t n = 0; n < iters;) {
    for (std::uint64_t i = 0; i < load; ++i) dq.push(&cell);
    std::uint64_t taken = 0;
    while (taken < load) {
      int* buf[16];
      std::size_t const k = dq.steal_batch(buf, 16);
      if (k == 0) std::abort();
      taken += k;
    }
    n += taken;
  }
}

// --- figure kernels -------------------------------------------------------

// Fig 3's shared-memory building block: the futurized 1D heat solver at
// host-validation scale. ns/op is per point-update.
void fig3_heat1d(px::runtime& rt, std::size_t nx, std::size_t steps) {
  auto const initial = px::stencil::heat1d_sine_initial(nx);
  px::stencil::heat1d_config cfg;
  cfg.nx = nx;
  cfg.steps = steps;
  auto const result = px::sync_wait(rt, [&] {
    return px::stencil::run_heat1d(px::execution::par, initial, cfg);
  });
  if (result.values.size() != nx) std::abort();
}

// Fig 4's kernel: 2D Jacobi (float, auto-vectorized) at host scale.
// ns/op is per lattice-site update.
void fig4_jacobi2d(px::runtime& rt, std::size_t nx, std::size_t ny,
                   std::size_t steps) {
  px::stencil::field2d<float> u0(nx, ny), u1(nx, ny);
  px::stencil::init_dirichlet_problem(u0);
  px::stencil::init_dirichlet_problem(u1);
  auto const result = px::sync_wait(rt, [&] {
    return px::stencil::run_jacobi2d(px::execution::par, u0, u1, steps);
  });
  if (result.steps != steps) std::abort();
}

// --- simd: explicit vectorization vs auto-vectorization (Fig 6-9) ---------
//
// The paper's second-half axis: the same kernels as strictly scalar builds
// (novec, a TU compiled with vectorization off), compiler auto-vectorized
// loops, and explicit px::simd packs in the VNS layout per ABI preset,
// float and double. Every case reports ns/cell through the runner plus its
// roofline position against the STREAM-fitted machine model, published as
// /px/simd/<case>/ gauges that the closing counter snapshot records into
// the case's report row:
//   glups_x1000          best measured GLUP/s across repetitions, x1000
//   frac_peak_min_x1000  glups / expected_peak_min (3 transfers/LUP)
//   frac_peak_max_x1000  glups / expected_peak_max (2, cache blocking)
// The in-binary gate is the acceptance bar of Fig 6-9: the explicit-pack
// build must beat the auto-vectorized build of the fig4 float case on
// best-of-reps GLUP/s — the STREAM rule. Best, not median: the question
// is what the kernel can sustain, and on a small host any sample can eat
// a timeslice of unrelated scheduling noise; the clean samples are the
// kernel, the tail is the OS, and both sides use the same statistic.
// (The double contrast is reported, not gated: at 8-byte lanes the VNS
// win on this host sits inside run-to-run noise and can invert.)

struct simd_case_gauges {
  px::counters::registration reg;
  std::atomic<std::uint64_t> glups_x1000{0};
  std::atomic<std::uint64_t> frac_min_x1000{0};
  std::atomic<std::uint64_t> frac_max_x1000{0};
};

// One simd.* case. `once` runs the kernel and returns measured GLUP/s;
// the return value is the best over all executions (the gate statistic,
// matching the gauges' STREAM-style best-of-reps metric). The gauge
// block is case-local — registered for the runner's closing snapshot, gone
// before the next case — so each report row carries exactly its own three
// /px/simd/ fields (the serve-tenant lifetime idiom).
double simd_case(runner& r, std::string const& name,
                 std::vector<std::pair<std::string, std::string>> params,
                 std::uint64_t lups, px::arch::roofline_window w,
                 std::function<double()> once) {
  simd_case_gauges g;
  std::string const base = "/px/simd/" + name + "/";
  g.reg.add(base + "glups_x1000", px::counters::kind::gauge,
            [&g] { return g.glups_x1000.load(); });
  g.reg.add(base + "frac_peak_min_x1000", px::counters::kind::gauge,
            [&g] { return g.frac_min_x1000.load(); });
  g.reg.add(base + "frac_peak_max_x1000", px::counters::kind::gauge,
            [&g] { return g.frac_max_x1000.load(); });
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", w.peak_min_glups);
  params.emplace_back("peak_min_glups", buf);
  std::snprintf(buf, sizeof buf, "%.4f", w.peak_max_glups);
  params.emplace_back("peak_max_glups", buf);
  std::vector<double> samples;
  r.run(name, std::move(params), lups, [&](std::uint64_t) {
    double const gl = once();
    samples.push_back(gl);
    if (px::arch::ratio_x1000(gl) > g.glups_x1000.load()) {
      g.glups_x1000 = px::arch::ratio_x1000(gl);
      g.frac_min_x1000 = px::arch::ratio_x1000(
          px::arch::roofline_fraction(gl, w.peak_min_glups));
      g.frac_max_x1000 = px::arch::ratio_x1000(
          px::arch::roofline_fraction(gl, w.peak_max_glups));
    }
  });
  std::sort(samples.begin(), samples.end());
  return samples.empty() ? 0.0 : samples.back();
}

template <typename T>
double heat1d_vns_glups(std::vector<T> const& initial, std::size_t steps,
                        px::stencil::vns_abi abi) {
  return px::stencil::with_vns_pack<T>(abi, [&](auto tag) {
    using P = typename decltype(tag)::type;
    px::high_resolution_timer timer;
    auto const out = px::stencil::run_heat1d_vns<T, P::width>(
        std::span<T const>(initial), steps, T(0.25));
    double const sec = timer.elapsed();
    if (out.size() != initial.size()) std::abort();
    double const lups =
        static_cast<double>(initial.size()) * static_cast<double>(steps);
    return sec > 0.0 ? lups / sec / 1e9 : 0.0;
  });
}

template <typename T>
double heat1d_auto_glups(std::vector<T> const& initial, std::size_t steps) {
  px::high_resolution_timer timer;
  auto const out = px::stencil::run_heat1d_autovec<T>(
      std::span<T const>(initial), steps, T(0.25));
  double const sec = timer.elapsed();
  if (out.size() != initial.size()) std::abort();
  double const lups =
      static_cast<double>(initial.size()) * static_cast<double>(steps);
  return sec > 0.0 ? lups / sec / 1e9 : 0.0;
}

template <typename T>
double jacobi3d_glups(px::runtime& rt, px::stencil::field3d<T>& u0,
                      px::stencil::field3d<T>& u1,
                      px::stencil::jacobi3d_config cfg) {
  return px::sync_wait(rt, [&] {
           return px::stencil::run_jacobi3d_blocked(px::execution::par, u0,
                                                    u1, cfg);
         })
      .glups;
}

// Returns false (gate failure) when the explicit-pack fig4 float case does
// not beat the auto-vectorized one on median GLUP/s.
[[nodiscard]] bool simd_vectorization_cases(runner& r, suite_cli const& cli) {
  // Full kernel sizes even under --smoke, like the other stencil cases:
  // ns/cell and roofline fractions only compare at the committed grid.
  (void)cli;
  using px::stencil::vns_abi;
  // Kernel-throughput family: oversubscribing workers past the physical
  // cores turns the per-step fork/join into a scheduler-latency lottery
  // (a chunk parked behind a descheduled spinner costs a timeslice,
  // dwarfing the ~20 us of compute per sweep) and the pack-vs-auto
  // signal drowns in that noise. Clamp this family's runtime to the
  // cores actually present; the other families keep the fixed count for
  // cross-host comparability of scheduler-path numbers.
  px::scheduler_config simd_cfg = rt_cfg();
  if (std::size_t const hw = std::thread::hardware_concurrency();
      hw != 0 && simd_cfg.num_workers > hw)
    simd_cfg.num_workers = hw;
  px::runtime rt(simd_cfg);

  // STREAM-fitted machine model: measure the host's copy bandwidth once
  // (Fig 2 methodology at model-input size, not figure size).
  px::arch::stream_config sc;
  sc.array_elements = 1u << 22;
  sc.repetitions = 5;
  double const bw = px::arch::measure_copy_bandwidth_gbs(rt, sc);
  auto const w32 = px::arch::stencil_roofline(4, bw);
  auto const w64 = px::arch::stencil_roofline(8, bw);
  char bws[32];
  std::snprintf(bws, sizeof bws, "%.2f", bw);

  vns_abi const gate_abi =
      px::stencil::vns_abi_from_env().value_or(vns_abi::native);

  // Like rt_params(), but reporting this family's (possibly clamped)
  // worker count so reports stay honest about the measurement setup.
  auto simd_rt_params =
      [&](std::initializer_list<std::pair<std::string, std::string>>
              extra) {
        std::vector<std::pair<std::string, std::string>> p{
            {"workers", std::to_string(simd_cfg.num_workers)}};
        p.insert(p.end(), extra.begin(), extra.end());
        return p;
      };

  // -- 2D Jacobi, the fig4 problem --------------------------------------
  std::size_t const n2 = 384, steps2 = 20;
  std::uint64_t const lups2 =
      static_cast<std::uint64_t>(n2) * n2 * steps2;
  auto params2 = [&](char const* cell, char const* variant,
                     char const* abi) {
    return simd_rt_params({{"nx", std::to_string(n2)},
                      {"ny", std::to_string(n2)},
                      {"steps", std::to_string(steps2)},
                      {"cell", cell},
                      {"variant", variant},
                      {"abi", abi},
                      {"stream_gbs", bws}});
  };

  simd_case(r, "simd.jacobi2d.f32.novec", params2("float", "novec", "-"),
            lups2, w32, [&] {
              double const sec =
                  pxbench::jacobi2d_novec_seconds_f32(rt, n2, n2, steps2);
              return sec > 0.0 ? static_cast<double>(lups2) / sec / 1e9
                               : 0.0;
            });
  double const f32_auto = simd_case(
      r, "simd.jacobi2d.f32.auto", params2("float", "auto", "-"), lups2,
      w32, [&] {
        return px::sync_wait(rt, [&] {
                 return px::stencil::run_jacobi2d_auto_par_f32(n2, n2,
                                                               steps2);
               })
            .glups;
      });
  double f32_pack_gate = 0.0;
  for (vns_abi a : px::stencil::vns_abi_presets) {
    char const* const an = px::stencil::vns_abi_name(a);
    double const med = simd_case(
        r, std::string("simd.jacobi2d.f32.pack.") + an,
        params2("float", "pack", an), lups2, w32, [&, a] {
          return px::sync_wait(rt, [&] {
                   return px::stencil::run_jacobi2d_vns_par_f32(a, n2, n2,
                                                                steps2);
                 })
              .glups;
        });
    if (a == gate_abi) f32_pack_gate = med;
  }

  simd_case(r, "simd.jacobi2d.f64.novec", params2("double", "novec", "-"),
            lups2, w64, [&] {
              double const sec =
                  pxbench::jacobi2d_novec_seconds_f64(rt, n2, n2, steps2);
              return sec > 0.0 ? static_cast<double>(lups2) / sec / 1e9
                               : 0.0;
            });
  simd_case(r, "simd.jacobi2d.f64.auto", params2("double", "auto", "-"),
            lups2, w64, [&] {
              return px::sync_wait(rt, [&] {
                       return px::stencil::run_jacobi2d_auto_par_f64(
                           n2, n2, steps2);
                     })
                  .glups;
            });
  for (vns_abi a : px::stencil::vns_abi_presets) {
    char const* const an = px::stencil::vns_abi_name(a);
    simd_case(r, std::string("simd.jacobi2d.f64.pack.") + an,
              params2("double", "pack", an), lups2, w64, [&, a] {
                return px::sync_wait(rt, [&] {
                         return px::stencil::run_jacobi2d_vns_par_f64(
                             a, n2, n2, steps2);
                       })
                    .glups;
              });
  }

  // -- 1D heat, VNS row kernel (serial: the per-partition inner loop) ----
  std::size_t const nh = 1u << 16, hsteps = 50;
  std::uint64_t const lupsh = static_cast<std::uint64_t>(nh) * hsteps;
  auto paramsh = [&](char const* cell, char const* variant,
                     char const* abi) {
    return std::vector<std::pair<std::string, std::string>>{
        {"nx", std::to_string(nh)},
        {"steps", std::to_string(hsteps)},
        {"cell", cell},
        {"variant", variant},
        {"abi", abi},
        {"stream_gbs", bws}};
  };
  auto const init_d = px::stencil::heat1d_sine_initial(nh);
  std::vector<float> const init_f(init_d.begin(), init_d.end());

  simd_case(r, "simd.heat1d_vns.f32.auto", paramsh("float", "auto", "-"),
            lupsh, w32,
            [&] { return heat1d_auto_glups(init_f, hsteps); });
  simd_case(r, "simd.heat1d_vns.f64.auto", paramsh("double", "auto", "-"),
            lupsh, w64,
            [&] { return heat1d_auto_glups(init_d, hsteps); });
  for (vns_abi a : px::stencil::vns_abi_presets) {
    char const* const an = px::stencil::vns_abi_name(a);
    simd_case(r, std::string("simd.heat1d_vns.f32.pack.") + an,
              paramsh("float", "pack", an), lupsh, w32,
              [&, a] { return heat1d_vns_glups(init_f, hsteps, a); });
    simd_case(r, std::string("simd.heat1d_vns.f64.pack.") + an,
              paramsh("double", "pack", an), lupsh, w64,
              [&, a] { return heat1d_vns_glups(init_d, hsteps, a); });
  }

  // -- 3D 7-point, cache-blocked (ARM-SVE stencil paper) -----------------
  std::size_t const n3 = 96, steps3 = 4;
  std::uint64_t const lups3 =
      static_cast<std::uint64_t>(n3) * n3 * n3 * steps3;
  px::stencil::jacobi3d_config cfg3 =
      px::stencil::jacobi3d_config::from_env({});
  cfg3.steps = steps3;
  auto params3 = [&](char const* cell, char const* variant) {
    return simd_rt_params({{"nx", std::to_string(n3)},
                      {"ny", std::to_string(n3)},
                      {"nz", std::to_string(n3)},
                      {"steps", std::to_string(steps3)},
                      {"block_x", std::to_string(cfg3.block_x)},
                      {"block_y", std::to_string(cfg3.block_y)},
                      {"block_z", std::to_string(cfg3.block_z)},
                      {"cell", cell},
                      {"variant", variant},
                      {"stream_gbs", bws}});
  };
  {
    px::stencil::field3d<float> u0(n3, n3, n3), u1(n3, n3, n3);
    px::stencil::init_dirichlet_problem3d(u0);
    px::stencil::init_dirichlet_problem3d(u1);
    px::stencil::jacobi3d_config c = cfg3;
    simd_case(r, "simd.jacobi3d_blocked.f32.auto", params3("float", "auto"),
              lups3, w32,
              [&] { return jacobi3d_glups(rt, u0, u1, c); });
    c.explicit_simd = true;
    simd_case(r, "simd.jacobi3d_blocked.f32.pack", params3("float", "pack"),
              lups3, w32,
              [&] { return jacobi3d_glups(rt, u0, u1, c); });
  }
  {
    px::stencil::field3d<double> u0(n3, n3, n3), u1(n3, n3, n3);
    px::stencil::init_dirichlet_problem3d(u0);
    px::stencil::init_dirichlet_problem3d(u1);
    px::stencil::jacobi3d_config c = cfg3;
    simd_case(r, "simd.jacobi3d_blocked.f64.auto",
              params3("double", "auto"), lups3, w64,
              [&] { return jacobi3d_glups(rt, u0, u1, c); });
    c.explicit_simd = true;
    simd_case(r, "simd.jacobi3d_blocked.f64.pack",
              params3("double", "pack"), lups3, w64,
              [&] { return jacobi3d_glups(rt, u0, u1, c); });
  }

  if (f32_pack_gate > f32_auto) return true;
  std::fprintf(stderr,
               "FAIL simd.jacobi2d: explicit pack (abi %s) best %.3f "
               "GLUP/s does not beat the auto-vectorized build's %.3f\n",
               px::stencil::vns_abi_name(gate_abi), f32_pack_gate,
               f32_auto);
  return false;
}

// --- net: parcel coalescing -----------------------------------------------

// Many tiny fire-and-forget parcels from locality 0 to locality 1 on an
// accounting-only fabric (injection_scale 0). ns/op is the per-parcel send
// cost, but the real regression signal is in the counter rows:
// /px/net/frames_on_wire vs /px/net/coalesced_parcels shows how many
// logical parcels ride each wire frame, and /px/net/modeled_ns the
// alpha-beta cost of the frames actually sent. The off/coalesce/compress
// variants make the deltas directly comparable in --compare runs, and an
// in-binary gate fails the suite (exit 1) when coalescing stops giving at
// least a 5x frames-on-wire reduction — so scripts/check.sh --bench and
// scripts/bench.sh trip on a frames-on-wire regression even before the
// ns/op comparison runs.
px::dist::domain_config net_cfg(bool coalesce, bool compress) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.coalescing.enabled = coalesce;
  cfg.coalescing.compress = compress;
  return cfg;
}

void many_small_parcels(px::dist::distributed_domain& dom,
                        std::uint64_t parcels) {
  dom.run([parcels](px::dist::locality& loc0) {
    for (std::uint64_t i = 0; i < parcels; ++i)
      loc0.apply<&bench_coalesce_sink>(1, static_cast<int>(i));
    return 0;
  });
  // Step boundary: drain the tail batch instead of waiting out the
  // deadline flush, exactly as the solvers do between time steps.
  dom.flush_coalescing();
  dom.wait_all_quiescent();
}

// Returns false (gate failure) when the coalescing-on variant does not cut
// frames-on-wire per parcel by at least 5x against the off variant.
[[nodiscard]] bool net_coalescing_cases(runner& r, suite_cli const& cli) {
  struct variant {
    char const* name;
    bool coalesce;
    bool compress;
  };
  variant const vs[] = {
      {"net.many_small_parcels.off", false, false},
      {"net.many_small_parcels.coalesce", true, false},
      {"net.many_small_parcels.compress", true, true},
  };
  double frames_per_parcel[3] = {0.0, 0.0, 0.0};
  std::size_t vi = 0;
  for (auto const& v : vs) {
    px::dist::distributed_domain dom(net_cfg(v.coalesce, v.compress));
    auto& b = px::counters::builtin();
    std::uint64_t frames = 0;   // summed over warmup + timed repetitions
    std::uint64_t parcels = 0;  // (the ratio is what the gate needs)
    r.run(v.name,
          {{"localities", "2"},
           {"coalesce", v.coalesce ? "on" : "off"},
           {"compress", v.compress ? "on" : "off"}},
          cli.scaled(1 << 12), [&](std::uint64_t n) {
            std::uint64_t const f0 = b.net_frames_on_wire.load();
            many_small_parcels(dom, n);
            frames += b.net_frames_on_wire.load() - f0;
            parcels += n;
          });
    frames_per_parcel[vi++] =
        static_cast<double>(frames) / static_cast<double>(parcels);
  }
  double const off = frames_per_parcel[0];
  double const on = frames_per_parcel[1];
  if (on > 0.0 && off >= 5.0 * on) return true;
  std::fprintf(stderr,
               "FAIL net.many_small_parcels: coalescing reduced frames/"
               "parcel only %.3f -> %.3f (< 5x)\n",
               off, on);
  return false;
}

// --- net: partition heal --------------------------------------------------

// A checkpointed 5-locality heat solve rides out a deliberate {0,1,2}|{3,4}
// cut that heals well inside the confirm threshold. ns/op (per
// point-update) prices the outage — reliability RTOs stall the cross-cut
// halo exchanges until the heal — and the counter rows show the membership
// machinery at work (/px/membership/*, /px/resilience/*,
// /px/net/retransmits). The in-binary gate is the PR's recovery property:
// quorum membership must ride out the cut WITHOUT a full-domain restart —
// zero confirm-kills, zero rollback-replay rounds, the answer bitwise
// identical to a fault-free run, and every fence cleared after heal.
px::dist::domain_config partition_heal_cfg() {
  px::dist::domain_config cfg;
  cfg.num_localities = 5;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  cfg.reliability.initial_backoff_us = 1'000.0;
  cfg.reliability.backoff_multiplier = 2.0;
  cfg.reliability.max_backoff_us = 50'000.0;
  cfg.reliability.max_retries = 64;
  cfg.resilience.enabled = true;
  cfg.resilience.heartbeat_interval_us = 2'000.0;
  cfg.resilience.suspect_after_us = 100'000.0;
  cfg.resilience.confirm_after_us = 600'000.0;
  return cfg;
}

// Returns false (gate failure) when recovery needed more than the heal:
// any confirm-kill, any rollback-replay round, a bitwise divergence from
// the fault-free baseline, or a fence that survives the heal.
[[nodiscard]] bool net_partition_heal_cases(runner& r, suite_cli const& cli) {
  // Full problem size even under --smoke: the cut window (50 ms in,
  // 250 ms held) must land mid-solve, so the solve cannot shrink.
  (void)cli;
  auto const initial = px::stencil::heat1d_sine_initial(151);
  px::stencil::dist_heat_config hc;
  hc.steps = 300;
  hc.checkpoint_interval = 25;

  // Fault-free baseline on the same 5-locality topology.
  std::vector<double> baseline;
  {
    px::dist::domain_config clean = partition_heal_cfg();
    clean.reliability = {};
    clean.resilience.enabled = false;
    px::dist::distributed_domain dom(clean);
    baseline =
        px::stencil::run_distributed_heat1d(dom, initial, hc).values;
    dom.wait_all_quiescent();
  }

  bool ok = true;
  px::dist::distributed_domain dom(partition_heal_cfg());
  auto& b = px::counters::builtin();
  r.run("net.partition_heal",
        {{"localities", "5"},
         {"nx", std::to_string(initial.size())},
         {"steps", std::to_string(hc.steps)},
         {"checkpoint_interval", std::to_string(hc.checkpoint_interval)},
         {"cut", "{0,1,2}|{3,4} @50ms for 250ms"}},
        static_cast<std::uint64_t>(initial.size()) * hc.steps,
        [&](std::uint64_t) {
          std::uint64_t const confirms0 = b.resilience_confirms.load();
          std::thread cutter([&dom] {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
            px::net::partition_spec spec;
            spec.side_a = {0, 1, 2};
            spec.side_b = {3, 4};
            dom.fabric().faults().partition_now(spec);
            std::this_thread::sleep_for(std::chrono::milliseconds(250));
            dom.fabric().faults().heal_all_partitions();
          });
          px::stencil::dist_heat_result out;
          try {
            out = px::stencil::run_distributed_heat1d(dom, initial, hc);
          } catch (...) {
            cutter.join();
            throw;
          }
          cutter.join();
          if (b.resilience_confirms.load() != confirms0 ||
              out.recoveries != 0 || !(out.values == baseline))
            ok = false;
          // Fences from this repetition must clear before the next one
          // partitions the same domain again.
          auto const deadline =
              std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (dom.membership().any_fenced() &&
                 std::chrono::steady_clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          if (dom.membership().any_fenced()) ok = false;
        });
  dom.wait_all_quiescent();
  if (ok) return true;
  std::fprintf(stderr,
               "FAIL net.partition_heal: a healed sub-confirm partition "
               "required more than the heal to recover (confirm-kill, "
               "rollback, bitwise divergence, or a stuck fence)\n");
  return false;
}

// --- AGAS: zipf-skewed heat under the load-driven rebalancer --------------

// Skewed placement of zipf-sized partitions overloads the low localities;
// the px::agas rebalancer migrates hot partitions off them at round
// boundaries. Two-part case, in the MODEL + HOST VALIDATION mold:
//
//   HOST VALIDATION — the live 4-locality solver runs both variants on an
//   accounting-only fabric. ns/op (per point-update) and the counter
//   deltas (/px/agas/migrations et al.) are the report rows; correctness
//   (static never migrates, rebalance does and cuts the measured
//   imbalance, both answers bitwise identical) feeds the gate. Wall time
//   is NOT compared: the in-process virtual cluster time-slices the host's
//   cores, so placement cannot change real round time on a small CI box.
//
//   MODEL GATE — the 256-node skewed-cluster model (the runtime's own
//   plan_moves as planner, zipf head stacked by blocked placement) must
//   show rebalance beating static placement on modeled p99 step time.
//   Deterministic, so a planner regression trips it exactly.
px::dist::domain_config skewed_heat_dom_cfg() {
  px::dist::domain_config cfg;
  cfg.num_localities = 4;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  return cfg;
}

// p99 over per-step modeled times: every round contributes
// steps_per_round equal samples.
[[nodiscard]] double model_p99_step_s(std::vector<double> const& rounds,
                                      std::uint64_t steps_per_round) {
  std::vector<double> v;
  v.reserve(rounds.size() * steps_per_round);
  for (double s : rounds)
    for (std::uint64_t k = 0; k < steps_per_round; ++k) v.push_back(s);
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = (v.size() * 99 + 99) / 100;  // ceil(0.99 n)
  idx = idx == 0 ? 0 : idx - 1;
  return v[std::min(idx, v.size() - 1)];
}

// Returns false (gate failure) when the live run migrates wrongly (static
// variant moved, rebalanced variant didn't, imbalance not reduced, or the
// two answers disagree bitwise), or when the 256-node model's rebalanced
// p99 step time fails to beat static placement.
[[nodiscard]] bool agas_skewed_heat_cases(runner& r, suite_cli const& cli) {
  // Full problem size even under --smoke, like the stencil cases: the
  // per-point ns/op only compares against the committed baseline at the
  // same grid.
  (void)cli;
  auto const initial = px::stencil::heat1d_sine_initial(1u << 12);
  px::stencil::skewed_heat_config hc;
  hc.partitions = 32;
  hc.steps = 48;
  hc.steps_per_round = 4;
  hc.zipf_s = 1.1;
  hc.compute_cost = 50;

  struct variant {
    char const* name;
    bool rebalance;
  };
  variant const vs[] = {
      {"agas.skewed_heat.static", false},
      {"agas.skewed_heat.rebalance", true},
  };
  std::uint64_t migrations[2] = {0, 0};
  double imbalance_final[2] = {0.0, 0.0};
  std::vector<double> values[2];
  std::size_t vi = 0;
  for (auto const& v : vs) {
    px::dist::distributed_domain dom(skewed_heat_dom_cfg());
    px::stencil::skewed_heat_config cfg = hc;
    cfg.rebalance = v.rebalance;
    r.run(v.name,
          {{"localities", "4"},
           {"nx", std::to_string(initial.size())},
           {"partitions", std::to_string(hc.partitions)},
           {"steps", std::to_string(hc.steps)},
           {"steps_per_round", std::to_string(hc.steps_per_round)},
           {"zipf_s", "1.1"},
           {"compute_cost", std::to_string(hc.compute_cost)},
           {"rebalance", v.rebalance ? "on" : "off"}},
          static_cast<std::uint64_t>(initial.size()) * hc.steps,
          [&](std::uint64_t) {
            auto out = px::stencil::run_skewed_heat1d(dom, initial, cfg);
            if (out.values.size() != initial.size()) std::abort();
            migrations[vi] += out.migrations;
            imbalance_final[vi] = out.imbalance_final;
            values[vi] = std::move(out.values);
          });
    dom.wait_all_quiescent();
    ++vi;
  }
  if (migrations[0] != 0 || migrations[1] == 0) {
    std::fprintf(stderr,
                 "FAIL agas.skewed_heat: expected 0 static / >0 "
                 "rebalanced migrations, got %llu / %llu\n",
                 static_cast<unsigned long long>(migrations[0]),
                 static_cast<unsigned long long>(migrations[1]));
    return false;
  }
  if (!(imbalance_final[1] < imbalance_final[0])) {
    std::fprintf(stderr,
                 "FAIL agas.skewed_heat: rebalancing left imbalance at "
                 "%.3f (static %.3f)\n",
                 imbalance_final[1], imbalance_final[0]);
    return false;
  }
  if (!(values[0] == values[1])) {
    std::fprintf(stderr,
                 "FAIL agas.skewed_heat: rebalanced answer diverged "
                 "bitwise from static placement\n");
    return false;
  }

  // MODEL GATE: p99 step time at 256 virtual localities.
  auto const m = px::arch::a64fx();
  auto const fab = px::arch::fabric_for(m);
  double p99_s[2] = {0.0, 0.0};
  for (int reb = 0; reb < 2; ++reb) {
    px::arch::skewed_cluster_config mc;
    mc.nodes = 256;
    mc.partitions = 1024;
    mc.rounds = 128;
    mc.steps_per_round = 8;
    mc.placement = px::arch::skewed_placement::blocked;
    mc.rebalance = reb != 0;
    mc.policy.max_moves_per_pass = 16;
    auto const res = px::arch::simulate_skewed_cluster(m, fab, mc);
    p99_s[reb] = model_p99_step_s(res.round_step_s, mc.steps_per_round);
  }
  if (p99_s[1] < p99_s[0]) return true;
  std::fprintf(stderr,
               "FAIL agas.skewed_heat: modeled 256-node rebalanced p99 "
               "step time %.3f ms does not beat static %.3f ms\n",
               p99_s[1] * 1e3, p99_s[0] * 1e3);
  return false;
}

// --- px::serve: latency under open-loop load ------------------------------

// One tenant on a wfq pool receives arrival-clocked spin jobs at a fixed
// offered rate; the timed block is the full open loop plus drain. ns/op
// mostly tracks the arrival clock (~1e9/rate past the last arrival), so
// the real signal is the tenant's p99_ns gauge: the runner's closing
// counter snapshot records it into the case's counter row, and sweeping
// the rate emits the p99-vs-offered-load curve in the px-bench/1 JSON.
// The _noadmit contrast point (cap effectively removed) shows the
// unbounded tail growth that admission control turns into rejections.
void serve_open_loop(px::serve::server& sv, px::serve::tenant_id id,
                     double rate_hz, std::uint64_t jobs) {
  px::serve::open_loop_config ol;
  ol.rate_hz = rate_hz;
  ol.jobs = jobs;
  ol.request.kind = px::serve::job_kind::spin;
  ol.request.size = 100'000;  // ~hundreds of us/job: 4 workers saturate
  ol.request.steps = 4;       // in the low tens of kilojobs per second
  (void)px::serve::run_open_loop(sv, id, ol);
  sv.drain();
}

void serve_latency_cases(runner& r, suite_cli const& cli) {
  px::scheduler_config cfg = rt_cfg();
  cfg.policy_name = "wfq";
  px::runtime rt(cfg);
  struct point {
    char const* name;    // bench case, also the tenant/counter name suffix
    double rate_hz;
    std::size_t cap;     // max_in_flight (admission)
  };
  point const pts[] = {
      {"serve.p99_load.r1k", 1'000.0, 64},
      {"serve.p99_load.r4k", 4'000.0, 64},
      {"serve.p99_load.r16k", 16'000.0, 64},
      {"serve.p99_load_noadmit.r16k", 16'000.0, std::size_t{1} << 30},
  };
  for (auto const& p : pts) {
    // Fresh server (and tenant counter window) per load point; the server
    // outlives r.run so the closing snapshot still sees its gauges.
    px::serve::server sv(rt);
    px::serve::tenant_config tc;
    tc.name = std::string(p.name).substr(6);  // strip the "serve." prefix
    tc.max_in_flight = p.cap;
    auto const id = sv.add_tenant(tc);
    r.run(p.name,
          rt_params({{"policy", "wfq"},
                     {"rate_hz", std::to_string(
                                     static_cast<std::uint64_t>(p.rate_hz))},
                     {"max_in_flight", std::to_string(p.cap)},
                     {"spin_size", "100000"}}),
          cli.scaled(512),
          [&](std::uint64_t n) { serve_open_loop(sv, id, p.rate_hz, n); });
  }
}

// --- layer micro cases ----------------------------------------------------
//
// The per-layer costs below the scheduler hot paths above: fiber
// substrate, LCOs, parallel algorithms, parcels and the SIMD row layer.
// One op is one iteration of the measured operation; every body checks a
// sum or count of what it did, so the compiler cannot delete the work.

// --- micro_fiber ----------------------------------------------------------

constexpr std::size_t fiber_stack_bytes = 128 * 1024;

void fiber_cases(runner& r, suite_cli const& cli) {
  {
    px::fibers::stack_pool pool(fiber_stack_bytes);
    r.run("micro_fiber.stack_pool_acquire_recycle", {},
          cli.scaled(1 << 20), [&](std::uint64_t n) {
            std::uint64_t got = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              auto const s = pool.acquire();
              got += s.limit != nullptr;
              pool.recycle(s);
            }
            if (got != n) std::abort();
          });
  }
  // The unpooled cost the pool avoids.
  r.run("micro_fiber.stack_mmap_roundtrip", {}, cli.scaled(1 << 12),
        [](std::uint64_t n) {
          std::uint64_t got = 0;
          for (std::uint64_t i = 0; i < n; ++i) {
            auto const s = px::fibers::allocate_stack(fiber_stack_bytes);
            got += s.limit != nullptr;
            px::fibers::release_stack(s);
          }
          if (got != n) std::abort();
        });
  {
    px::fibers::stack_pool pool(fiber_stack_bytes);
    r.run("micro_fiber.create_run_recycle", {}, cli.scaled(1 << 17),
          [&](std::uint64_t n) {
            std::uint64_t ran = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              auto const s = pool.acquire();
              px::fibers::fiber f(s, [&ran] { ++ran; });
              f.resume();
              pool.recycle(s);
            }
            if (ran != n) std::abort();
          });
  }
  // One op = one resume + one suspend (two context switches).
  r.run("micro_fiber.context_switch", {}, cli.scaled(1 << 20),
        [](std::uint64_t n) {
          auto const s = px::fibers::allocate_stack(fiber_stack_bytes);
          {
            std::uint64_t spins = 0;
            bool stop = false;
            px::fibers::fiber* self = nullptr;
            px::fibers::fiber f(s, [&] {
              while (!stop) {
                ++spins;
                self->suspend_to_owner();
              }
            });
            self = &f;
            for (std::uint64_t i = 0; i < n; ++i) f.resume();
            stop = true;
            f.resume();  // lets the entry return
            if (!f.finished() || spins != n) std::abort();
          }
          px::fibers::release_stack(s);
        });
}

// --- micro_runtime / micro_lco: suspension and LCO primitives -------------

void lco_cases(runner& r, suite_cli const& cli) {
  px::runtime rt(rt_cfg());

  r.run("micro_runtime.ready_future_then", rt_params(), cli.scaled(1 << 16),
        [&](std::uint64_t n) {
          std::uint64_t const acc = px::sync_wait(rt, [n] {
            std::uint64_t a = 0;
            for (std::uint64_t i = 0; i < n; ++i)
              a += static_cast<std::uint64_t>(
                  px::make_ready_future(1)
                      .then([](px::future<int> x) { return x.get() + 1; })
                      .get());
            return a;
          });
          if (acc != 2 * n) std::abort();
        });

  // One op = 16 posted count_downs and the wait that joins them.
  constexpr std::ptrdiff_t latch_parties = 16;
  r.run("micro_runtime.latch_countdown",
        rt_params({{"parties", std::to_string(latch_parties)}}),
        cli.scaled(1 << 12), [&](std::uint64_t n) {
          px::sync_wait(rt, [n] {
            for (std::uint64_t i = 0; i < n; ++i) {
              px::latch l(latch_parties);
              for (std::ptrdiff_t k = 0; k < latch_parties; ++k)
                px::post([&l] { l.count_down(); });
              l.wait();
              if (!l.try_wait()) std::abort();
            }
            return 0;
          });
        });

  r.run("micro_runtime.mutex_uncontended", rt_params(), cli.scaled(1 << 18),
        [&](std::uint64_t n) {
          px::sync_wait(rt, [n] {
            px::mutex m;
            for (std::uint64_t i = 0; i < n; ++i) {
              m.lock();
              m.unlock();
            }
            if (!m.try_lock()) std::abort();  // every unlock landed
            m.unlock();
            return 0;
          });
        });

  // Every party arrives exactly n times, so phases pair by construction.
  for (std::size_t const parties : {std::size_t{2}, std::size_t{4}}) {
    r.run("micro_lco.barrier_cycle.p" + std::to_string(parties),
          rt_params({{"parties", std::to_string(parties)}}),
          cli.scaled(1 << 12), [&](std::uint64_t n) {
            px::barrier bar(parties);
            std::atomic<std::uint64_t> arrivals{0};
            for (std::size_t p = 1; p < parties; ++p)
              rt.post([&bar, &arrivals, n] {
                for (std::uint64_t i = 0; i < n; ++i) bar.arrive_and_wait();
                arrivals.fetch_add(n);
              });
            px::sync_wait(rt, [&bar, &arrivals, n] {
              for (std::uint64_t i = 0; i < n; ++i) bar.arrive_and_wait();
              arrivals.fetch_add(n);
              return 0;
            });
            rt.wait_quiescent();
            if (arrivals.load() != parties * n) std::abort();
          });
  }

  r.run("micro_lco.semaphore_acquire_release", rt_params(),
        cli.scaled(1 << 18), [&](std::uint64_t n) {
          px::sync_wait(rt, [n] {
            px::counting_semaphore sem(1);
            for (std::uint64_t i = 0; i < n; ++i) {
              sem.acquire();
              sem.release();
            }
            // The count is back at exactly one.
            if (!sem.try_acquire() || sem.try_acquire()) std::abort();
            return 0;
          });
        });

  r.run("micro_lco.event_set_wait_reset", rt_params(), cli.scaled(1 << 18),
        [&](std::uint64_t n) {
          px::sync_wait(rt, [n] {
            px::event ev;
            std::uint64_t seen = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              ev.set();
              ev.wait();
              seen += ev.is_set();
              ev.reset();
            }
            if (seen != n || ev.is_set()) std::abort();
            return 0;
          });
        });

  r.run("micro_lco.sliding_semaphore_window", rt_params({{"window", "4"}}),
        cli.scaled(1 << 18), [&](std::uint64_t n) {
          px::sync_wait(rt, [n] {
            px::sliding_semaphore sem(4, -1);
            auto const steps = static_cast<std::int64_t>(n);
            for (std::int64_t t = 0; t < steps; ++t) {
              sem.wait(t);
              sem.signal(t);
            }
            if (sem.signalled() != steps - 1) std::abort();
            return 0;
          });
        });

  // The raw suspension round trip: a task parks on an event, another sets
  // it — two scheduler hops per op.
  r.run("micro_lco.suspend_resume_roundtrip", rt_params(),
        cli.scaled(1 << 13), [&](std::uint64_t n) {
          px::sync_wait(rt, [n] {
            std::uint64_t woken = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
              px::event ev;
              px::post([&ev, &woken] {
                ++woken;
                ev.set();
              });
              ev.wait();
            }
            if (woken != n) std::abort();
            return 0;
          });
        });
}

// --- micro_parallel: grain size, reduction, executor placement -------------

// One op = one x += 1 sweep over v; the closing sum proves every chunk of
// every sweep ran.
constexpr std::size_t sweep_elems = 1 << 16;

template <typename Sweep>
void counted_sweeps(std::vector<double>& v, std::uint64_t n, Sweep sweep) {
  double const before = std::accumulate(v.begin(), v.end(), 0.0);
  for (std::uint64_t i = 0; i < n; ++i) sweep();
  double const after = std::accumulate(v.begin(), v.end(), 0.0);
  if (after - before != static_cast<double>(n * v.size())) std::abort();
}

void parallel_cases(runner& r, suite_cli const& cli) {
  px::runtime rt(rt_cfg());
  std::vector<double> v(sweep_elems, 1.0);
  auto bump = [](double& x) { x += 1.0; };
  auto const elems = std::to_string(sweep_elems);

  // Chunk sizes from pathological (tiny grain: contention-dominated, the
  // A64FX concern of §VII-B) to coarse.
  for (std::size_t const chunk : {256, 1024, 4096, 16384, 65536}) {
    r.run("micro_parallel.for_each.chunk" + std::to_string(chunk),
          rt_params({{"n", elems}, {"chunk", std::to_string(chunk)}}),
          cli.scaled(1 << 9), [&](std::uint64_t n) {
            px::sync_wait(rt, [&] {
              counted_sweeps(v, n, [&] {
                px::parallel::for_each(px::execution::par.with(chunk),
                                       v.begin(), v.end(), bump);
              });
              return 0;
            });
          });
  }

  r.run("micro_parallel.for_each_seq", {{"n", elems}}, cli.scaled(1 << 11),
        [&](std::uint64_t n) {
          counted_sweeps(v, n, [&] {
            px::parallel::for_each(px::execution::seq, v.begin(), v.end(),
                                   bump);
          });
        });

  {
    px::block_executor ex(rt);
    auto const policy = px::execution::par.on(ex);
    r.run("micro_parallel.block_executor_for_loop", rt_params({{"n", elems}}),
          cli.scaled(1 << 9), [&](std::uint64_t n) {
            px::sync_wait(rt, [&] {
              counted_sweeps(v, n, [&] {
                px::parallel::for_loop(policy, std::size_t{0}, v.size(),
                                       [&](std::size_t i) { v[i] += 1.0; });
              });
              return 0;
            });
          });
  }

  for (std::size_t const len : {std::size_t{1} << 14, std::size_t{1} << 18}) {
    std::vector<double> const halves(len, 0.5);
    r.run("micro_parallel.reduce.n" + std::to_string(len >> 10) + "k",
          rt_params({{"n", std::to_string(len)}}),
          cli.scaled((std::uint64_t{1} << 25) / len), [&](std::uint64_t n) {
            double const acc = px::sync_wait(rt, [&] {
              double a = 0.0;
              for (std::uint64_t i = 0; i < n; ++i)
                a += px::parallel::reduce(px::execution::par, halves.begin(),
                                          halves.end(), 0.0, std::plus<>{});
              return a;
            });
            if (acc != 0.5 * static_cast<double>(len * n)) std::abort();
          });
  }
}

// --- micro_parcel: action round trips, serialization, fire-and-forget -----

void parcel_cases(runner& r, suite_cli const& cli) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 1;
  cfg.injection_scale = 0.0;  // software cost, not the modeled wire
  px::dist::distributed_domain dom(cfg);
  auto params = [](std::initializer_list<
                    std::pair<std::string, std::string>> extra = {}) {
    std::vector<std::pair<std::string, std::string>> p{{"localities", "2"},
                                                       {"workers", "1"}};
    p.insert(p.end(), extra.begin(), extra.end());
    return p;
  };

  r.run("micro_parcel.action_roundtrip.tiny", params({{"payload", "4"}}),
        cli.scaled(1 << 12), [&](std::uint64_t n) {
          std::uint64_t const acc = dom.run([n](px::dist::locality& loc0) {
            std::uint64_t a = 0;
            for (std::uint64_t i = 0; i < n; ++i)
              a += static_cast<std::uint64_t>(
                  loc0.call<&bench_tiny_action>(1, 7).get());
            return a;
          });
          if (acc != 8 * n) std::abort();
        });

  // payload = bytes of the std::vector<double> argument.
  struct payload_point {
    char const* name;
    std::size_t elems;
    std::uint64_t iters;
  };
  for (auto const& p : {payload_point{"64B", 8, 1 << 12},
                        payload_point{"8KiB", 1 << 10, 1 << 11},
                        payload_point{"512KiB", 1 << 16, 1 << 7}}) {
    std::vector<double> const payload(p.elems, 1.0);
    r.run(std::string("micro_parcel.action_roundtrip.") + p.name,
          params({{"payload", std::to_string(p.elems * sizeof(double))}}),
          cli.scaled(p.iters), [&](std::uint64_t n) {
            double const acc = dom.run([&](px::dist::locality& loc0) {
              double a = 0.0;
              for (std::uint64_t i = 0; i < n; ++i)
                a += loc0.call<&bench_sum_payload>(1, payload).get();
              return a;
            });
            if (acc != static_cast<double>(p.elems * n)) std::abort();
          });
  }

  for (std::size_t const elems : {std::size_t{1} << 10, std::size_t{1} << 16}) {
    std::vector<double> const v(elems, 1.5);
    std::size_t const bytes = px::serial::to_bytes(v).size();
    if (bytes < elems * sizeof(double)) std::abort();
    r.run("micro_parcel.serialize_vector." +
              std::to_string(elems * sizeof(double) >> 10) + "KiB",
          {{"payload", std::to_string(elems * sizeof(double))}},
          cli.scaled((std::uint64_t{1} << 24) / elems), [&](std::uint64_t n) {
            std::uint64_t total = 0;
            for (std::uint64_t i = 0; i < n; ++i)
              total += px::serial::to_bytes(v).size();
            if (total != bytes * n) std::abort();
          });
  }

  r.run("micro_parcel.apply_fire_and_forget", params(), cli.scaled(1 << 13),
        [&](std::uint64_t n) {
          std::uint64_t const before = bench_applied.load();
          dom.run([n](px::dist::locality& loc0) {
            for (std::uint64_t i = 0; i < n; ++i)
              loc0.apply<&bench_count_sink>(1, 1);
            return 0;
          });
          dom.wait_all_quiescent();
          if (bench_applied.load() - before != n) std::abort();
        });
  dom.wait_all_quiescent();
}

// --- micro_simd: the library's row kernel, seams and row layout -----------

constexpr std::size_t simd_row_scalars = 8192;

// px::stencil::jacobi2d_row_kernel on one row of simd_row_scalars. Inputs
// up = 1, mid = 2, down = 3 make 2 a fixed point, so mid and out swap
// every op (each op reads the last op's output) and the closing sum is
// exact.
template <typename Cell>
void row_kernel_case(runner& r, suite_cli const& cli, std::string const& name,
                     char const* cell) {
  using T = px::simd::get_type_t<Cell>;
  constexpr std::size_t lanes = px::simd::lane_count_v<Cell>;
  std::size_t const cells = simd_row_scalars / lanes;
  using row = std::vector<Cell, px::aligned_allocator<Cell, 64>>;
  row const up(cells + 2, Cell(T(1))), down(cells + 2, Cell(T(3)));
  row a(cells + 2, Cell(T(2))), b(cells + 2, Cell(T(2)));
  r.run(name,
        {{"cell", cell},
         {"lanes", std::to_string(lanes)},
         {"nx", std::to_string(simd_row_scalars)}},
        cli.scaled(1 << 14), [&](std::uint64_t n) {
          Cell* mid = a.data();
          Cell* out = b.data();
          for (std::uint64_t i = 0; i < n; ++i) {
            px::stencil::jacobi2d_row_kernel<Cell>(up.data(), mid, down.data(),
                                                   out, cells);
            std::swap(mid, out);
          }
          T sum = T(0);
          for (std::size_t s = 1; s <= cells; ++s) {
            if constexpr (lanes == 1)
              sum += mid[s];
            else
              sum += px::simd::reduce_add(mid[s]);
          }
          if (sum != T(2) * T(simd_row_scalars)) std::abort();
        });
}

// One op = one left and one right VNS seam of an edge pack, with a ghost
// that changes every op; each lane sums at most 14 per op, exact in float
// at the case's op counts.
template <typename P>
void halo_shuffle_case(runner& r, suite_cli const& cli,
                       std::string const& name) {
  using T = typename P::value_type;
  r.run(name, {{"lanes", std::to_string(P::width)}}, cli.scaled(1 << 18),
        [&](std::uint64_t n) {
          P const edge(T(7));
          P acc(T(0));
          std::uint64_t ghosts = 0;
          for (std::uint64_t i = 0; i < n; ++i) {
            T const ghost = T(i & 7);
            ghosts += i & 7;
            acc = acc + px::simd::vns::left_seam(edge, ghost) +
                  px::simd::vns::right_seam(edge, ghost);
          }
          double got = 0.0;
          for (std::size_t l = 0; l < P::width; ++l)
            got += static_cast<double>(acc[l]);
          double const want = 2.0 * static_cast<double>(ghosts) +
                              14.0 * static_cast<double>(P::width - 1) *
                                  static_cast<double>(n);
          if (got != want) std::abort();
        });
}

// field2d::assign_row + read_row on a pack field: one VNS encode and one
// decode of a row of 1024 packs, the layout conversion of every
// jacobi2d_vns solve.
template <typename P>
void vns_layout_case(runner& r, suite_cli const& cli, std::string const& name,
                     char const* cell) {
  using T = typename P::value_type;
  constexpr std::size_t rows = 8;
  constexpr std::size_t nx = P::width * 1024;
  px::stencil::field2d<P> f(px::execution::seq, nx, rows);
  // Values below 64 keep every partial sum exact in float.
  std::vector<T> src(nx + 2);
  for (std::size_t x = 0; x < src.size(); ++x) src[x] = T(x & 63);
  std::vector<T> back(nx);
  T const want = std::accumulate(src.begin() + 1, src.end() - 1, T(0));
  r.run(name,
        {{"cell", cell},
         {"lanes", std::to_string(P::width)},
         {"nx", std::to_string(nx)}},
        cli.scaled(1 << 13), [&](std::uint64_t n) {
          for (std::uint64_t i = 0; i < n; ++i) {
            std::size_t const y = 1 + i % rows;
            f.assign_row(y, src.data());
            f.read_row(y, back.data());
          }
          if (std::accumulate(back.begin(), back.end(), T(0)) != want)
            std::abort();
        });
}

void simd_layer_cases(runner& r, suite_cli const& cli) {
  using px::simd::pack;
  row_kernel_case<float>(r, cli, "micro_simd.row_kernel.f32.scalar", "float");
  row_kernel_case<double>(r, cli, "micro_simd.row_kernel.f64.scalar",
                          "double");
  row_kernel_case<pack<float, 4>>(r, cli, "micro_simd.row_kernel.f32.pack4",
                                  "float");
  row_kernel_case<pack<float, 8>>(r, cli, "micro_simd.row_kernel.f32.pack8",
                                  "float");
  row_kernel_case<pack<float, 16>>(r, cli, "micro_simd.row_kernel.f32.pack16",
                                   "float");
  row_kernel_case<pack<double, 2>>(r, cli, "micro_simd.row_kernel.f64.pack2",
                                   "double");
  row_kernel_case<pack<double, 4>>(r, cli, "micro_simd.row_kernel.f64.pack4",
                                   "double");
  row_kernel_case<pack<double, 8>>(r, cli, "micro_simd.row_kernel.f64.pack8",
                                   "double");
  halo_shuffle_case<pack<float, 8>>(r, cli, "micro_simd.halo_shuffle.f32x8");
  halo_shuffle_case<pack<double, 8>>(r, cli, "micro_simd.halo_shuffle.f64x8");
  vns_layout_case<pack<float, 8>>(r, cli, "micro_simd.vns_layout.f32x8",
                                  "float");
  vns_layout_case<pack<double, 4>>(r, cli, "micro_simd.vns_layout.f64x4",
                                   "double");
}

}  // namespace

int main(int argc, char** argv) {
  auto const cli = px::bench::parse_suite_cli(argc, argv);
  if (!cli) return 2;

  px::bench::print_header(
      "px::bench — runtime hot-path regression suite",
      "ns/op median + MAD across PX_BENCH_REPS repetitions; counter "
      "deltas per case (schema px-bench/1)");

  px::bench::runner_options opts = px::bench::runner_options::from_env();
  opts.run_seed = rt_cfg().seed;
  // The serve load-sweep cases report their per-tenant tail latency
  // through the registry; record those gauges into the report rows. The
  // simd.* cases publish their roofline position the same way.
  opts.gauge_prefixes.push_back("/px/tenant/");
  opts.gauge_prefixes.push_back("/px/simd/");
  runner r(opts);

  {
    px::runtime rt(rt_cfg());
    r.run("micro_runtime.spawn_latency", rt_params({{"batch", "256"}}),
          cli->scaled(1 << 15),
          [&](std::uint64_t n) { spawn_latency(rt, n); });
    r.run("micro_runtime.spawn_drain_external", rt_params(),
          cli->scaled(1 << 13),
          [&](std::uint64_t n) { spawn_drain_external(rt, n); });
    r.run("micro_runtime.future_roundtrip", rt_params(),
          cli->scaled(1 << 12),
          [&](std::uint64_t n) { future_roundtrip(rt, n); });
    r.run("micro_runtime.yield", rt_params(), cli->scaled(1 << 16),
          [&](std::uint64_t n) { task_yield(rt, n); });
    r.run("micro_lco.channel_pingpong", rt_params(), cli->scaled(1 << 12),
          [&](std::uint64_t n) { channel_pingpong(rt, n); });
    r.run("micro_trace.task_slices", rt_params(), cli->scaled(1 << 14),
          [&](std::uint64_t n) { trace_task_slices(rt, n); });
  }
  r.run("micro_trace.record_slice", {}, cli->scaled(1 << 16),
        [](std::uint64_t n) { trace_record_slice(n); });
  r.run("micro_support.unique_function_six_ptr", {}, cli->scaled(1 << 17),
        [](std::uint64_t n) { unique_function_six_ptr(n); });
  r.run("micro_ws_deque.steal_drain", {{"batch", "16"}},
        cli->scaled(1 << 15),
        [](std::uint64_t n) { ws_deque_steal_drain(n); });

  {
    px::runtime rt(rt_cfg());
    // Stencils keep the full problem size even under --smoke (a run is
    // only a few ms): ns/cell shifts with the grid size as per-sweep
    // overheads amortize differently, so a shrunken smoke grid would not
    // be comparable against the committed full-size baseline.
    std::size_t const nx1 = 1u << 16;
    std::size_t const steps1 = 20;
    r.run("fig3.heat1d", rt_params({{"nx", std::to_string(nx1)},
                                    {"steps", std::to_string(steps1)}}),
          static_cast<std::uint64_t>(nx1) * steps1,
          [&](std::uint64_t) { fig3_heat1d(rt, nx1, steps1); });

    std::size_t const n2 = 384;
    std::size_t const steps2 = 20;
    r.run("fig4.jacobi2d",
          rt_params({{"nx", std::to_string(n2)},
                     {"ny", std::to_string(n2)},
                     {"steps", std::to_string(steps2)},
                     {"cell", "float"}}),
          static_cast<std::uint64_t>(n2) * n2 * steps2,
          [&](std::uint64_t) { fig4_jacobi2d(rt, n2, n2, steps2); });
  }

  bool const simd_gate_ok = simd_vectorization_cases(r, *cli);

  bool const coalesce_gate_ok = net_coalescing_cases(r, *cli);

  bool const partition_gate_ok = net_partition_heal_cases(r, *cli);

  bool const agas_gate_ok = agas_skewed_heat_cases(r, *cli);

  serve_latency_cases(r, *cli);

  fiber_cases(r, *cli);
  lco_cases(r, *cli);
  parallel_cases(r, *cli);
  parcel_cases(r, *cli);
  simd_layer_cases(r, *cli);

  int const rc = px::bench::finalize_suite(r, *cli);
  // The in-binary gates (explicit-pack beats auto-vectorized fig4,
  // coalescing frames-on-wire, partition-heal recovery without restart,
  // rebalance-beats-static round tail) fail the lane even when every
  // ns/op comparison passed.
  if (!simd_gate_ok || !coalesce_gate_ok || !partition_gate_ok ||
      !agas_gate_ok)
    return 1;
  return rc;
}
