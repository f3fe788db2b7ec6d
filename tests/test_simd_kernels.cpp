// Tests for the explicitly vectorized stencil kernels: padded VNS
// encode/decode round-trips at arbitrary (odd) row lengths, the seam
// rotations against a scalar neighbour gather on random rows, the
// ABI-preset 2D Jacobi runners against the serial reference and the
// auto-vectorized solver, the temporally blocked sweep at every preset
// (bitwise against a per-step loop, one fork/join per pass), the
// row-parallel layout conversion (field zero-fill, copy_problem /
// interior_snapshot against the per-element path, boundaries-only second
// buffer, no tasks under seq), the VNS 1D heat
// kernel, unaligned pack ops at odd offsets, and the cache-blocked 3D
// Jacobi (reference agreement, block-shape invariance, env knobs, and a
// seed sweep in the torture lane).
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "jacobi2d_per_step.hpp"
#include "px/px.hpp"
#include "px/stencil/reference.hpp"
#include "px/torture/forall.hpp"
#include "px/stencil/stencil.hpp"

namespace {

using px::simd::pack;
using px_test::random_problem;
using px_test::same_storage;
using namespace px::stencil;

using simd_native_f32 = px::simd::abi::native<float>;

px::scheduler_config cfg3() {
  px::scheduler_config c;
  c.num_workers = 3;
  return c;
}

// ---- padded VNS encode/decode -------------------------------------------

TEST(VnsPadded, PacksForIsCeilDiv) {
  namespace vns = px::simd::vns;
  EXPECT_EQ(vns::packs_for(1, 4), 1u);
  EXPECT_EQ(vns::packs_for(4, 4), 1u);
  EXPECT_EQ(vns::packs_for(5, 4), 2u);
  EXPECT_EQ(vns::packs_for(8, 4), 2u);
  EXPECT_EQ(vns::packs_for(17, 16), 2u);
  EXPECT_EQ(vns::packs_for(33, 8), 5u);
}

template <std::size_t W>
void padded_round_trip_case(std::size_t n, std::uint64_t seed) {
  namespace vns = px::simd::vns;
  using P = pack<double, W>;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-4.0, 4.0);
  std::vector<double> src(n);
  for (auto& v : src) v = dist(rng);

  std::size_t const nv = vns::packs_for(n, W);
  double const pad = -77.5;
  std::vector<P> packs(nv);
  vns::encode_padded(std::span<double const>(src), packs.data(), nv, pad);

  // Every real scalar sits at its canonical VNS coordinate; every padding
  // position holds the pad value.
  for (std::size_t x = 0; x < W * nv; ++x) {
    double const got = packs[vns::slot_of(x, nv)].v[vns::lane_of(x, nv)];
    if (x < n) {
      ASSERT_EQ(got, src[x]) << "n=" << n << " W=" << W << " x=" << x;
    } else {
      ASSERT_EQ(got, pad) << "n=" << n << " W=" << W << " x=" << x;
    }
  }

  std::vector<double> out(n, 0.0);
  vns::decode_padded(packs.data(), std::span<double>(out), nv);
  ASSERT_EQ(out, src) << "n=" << n << " W=" << W;
}

TEST(VnsPadded, EncodeDecodeRoundTripArbitrarySizes) {
  std::uint64_t seed = 0x5eed;
  for (std::size_t n : {1, 2, 3, 5, 7, 9, 15, 17, 31, 33, 51, 63, 65}) {
    padded_round_trip_case<4>(n, seed++);
    padded_round_trip_case<8>(n, seed++);
    padded_round_trip_case<16>(n, seed++);
  }
}

// ---- seam orientation vs scalar neighbour gather ------------------------

// Property: for a random row s[0..W*nv), the pack-level neighbour scheme
// (whole-pack neighbours plus left_seam/right_seam at the segment seams)
// must deliver, lane for lane, exactly the scalars a serial gather of
// s[x-1] / s[x+1] delivers (with the ghosts outside the row).
template <std::size_t W>
void seam_gather_case(std::size_t nv, std::uint64_t seed) {
  namespace vns = px::simd::vns;
  using P = pack<double, W>;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> dist(-8.0, 8.0);
  std::size_t const n = W * nv;
  std::vector<double> s(n);
  for (auto& v : s) v = dist(rng);
  double const left_ghost = dist(rng);
  double const right_ghost = dist(rng);

  std::vector<P> packs(nv);
  vns::encode(std::span<double const>(s), packs.data(), nv);
  P const lseam = vns::left_seam(packs[nv - 1], left_ghost);
  P const rseam = vns::right_seam(packs[0], right_ghost);

  for (std::size_t x = 0; x < n; ++x) {
    std::size_t const j = vns::slot_of(x, nv);
    std::size_t const l = vns::lane_of(x, nv);
    double const want_left = x == 0 ? left_ghost : s[x - 1];
    double const want_right = x + 1 == n ? right_ghost : s[x + 1];
    double const got_left = (j == 0 ? lseam : packs[j - 1]).v[l];
    double const got_right = (j + 1 == nv ? rseam : packs[j + 1]).v[l];
    ASSERT_EQ(got_left, want_left)
        << "left of x=" << x << " nv=" << nv << " W=" << W;
    ASSERT_EQ(got_right, want_right)
        << "right of x=" << x << " nv=" << nv << " W=" << W;
  }
}

TEST(VnsSeams, MatchScalarNeighbourGatherOnRandomRows) {
  std::uint64_t seed = 0xface;
  for (std::size_t nv : {1, 2, 3, 5, 8, 13}) {
    seam_gather_case<2>(nv, seed++);
    seam_gather_case<4>(nv, seed++);
    seam_gather_case<8>(nv, seed++);
    seam_gather_case<16>(nv, seed++);
  }
}

// ---- unaligned pack ops at odd offsets ----------------------------------

// The stencil kernels index interior rows from offset 1, so nearly every
// pack access is misaligned; the alignment audit requires those sites to
// use the unaligned ops. Pin that load/store round-trips at every in-pack
// offset (an aligned move on these pointers would be UB under AVX-512).
template <typename T, std::size_t W>
void unaligned_offsets_case() {
  using P = pack<T, W>;
  alignas(P::alignment) T buf[3 * W];
  alignas(P::alignment) T out[3 * W];
  for (std::size_t i = 0; i < 3 * W; ++i) buf[i] = T(i) * T(0.5);
  for (std::size_t off = 0; off < W; ++off) {
    P const v = px::simd::load_unaligned<P>(buf + off);
    for (std::size_t l = 0; l < W; ++l)
      ASSERT_EQ(v.v[l], buf[off + l]) << "off=" << off << " lane=" << l;
    for (auto& x : out) x = T(-1);
    px::simd::store_unaligned(out + off, v);
    for (std::size_t l = 0; l < W; ++l)
      ASSERT_EQ(out[off + l], buf[off + l]) << "off=" << off;
  }
}

TEST(SimdAlignment, UnalignedLoadStoreRoundTripsAtEveryOffset) {
  unaligned_offsets_case<float, 4>();
  unaligned_offsets_case<float, 8>();
  unaligned_offsets_case<float, 16>();
  unaligned_offsets_case<double, 2>();
  unaligned_offsets_case<double, 4>();
  unaligned_offsets_case<double, 8>();
}

// ---- field2d padded segments (odd nx) -----------------------------------

TEST(Field2dPadded, OddNxGetSetRoundTrip) {
  field2d<pack<double, 4>> f(5, 3);  // cells() = 2, padding() = 3
  EXPECT_EQ(f.cells(), 2u);
  EXPECT_EQ(f.padding(), 3u);
  for (std::size_t y = 0; y < 3; ++y)
    for (std::size_t x = 0; x < 5; ++x)
      f.set(x, y, double(10 * y + x));
  for (std::size_t y = 0; y < 3; ++y)
    for (std::size_t x = 0; x < 5; ++x)
      ASSERT_EQ(f.get(x, y), double(10 * y + x)) << x << "," << y;
}

TEST(Field2dPadded, RefreshPinsFirstPaddedScalarToRightGhost) {
  namespace vns = px::simd::vns;
  // nx=5, W=4 -> cells()=2, s[5] sits in lane 2 of the *first* interior
  // pack (slot_of(5, 2) = 1 ... check both a slot-0 and a slot-1 case).
  for (std::size_t nx : {5, 6, 7}) {
    field2d<pack<double, 4>> f(nx, 2);
    init_dirichlet_problem(f);
    f.set_right_boundary(0, 3.5);
    f.refresh_row_halos(1);
    auto const* r = f.row(1);
    std::size_t const nv = f.cells();
    ASSERT_EQ(r[1 + vns::slot_of(nx, nv)].v[vns::lane_of(nx, nv)], 3.5)
        << "nx=" << nx;
  }
}

// ---- 2D Jacobi: VNS runners vs reference and auto -----------------------

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

template <typename T>
void vns_vs_reference_case(vns_abi abi, std::size_t nx, std::size_t ny,
                           std::size_t steps) {
  field2d<T> initial(nx, ny);
  init_dirichlet_problem(initial);
  auto const run =
      run_jacobi2d_vns<T>(px::execution::seq, abi, initial, steps);
  auto const ref = reference_jacobi2d(reference_initial(nx, ny), nx, ny,
                                      steps);
  double const tol = std::is_same_v<T, float> ? 2e-5 : 1e-12;
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      ASSERT_NEAR(static_cast<double>(run.interior[y * nx + x]),
                  ref[(y + 1) * (nx + 2) + x + 1], tol)
          << vns_abi_name(abi) << " x=" << x << " y=" << y;
}

TEST(Jacobi2dVns, AllPresetsMatchReferenceAtOddSizesFloat) {
  for (vns_abi abi : vns_abi_presets) {
    vns_vs_reference_case<float>(abi, 5, 3, 8);
    vns_vs_reference_case<float>(abi, 17, 6, 10);
    vns_vs_reference_case<float>(abi, 33, 7, 12);
    vns_vs_reference_case<float>(abi, 51, 4, 9);
  }
}

TEST(Jacobi2dVns, AllPresetsMatchReferenceAtOddSizesDouble) {
  for (vns_abi abi : vns_abi_presets) {
    vns_vs_reference_case<double>(abi, 5, 3, 8);
    vns_vs_reference_case<double>(abi, 17, 6, 10);
    vns_vs_reference_case<double>(abi, 33, 7, 12);
    vns_vs_reference_case<double>(abi, 51, 4, 9);
  }
}

TEST(Jacobi2dVns, PackAndAutoBitwiseIdenticalForDoubles) {
  // Identical expression per element, mul-last (no FMA contraction), so
  // doubles must agree bitwise with the scalar-cell (auto-vectorized)
  // solver at every preset width, including odd nx with padded segments.
  px::runtime rt(cfg3());
  for (vns_abi abi : vns_abi_presets) {
    for (std::size_t nx : {32, 33}) {
      field2d<double> initial(nx, 10);
      init_dirichlet_problem(initial);
      auto [vns_run, auto_run] = px::sync_wait(rt, [&] {
        return std::make_pair(
            run_jacobi2d_vns<double>(px::execution::par, abi, initial, 25),
            run_jacobi2d_auto<double>(px::execution::par, initial, 25));
      });
      ASSERT_EQ(vns_run.interior.size(), auto_run.interior.size());
      for (std::size_t i = 0; i < vns_run.interior.size(); ++i)
        ASSERT_EQ(vns_run.interior[i], auto_run.interior[i])
            << vns_abi_name(abi) << " nx=" << nx << " i=" << i;
    }
  }
}

TEST(Jacobi2dVns, AbiParsingAndLanes) {
  EXPECT_EQ(parse_vns_abi("avx2"), vns_abi::avx2);
  EXPECT_EQ(parse_vns_abi("neon128"), vns_abi::neon128);
  EXPECT_EQ(parse_vns_abi("sve512"), vns_abi::sve512);
  EXPECT_EQ(parse_vns_abi("native"), vns_abi::native);
  EXPECT_FALSE(parse_vns_abi("AVX2").has_value());
  EXPECT_FALSE(parse_vns_abi("avx512").has_value());
  EXPECT_FALSE(parse_vns_abi("").has_value());
  EXPECT_EQ(vns_abi_vector_bits(vns_abi::neon128), 128u);
  EXPECT_EQ(vns_abi_vector_bits(vns_abi::avx2), 256u);
  EXPECT_EQ(vns_abi_vector_bits(vns_abi::sve512), 512u);
  EXPECT_EQ(vns_abi_lanes<float>(vns_abi::sve512), 16u);
  EXPECT_EQ(vns_abi_lanes<double>(vns_abi::avx2), 4u);
  EXPECT_EQ(std::string(vns_abi_name(vns_abi::sve512)), "sve512");
}

// ---- temporal blocking at every preset ----------------------------------

std::uint64_t tasks_executed(px::runtime& rt) {
  return rt.sched().aggregate_stats().tasks_executed;
}

template <typename T>
void presets_blocked_case(px::runtime& rt) {
  for (vns_abi abi : vns_abi_presets) {
    SCOPED_TRACE(vns_abi_name(abi));
    with_vns_pack<T>(abi, [&](auto tag) {
      px_test::expect_blocked_matches_per_step_everywhere<
          typename decltype(tag)::type>(rt);
    });
  }
}

TEST(Jacobi2dVns, AllPresetsBlockedSweepBitwiseEqualsPerStepLoopFloat) {
  px::runtime rt(cfg3());
  presets_blocked_case<float>(rt);
}

TEST(Jacobi2dVns, AllPresetsBlockedSweepBitwiseEqualsPerStepLoopDouble) {
  px::runtime rt(cfg3());
  presets_blocked_case<double>(rt);
}

TEST(Jacobi2dVns, NativeBlockedSweepRunsOneForkJoinPerPass) {
  // Per-step sweeps would run steps * bands band tasks; the blocked path
  // runs one fork/join per pass. Task slices also count the caller's
  // resumptions (at most one per pass) and can lag the join, so the delta
  // is bounded from above only.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 37, ny = 1600;
  auto const initial = random_problem<float>(nx, ny, 3);
  px::sync_wait(rt, [&] {
    field2d<simd_native_f32> u0(px::execution::seq, nx, ny);
    field2d<simd_native_f32> u1(px::execution::seq, nx, ny);
    copy_problem(px::execution::seq, u0, initial);
    copy_problem(px::execution::seq, u1, initial);
    std::size_t const d = jacobi2d_pass_depth(px::execution::par, u0);
    std::size_t const bands = px::execution::auto_num_chunks(ny, 3);
    EXPECT_EQ(d, 9u);
    std::size_t const steps = 2 * d + 3;  // passes d, d, 3
    auto const before = tasks_executed(rt);
    (void)run_jacobi2d(px::execution::par, u0, u1, steps);
    auto const delta = tasks_executed(rt) - before;
    EXPECT_GT(delta, 0u);
    EXPECT_LE(delta, 3 * (bands + 1));
    EXPECT_LT(3 * (bands + 1), steps * bands);
    return 0;
  });
}

// ---- row-parallel layout conversion --------------------------------------

// The per-element conversion: get/set for the interior, the boundary
// setters for the ghosts, then every row's halos.
template <typename Cell, typename T>
void copy_per_element(field2d<Cell>& dst, field2d<T> const& src) {
  for (std::size_t y = 0; y < src.ny(); ++y) {
    for (std::size_t x = 0; x < src.nx(); ++x) dst.set(x, y, src.get(x, y));
    dst.set_left_boundary(y, src.left_boundary(y));
    dst.set_right_boundary(y, src.right_boundary(y));
  }
  for (std::size_t x = 0; x < src.nx(); ++x) {
    dst.set_top_boundary(x, src.top_boundary_value(x));
    dst.set_bottom_boundary(x, src.bottom_boundary_value(x));
  }
  dst.refresh_all_halos();
}

template <typename T>
void round_trip_case(px::runtime& rt, vns_abi abi, std::size_t nx,
                     std::size_t ny) {
  auto const src = random_problem<T>(nx, ny, 31 * nx + ny);
  with_vns_pack<T>(abi, [&](auto tag) {
    using P = typename decltype(tag)::type;
    field2d<P> want(px::execution::seq, nx, ny);
    copy_per_element(want, src);
    std::vector<T> want_out(nx * ny);
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        want_out[y * nx + x] = want.get(x, y);

    px::sync_wait(rt, [&] {
      field2d<P> got(nx, ny);
      copy_problem(got, src);
      EXPECT_TRUE(same_storage(got, want))
          << vns_abi_name(abi) << " nx=" << nx << " ny=" << ny;
      for (std::size_t y = 0; y < ny; ++y) {
        ASSERT_EQ(got.left_boundary(y), want.left_boundary(y));
        ASSERT_EQ(got.right_boundary(y), want.right_boundary(y));
      }
      auto const out = interior_snapshot(got);
      ASSERT_EQ(out.size(), want_out.size());
      EXPECT_EQ(std::memcmp(out.data(), want_out.data(),
                            out.size() * sizeof(T)),
                0)
          << vns_abi_name(abi) << " nx=" << nx << " ny=" << ny;
    });
  });
}

template <typename T>
void round_trip_all_presets(px::runtime& rt) {
  for (vns_abi abi : vns_abi_presets) {
    std::size_t const lanes = vns_abi_lanes<T>(abi);
    for (std::size_t nx : {std::size_t{1}, lanes - 1, lanes + 1,
                           3 * lanes + 1, std::size_t{37}})
      for (std::size_t ny : {std::size_t{1}, std::size_t{6}})
        round_trip_case<T>(rt, abi, nx, ny);
    // Large enough that every pass fans out over several row tasks.
    round_trip_case<T>(rt, abi, 37, 6000);
  }
}

TEST(VnsConversion, ParallelRoundTripMatchesPerElementPathFloat) {
  px::runtime rt(cfg3());
  round_trip_all_presets<float>(rt);
}

TEST(VnsConversion, ParallelRoundTripMatchesPerElementPathDouble) {
  px::runtime rt(cfg3());
  round_trip_all_presets<double>(rt);
}

TEST(VnsConversion, LargeFieldPassesFanOutOnAWorker) {
  // The round trips above only test the parallel path if it runs: a field
  // well above the row-task grain spawns row tasks for each pass.
  px::runtime rt(cfg3());
  auto const src = random_problem<float>(37, 6000, 5);
  px::sync_wait(rt, [&] {
    auto const before = tasks_executed(rt);
    field2d<simd_native_f32> f(37, 6000);
    copy_problem(f, src);
    (void)interior_snapshot(f);
    EXPECT_GT(tasks_executed(rt), before);
  });
}

template <typename P>
void zero_on_worker_case(px::runtime& rt, std::size_t nx, std::size_t ny) {
  px::sync_wait(rt, [&] {
    {
      // Dirty a block of the same size first so that the field below is
      // likely to reuse non-zero memory.
      field2d<P> dirty(nx, ny);
      std::memset(static_cast<void*>(dirty.row(0)), 0xff,
                  dirty.row_stride() * (ny + 2) * sizeof(P));
    }
    field2d<P> f(nx, ny);
    auto const* bytes_begin =
        reinterpret_cast<unsigned char const*>(f.row(0));
    std::size_t const n = f.row_stride() * (ny + 2) * sizeof(P);
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(bytes_begin[i], 0u) << "byte " << i << " nx=" << nx;
    for (std::size_t y = 0; y < ny; ++y) {
      ASSERT_EQ(f.left_boundary(y), 0);
      ASSERT_EQ(f.right_boundary(y), 0);
    }
  });
}

TEST(VnsConversion, FieldBuiltOnAWorkerIsZeroEverywhere) {
  px::runtime rt(cfg3());
  zero_on_worker_case<pack<float, 8>>(rt, 37, 6000);
  zero_on_worker_case<pack<double, 4>>(rt, 5, 3);
  zero_on_worker_case<pack<double, 2>>(rt, 101, 4000);
}

// run_jacobi2d_vns / _auto give the second buffer boundaries only; a run
// that full-copies it must agree bitwise at every step count.
template <typename Cell, typename T>
std::vector<T> full_copy_run(field2d<T> const& initial, std::size_t steps) {
  field2d<Cell> u0(initial.nx(), initial.ny());
  field2d<Cell> u1(initial.nx(), initial.ny());
  copy_problem(u0, initial);
  copy_problem(u1, initial);
  auto const t = run_jacobi2d(px::execution::par, u0, u1, steps);
  return interior_snapshot(t.final_index == 0 ? u0 : u1);
}

template <typename T>
void boundaries_only_case(px::runtime& rt, std::size_t nx, std::size_t ny) {
  auto const initial = random_problem<T>(nx, ny, 7 * nx + ny);
  for (std::size_t steps : {0, 1, 2, 3}) {
    for (vns_abi abi : vns_abi_presets) {
      px::sync_wait(rt, [&] {
        auto const got =
            run_jacobi2d_vns<T>(px::execution::par, abi, initial, steps);
        auto const want = with_vns_pack<T>(abi, [&](auto tag) {
          return full_copy_run<typename decltype(tag)::type>(initial, steps);
        });
        ASSERT_EQ(got.interior.size(), want.size());
        EXPECT_EQ(std::memcmp(got.interior.data(), want.data(),
                              want.size() * sizeof(T)),
                  0)
            << vns_abi_name(abi) << " nx=" << nx << " steps=" << steps;
      });
    }
    px::sync_wait(rt, [&] {
      auto const got = run_jacobi2d_auto<T>(px::execution::par, initial, steps);
      auto const want = full_copy_run<T>(initial, steps);
      ASSERT_EQ(got.interior.size(), want.size());
      EXPECT_EQ(std::memcmp(got.interior.data(), want.data(),
                            want.size() * sizeof(T)),
                0)
          << "auto nx=" << nx << " steps=" << steps;
    });
  }
}

TEST(VnsConversion, BoundariesOnlySecondBufferMatchesFullCopy) {
  px::runtime rt(cfg3());
  for (std::size_t nx : {3, 37}) {
    boundaries_only_case<float>(rt, nx, 5);
    boundaries_only_case<double>(rt, nx, 5);
  }
  boundaries_only_case<float>(rt, 37, 3000);
}

TEST(VnsConversion, SeqPolicySpawnsNoTasks) {
  px::runtime rt(cfg3());
  auto const initial = random_problem<float>(37, 6000, 11);
  px::sync_wait(rt, [&] {
    auto const before = tasks_executed(rt);
    field2d<simd_native_f32> f(px::execution::seq, 37, 6000);
    copy_problem(px::execution::seq, f, initial);
    (void)interior_snapshot(px::execution::seq, f);
    for (vns_abi abi : vns_abi_presets)
      (void)run_jacobi2d_vns<float>(px::execution::seq, abi, initial, 2);
    (void)run_jacobi2d_auto<float>(px::execution::seq, initial, 2);
    EXPECT_EQ(tasks_executed(rt), before);
  });
}

// ---- 1D heat: VNS row kernel --------------------------------------------

// Tolerance, not bitwise: the heat update c + k*(l - 2c + r) ends in an
// add, so FMA contraction can differ between the pack and scalar builds.
template <std::size_t W>
void heat_vns_case(std::size_t nx, std::size_t steps) {
  auto const initial = heat1d_sine_initial(nx);
  double const k = 0.1;
  auto const got = run_heat1d_vns<double, W>(
      std::span<double const>(initial), steps, k);
  auto const ref = reference_heat1d(initial, steps, k);
  ASSERT_EQ(got.size(), ref.size());
  for (std::size_t x = 0; x < nx; ++x)
    ASSERT_NEAR(got[x], ref[x], 1e-12) << "nx=" << nx << " x=" << x;
}

TEST(Heat1dVns, MatchesReferenceIncludingOddSizes) {
  for (std::size_t nx : {5, 17, 33, 64, 101}) {
    heat_vns_case<4>(nx, 50);
    heat_vns_case<8>(nx, 50);
  }
}

TEST(Heat1dVns, AutovecBaselineMatchesReference) {
  auto const initial = heat1d_sine_initial(65);
  auto const got =
      run_heat1d_autovec<double>(std::span<double const>(initial), 40, 0.1);
  auto const ref = reference_heat1d(initial, 40, 0.1);
  for (std::size_t x = 0; x < got.size(); ++x)
    ASSERT_NEAR(got[x], ref[x], 1e-12) << "x=" << x;
}

// ---- 3D blocked Jacobi --------------------------------------------------

std::vector<double> reference_initial3d(std::size_t nx, std::size_t ny,
                                        std::size_t nz) {
  field3d<double> f(nx, ny, nz);
  init_dirichlet_problem3d(f);
  std::vector<double> u((nx + 2) * (ny + 2) * (nz + 2));
  std::size_t i = 0;
  for (std::size_t z = 0; z < nz + 2; ++z)
    for (std::size_t y = 0; y < ny + 2; ++y)
      for (std::size_t x = 0; x < nx + 2; ++x) u[i++] = f.at(x, y, z);
  return u;
}

std::vector<double> run_blocked3d(px::runtime& rt, std::size_t nx,
                                  std::size_t ny, std::size_t nz,
                                  jacobi3d_config cfg) {
  field3d<double> u0(nx, ny, nz), u1(nx, ny, nz);
  init_dirichlet_problem3d(u0);
  init_dirichlet_problem3d(u1);
  auto const r = px::sync_wait(rt, [&] {
    return run_jacobi3d_blocked(px::execution::par, u0, u1, cfg);
  });
  return interior_snapshot3d(r.final_index == 0 ? u0 : u1);
}

TEST(Jacobi3dBlocked, MatchesReferenceBitwiseDouble) {
  // Mul-last expression in the same association order as the reference:
  // doubles agree bitwise.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 20, ny = 12, nz = 8, steps = 3;
  jacobi3d_config cfg;
  cfg.steps = steps;
  auto const got = run_blocked3d(rt, nx, ny, nz, cfg);
  auto const ref = reference_jacobi3d(reference_initial3d(nx, ny, nz), nx,
                                      ny, nz, steps);
  for (std::size_t z = 0; z < nz; ++z)
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        ASSERT_EQ(got[(z * ny + y) * nx + x],
                  ref[((z + 1) * (ny + 2) + y + 1) * (nx + 2) + x + 1])
            << x << "," << y << "," << z;
}

TEST(Jacobi3dBlocked, BlockShapeAndSimdPathInvariant) {
  // Jacobi has no intra-sweep dependencies: every block shape and both
  // inner-loop paths must produce bitwise identical doubles.
  px::runtime rt(cfg3());
  constexpr std::size_t nx = 21, ny = 10, nz = 6;
  jacobi3d_config base;
  base.steps = 4;
  auto const want = run_blocked3d(rt, nx, ny, nz, base);

  jacobi3d_config variants[4] = {base, base, base, base};
  variants[0].block_x = 7;
  variants[0].block_y = 3;
  variants[0].block_z = 2;
  variants[1].block_x = 1;
  variants[1].block_y = 1;
  variants[1].block_z = 1;
  variants[2].block_x = 64;
  variants[2].block_y = 64;
  variants[2].block_z = 64;
  variants[3].explicit_simd = true;
  for (auto const& cfg : variants) {
    auto const got = run_blocked3d(rt, nx, ny, nz, cfg);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      ASSERT_EQ(got[i], want[i])
          << "i=" << i << " bx=" << cfg.block_x << " by=" << cfg.block_y
          << " bz=" << cfg.block_z << " simd=" << cfg.explicit_simd;
  }
}

TEST(Jacobi3dBlocked, ConfigFromEnvAppliesStrictKnobs) {
  ::setenv("PX_SIMD_BLOCK_X", "8", 1);
  ::setenv("PX_SIMD_BLOCK_Y", "3", 1);
  ::setenv("PX_SIMD_BLOCK_Z", "junk", 1);  // malformed: leaves base value
  jacobi3d_config base;
  base.block_z = 5;
  auto const cfg = jacobi3d_config::from_env(base);
  ::unsetenv("PX_SIMD_BLOCK_X");
  ::unsetenv("PX_SIMD_BLOCK_Y");
  ::unsetenv("PX_SIMD_BLOCK_Z");
  EXPECT_EQ(cfg.block_x, 8u);
  EXPECT_EQ(cfg.block_y, 3u);
  EXPECT_EQ(cfg.block_z, 5u);
  auto const clean = jacobi3d_config::from_env(base);
  EXPECT_EQ(clean.block_x, 0u);
  EXPECT_EQ(clean.block_y, 0u);
  EXPECT_EQ(clean.block_z, 5u);
}

// ---- torture lane: seed sweep of the 3D blocked kernel ------------------

TEST(SimdTorture, Jacobi3dBlockedSeedSweep) {
  namespace torture = px::torture;
  torture::forall_options opts;
  opts.dump_stem = "torture-simd";
  auto const r = torture::forall_seeds(
      torture::seed_count(16), [](std::uint64_t seed) {
        std::mt19937_64 rng(seed);
        auto pick = [&](std::size_t lo, std::size_t hi) {
          return lo + rng() % (hi - lo + 1);
        };
        std::size_t const nx = pick(3, 24);
        std::size_t const ny = pick(3, 16);
        std::size_t const nz = pick(3, 12);
        jacobi3d_config cfg;
        cfg.steps = pick(1, 3);
        cfg.block_x = pick(0, 9);
        cfg.block_y = pick(0, 6);
        cfg.block_z = pick(0, 4);
        cfg.explicit_simd = (rng() & 1) != 0;

        px::runtime rt(cfg3());
        auto const got = run_blocked3d(rt, nx, ny, nz, cfg);
        auto const ref = reference_jacobi3d(
            reference_initial3d(nx, ny, nz), nx, ny, nz, cfg.steps);
        for (std::size_t z = 0; z < nz; ++z)
          for (std::size_t y = 0; y < ny; ++y)
            for (std::size_t x = 0; x < nx; ++x) {
              double const g = got[(z * ny + y) * nx + x];
              double const w =
                  ref[((z + 1) * (ny + 2) + y + 1) * (nx + 2) + x + 1];
              if (g != w)
                throw std::runtime_error(
                    "blocked 3D kernel diverged from reference at (" +
                    std::to_string(x) + "," + std::to_string(y) + "," +
                    std::to_string(z) + "): " + std::to_string(g) +
                    " vs " + std::to_string(w) + " [nx=" +
                    std::to_string(nx) + " ny=" + std::to_string(ny) +
                    " nz=" + std::to_string(nz) + " bx=" +
                    std::to_string(cfg.block_x) + " by=" +
                    std::to_string(cfg.block_y) + " bz=" +
                    std::to_string(cfg.block_z) + " simd=" +
                    std::to_string(cfg.explicit_simd) + "]");
            }
      },
      opts);
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

}  // namespace
