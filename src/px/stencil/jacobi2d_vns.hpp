// px/stencil/jacobi2d_vns.hpp
// The explicitly vectorized 2D Jacobi family of the paper's Fig 6–9:
// field2d<pack<T, W>> solves, parameterized over the px::simd::abi presets
// (neon128 / avx2 / sve512 / native) at run time. The generic 5-point
// kernel is jacobi2d_row_update — identical code for scalar and pack cells;
// this header adds the ABI selection layer (a runtime enum, strict
// PX_SIMD_ABI env parsing, and a visitor that maps the enum onto the
// compile-time pack type) plus turnkey runners that start from a scalar
// field and return the final interior for validation.
#pragma once

#include <cstddef>
#include <optional>
#include <string_view>
#include <type_traits>
#include <vector>

#include "px/simd/abi.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"

namespace px::stencil {

// Runtime name for a compile-time pack preset (Table I pipelines).
enum class vns_abi { neon128, avx2, sve512, native };

inline constexpr vns_abi vns_abi_presets[] = {
    vns_abi::neon128, vns_abi::avx2, vns_abi::sve512, vns_abi::native};

[[nodiscard]] char const* vns_abi_name(vns_abi a) noexcept;
[[nodiscard]] std::optional<vns_abi> parse_vns_abi(
    std::string_view token) noexcept;
// PX_SIMD_ABI: strict token in {neon128, avx2, sve512, native} (env_token
// semantics — exact match, anything else is ignored as malformed).
[[nodiscard]] std::optional<vns_abi> vns_abi_from_env();
[[nodiscard]] std::size_t vns_abi_vector_bits(vns_abi a) noexcept;

template <typename T>
[[nodiscard]] std::size_t vns_abi_lanes(vns_abi a) noexcept {
  return vns_abi_vector_bits(a) / (8 * sizeof(T));
}

// Maps the runtime preset onto the compile-time pack type:
// fn(std::type_identity<pack<T, W>>{}).
template <typename T, typename Fn>
decltype(auto) with_vns_pack(vns_abi a, Fn&& fn) {
  switch (a) {
    case vns_abi::neon128:
      return fn(std::type_identity<simd::abi::neon128<T>>{});
    case vns_abi::avx2:
      return fn(std::type_identity<simd::abi::avx2<T>>{});
    case vns_abi::sve512:
      return fn(std::type_identity<simd::abi::sve512<T>>{});
    case vns_abi::native:
    default:
      return fn(std::type_identity<simd::abi::native<T>>{});
  }
}

// A VNS solve's timing plus the final interior (row-major, nx*ny) decoded
// back to scalars for validation against the scalar solver / reference.
template <typename T>
struct vns_run_result {
  jacobi2d_result timing;
  std::vector<T> interior;
};

// The interior decoded row by row (one read_row each) into a row-major
// nx*ny vector, the rows spread over `policy`.
template <typename Policy, typename Cell>
[[nodiscard]] std::vector<simd::get_type_t<Cell>> interior_snapshot(
    Policy const& policy, field2d<Cell> const& f) {
  std::vector<simd::get_type_t<Cell>> out(f.nx() * f.ny());
  detail::for_rows(policy, f.ny(), f.row_stride() * sizeof(Cell),
                   [&](std::size_t y) {
                     f.read_row(y + 1, out.data() + y * f.nx());
                   });
  return out;
}

template <typename Cell>
[[nodiscard]] std::vector<simd::get_type_t<Cell>> interior_snapshot(
    field2d<Cell> const& f) {
  return interior_snapshot(detail::ambient_policy{}, f);
}

namespace detail {

// Both runners: u0 gets the whole problem, u1 only its boundaries (the
// first sweep writes the rest); allocation, conversion and sweeps all run
// under `policy`.
template <typename Cell, typename Policy, typename T>
vns_run_result<T> run_from(Policy const& policy, field2d<T> const& initial,
                           std::size_t steps) {
  field2d<Cell> u0(policy, initial.nx(), initial.ny());
  field2d<Cell> u1(policy, initial.nx(), initial.ny());
  copy_problem(policy, u0, initial);
  copy_boundaries(u1, initial);
  vns_run_result<T> r;
  r.timing = run_jacobi2d(policy, u0, u1, steps);
  r.interior = interior_snapshot(policy, r.timing.final_index == 0 ? u0 : u1);
  return r;
}

}  // namespace detail

// Runs `steps` pack-cell Jacobi sweeps starting from the scalar field's
// state (interior + boundaries), with the pack width chosen by `abi`.
// Arbitrary nx is handled by field2d's padded VNS segments.
template <typename T, typename Policy>
vns_run_result<T> run_jacobi2d_vns(Policy const& policy, vns_abi abi,
                                   field2d<T> const& initial,
                                   std::size_t steps) {
  return with_vns_pack<T>(abi, [&](auto tag) {
    return detail::run_from<typename decltype(tag)::type>(policy, initial,
                                                          steps);
  });
}

// Scalar-cell (compiler auto-vectorized) run with the same surface, for
// pack-vs-auto comparisons.
template <typename T, typename Policy>
vns_run_result<T> run_jacobi2d_auto(Policy const& policy,
                                    field2d<T> const& initial,
                                    std::size_t steps) {
  return detail::run_from<T>(policy, initial, steps);
}

// Non-template entry points (compiled in jacobi2d_vns.cpp) used by the
// bench suite: the fig4 Dirichlet problem at (nx, ny), `steps` sweeps on
// the px::execution::par policy inside the caller's runtime. These also
// anchor the explicit instantiations of every preset x precision.
[[nodiscard]] jacobi2d_result run_jacobi2d_vns_par_f32(vns_abi abi,
                                                       std::size_t nx,
                                                       std::size_t ny,
                                                       std::size_t steps);
[[nodiscard]] jacobi2d_result run_jacobi2d_vns_par_f64(vns_abi abi,
                                                       std::size_t nx,
                                                       std::size_t ny,
                                                       std::size_t steps);
[[nodiscard]] jacobi2d_result run_jacobi2d_auto_par_f32(std::size_t nx,
                                                        std::size_t ny,
                                                        std::size_t steps);
[[nodiscard]] jacobi2d_result run_jacobi2d_auto_par_f64(std::size_t nx,
                                                        std::size_t ny,
                                                        std::size_t steps);

}  // namespace px::stencil
