// px/stencil/field2d.hpp
// The Grid abstraction of the paper's Listing 2: a 2D field whose cell type
// is either a scalar (float/double — the compiler-auto-vectorized path) or
// a px::simd::pack (the explicitly vectorized path, stored in the Virtual
// Node Scheme layout).
//
// Storage layout per row: [ghost | interior cells | ghost], and one ghost
// row above and below. For scalar cells the ghosts are the Dirichlet
// boundary values themselves; for pack cells the ghosts are *halo packs*
// derived from the row's edge packs and the per-row boundary scalars via
// the VNS seam rotations — the halos the kernel "shuffles" after each
// update (Listing 2 line 18).
//
// With halos in place, the 5-point update is branch-free for both cell
// types:  next(s,y) = (c(s-1,y)+c(s+1,y)+c(s,y-1)+c(s,y+1)) * 0.25.
//
// Whole-field passes (the zero-fill on construction and the layout
// conversions built on assign_row/read_row) go row by row under an
// execution policy; the policy-less forms run them row-parallel on a px
// worker, so workers do the first touch, and sequentially elsewhere.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "px/parallel/algorithms.hpp"
#include "px/simd/simd.hpp"
#include "px/support/aligned.hpp"
#include "px/support/assert.hpp"
#include "px/support/math.hpp"

namespace px::stencil {

namespace detail {

// Storage bytes a row task must cover: fields under two of these run their
// row passes inline on the calling task.
inline constexpr std::size_t row_task_grain_bytes = std::size_t{256} << 10;

// Policy of the policy-less overloads: par on a px worker, seq elsewhere
// (the ambient resolution of parallel_policy::select_scheduler).
struct ambient_policy {};

// f(y) for every y in [0, rows), each row `row_bytes` of storage.
template <typename F>
void for_rows(execution::sequenced_policy, std::size_t rows, std::size_t,
              F f) {
  for (std::size_t y = 0; y < rows; ++y) f(y);
}

// The policy's own decomposition, capped at one task per
// row_task_grain_bytes.
template <typename F>
void for_rows(execution::parallel_policy const& policy, std::size_t rows,
              std::size_t row_bytes, F f) {
  parallel::detail::bulk_plan const plan =
      parallel::detail::plan_bulk(policy, rows);
  parallel::detail::bulk_run(
      policy, *plan.sched, rows,
      std::min(plan.num_chunks, rows * row_bytes / row_task_grain_bytes),
      [&f](std::size_t lo, std::size_t hi, std::size_t) {
        for (std::size_t y = lo; y < hi; ++y) f(y);
      });
}

template <typename F>
void for_rows(ambient_policy, std::size_t rows, std::size_t row_bytes, F f) {
  if (rt::worker::current() != nullptr)
    for_rows(execution::par, rows, row_bytes, std::move(f));
  else
    for_rows(execution::seq, rows, row_bytes, std::move(f));
}

}  // namespace detail

template <typename Cell>
class field2d {
 public:
  using cell_type = Cell;
  using scalar = simd::get_type_t<Cell>;
  static constexpr std::size_t lanes = simd::lane_count_v<Cell>;
  static constexpr bool vectorized = simd::is_pack_v<Cell>;

  // nx: interior scalars per row; ny: interior rows. Row lengths that are
  // not a lane multiple are stored in padded VNS segments: cells() =
  // ceil(nx / lanes), and the trailing lanes*cells() - nx scalar positions
  // are padding. refresh_row_halos pins the first padded scalar (x = nx) to
  // the row's right Dirichlet ghost, so every *real* cell computes exactly
  // the value of the unpadded problem; the remaining padding lanes evolve
  // as bounded junk that no real cell ever reads.
  //
  // Every storage cell (halos and padding lanes included) starts at zero,
  // written row by row under `policy`: the first touch of the storage.
  template <typename Policy>
  field2d(Policy const& policy, std::size_t nx, std::size_t ny)
      : nx_(nx),
        ny_(ny),
        cells_(simd::vns::packs_for(nx, lanes)),
        stride_(cells_ + 2),
        storage_(stride_ * (ny_ + 2)),  // default-initialized: untouched
        ghost_left_(vectorized ? ny_ + 2 : 0, scalar(0)),
        ghost_right_(vectorized ? ny_ + 2 : 0, scalar(0)) {
    static_assert(std::is_trivially_default_constructible_v<Cell>);
    PX_ASSERT(nx >= 1 && ny >= 1);
    detail::for_rows(policy, ny_ + 2, stride_ * sizeof(Cell),
                     [this](std::size_t y) {
                       std::fill_n(row(y), stride_, Cell(scalar(0)));
                     });
  }
  field2d(std::size_t nx, std::size_t ny)
      : field2d(detail::ambient_policy{}, nx, ny) {}

  [[nodiscard]] std::size_t nx() const noexcept { return nx_; }
  [[nodiscard]] std::size_t ny() const noexcept { return ny_; }
  // Interior cells per row (ceil(nx / lanes)).
  [[nodiscard]] std::size_t cells() const noexcept { return cells_; }
  // Trailing padded scalar positions per row (0 when lanes divides nx).
  [[nodiscard]] std::size_t padding() const noexcept {
    return lanes * cells_ - nx_;
  }
  [[nodiscard]] std::size_t row_stride() const noexcept { return stride_; }

  // Cell access in storage coordinates: s in [0, cells()+2), y in
  // [0, ny()+2); (0, *) / (cells+1, *) are column ghosts, rows 0 and ny+1
  // are row ghosts.
  [[nodiscard]] Cell& cell(std::size_t s, std::size_t y) noexcept {
    PX_ASSERT_DEBUG(s < stride_ && y < ny_ + 2);
    return storage_[y * stride_ + s];
  }
  [[nodiscard]] Cell const& cell(std::size_t s, std::size_t y)
      const noexcept {
    PX_ASSERT_DEBUG(s < stride_ && y < ny_ + 2);
    return storage_[y * stride_ + s];
  }

  // Raw row pointer (storage coordinates), for the hot kernels.
  [[nodiscard]] Cell* row(std::size_t y) noexcept {
    return storage_.data() + y * stride_;
  }
  [[nodiscard]] Cell const* row(std::size_t y) const noexcept {
    return storage_.data() + y * stride_;
  }

  // ---- scalar element view (interior coordinates) ------------------------
  // x in [0, nx), y in [0, ny). For packs this resolves the VNS mapping:
  // lane l of cell j holds scalar x = l * cells() + j, i.e. lane = x /
  // cells(), slot = x % cells().
  [[nodiscard]] scalar get(std::size_t x, std::size_t y) const noexcept {
    PX_ASSERT_DEBUG(y < ny_);
    return load(x, y + 1);
  }
  void set(std::size_t x, std::size_t y, scalar v) noexcept {
    PX_ASSERT_DEBUG(y < ny_);
    store(x, y + 1, v);
  }

  // ---- row view (storage coordinates) ------------------------------------
  // Sets storage row y from nx + 2 scalars laid out as a scalar field's row
  // [left ghost | nx interior | right ghost] and refreshes its halos; for
  // pack fields the interior is one VNS encode with zero padding lanes.
  void assign_row(std::size_t y, scalar const* src) noexcept {
    if constexpr (vectorized) {
      ghost_left_[y] = src[0];
      simd::vns::encode_padded(std::span<scalar const>(src + 1, nx_),
                               row(y) + 1, cells_);
      ghost_right_[y] = src[nx_ + 1];
      refresh_row_halos(y);
    } else {
      std::copy_n(src, stride_, row(y));
    }
  }
  // Writes storage row y's nx interior scalars to `out` (one VNS decode for
  // pack fields).
  void read_row(std::size_t y, scalar* out) const noexcept {
    if constexpr (vectorized) {
      simd::vns::decode_padded(row(y) + 1, std::span<scalar>(out, nx_),
                               cells_);
    } else {
      std::copy_n(row(y) + 1, nx_, out);
    }
  }

  // ---- boundary handling -----------------------------------------------
  // Dirichlet values along the four edges. Row ghosts are stored directly
  // as cells; column ghosts are scalars per row (materialized into halo
  // packs by refresh_row_halos for pack fields).
  void set_left_boundary(std::size_t y, scalar v) noexcept {
    if constexpr (vectorized) {
      ghost_left_[y + 1] = v;
    } else {
      cell(0, y + 1) = v;
    }
  }
  void set_right_boundary(std::size_t y, scalar v) noexcept {
    if constexpr (vectorized) {
      ghost_right_[y + 1] = v;
    } else {
      cell(cells_ + 1, y + 1) = v;
    }
  }
  // Top/bottom boundary rows: scalar x-indexed writes into the ghost rows.
  void set_top_boundary(std::size_t x, scalar v) noexcept { store(x, 0, v); }
  void set_bottom_boundary(std::size_t x, scalar v) noexcept {
    store(x, ny_ + 1, v);
  }

  [[nodiscard]] scalar left_boundary(std::size_t y) const noexcept {
    if constexpr (vectorized) {
      return ghost_left_[y + 1];
    } else {
      return cell(0, y + 1);
    }
  }
  [[nodiscard]] scalar right_boundary(std::size_t y) const noexcept {
    if constexpr (vectorized) {
      return ghost_right_[y + 1];
    } else {
      return cell(cells_ + 1, y + 1);
    }
  }
  [[nodiscard]] scalar top_boundary_value(std::size_t x) const noexcept {
    return load(x, 0);
  }
  [[nodiscard]] scalar bottom_boundary_value(std::size_t x) const noexcept {
    return load(x, ny_ + 1);
  }

  // Recomputes the halo packs of storage row y from the row's edge packs
  // and boundary scalars — the per-row "shuffle" of Listing 2. No-op for
  // scalar fields (their ghosts are stored directly).
  void refresh_row_halos(std::size_t y) noexcept {
    if constexpr (vectorized) refresh_row_halos(row(y), y);
  }

  // The same refresh for a row buffer `r` (row_stride() cells) that holds
  // a state of storage row y outside the field — a temporally blocked
  // sweep's scratch row. Its halos come from row y's ghosts: the boundary
  // scalars through the seams (with the padded-lane pin) for packs, the
  // stored ghost cells for scalars.
  void refresh_row_halos(Cell* r, std::size_t y) const noexcept {
    if constexpr (vectorized) {
      if (nx_ < lanes * cells_) {
        // Padded row: pin the first padded scalar s[nx] to the right ghost
        // so the last real cell's pack-neighbour read sees the boundary.
        // Must happen before the seams — s[nx] may sit in the first or the
        // last interior pack, feeding right_seam/left_seam below.
        r[1 + simd::vns::slot_of(nx_, cells_)]
            .v[simd::vns::lane_of(nx_, cells_)] = ghost_right_[y];
      }
      r[0] = simd::vns::left_seam(r[cells_], ghost_left_[y]);
      r[cells_ + 1] = simd::vns::right_seam(r[1], ghost_right_[y]);
    } else {
      r[0] = row(y)[0];
      r[cells_ + 1] = row(y)[cells_ + 1];
    }
  }

  // Refreshes every row's halos (after bulk initialization).
  void refresh_all_halos() noexcept {
    for (std::size_t y = 0; y < ny_ + 2; ++y) refresh_row_halos(y);
  }

  // Bytes of interior data (for bandwidth accounting).
  [[nodiscard]] std::size_t interior_bytes() const noexcept {
    return nx_ * ny_ * sizeof(scalar);
  }

 private:
  // Scalar x of storage row storage_y, through the VNS mapping for packs.
  void store(std::size_t x, std::size_t storage_y, scalar v) noexcept {
    PX_ASSERT_DEBUG(x < nx_);
    if constexpr (vectorized) {
      cell(1 + simd::vns::slot_of(x, cells_), storage_y)
          .v[simd::vns::lane_of(x, cells_)] = v;
    } else {
      cell(1 + x, storage_y) = v;
    }
  }
  [[nodiscard]] scalar load(std::size_t x,
                            std::size_t storage_y) const noexcept {
    PX_ASSERT_DEBUG(x < nx_);
    if constexpr (vectorized) {
      return cell(1 + simd::vns::slot_of(x, cells_), storage_y)
          .v[simd::vns::lane_of(x, cells_)];
    } else {
      return cell(1 + x, storage_y);
    }
  }

  std::size_t nx_, ny_, cells_, stride_;
  std::vector<Cell, default_init_allocator<aligned_allocator<Cell, 64>>>
      storage_;
  // Pack fields only: Dirichlet scalars for the row seams (indexed by
  // storage row).
  std::vector<scalar> ghost_left_, ghost_right_;
};

}  // namespace px::stencil
