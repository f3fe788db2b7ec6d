#include "px/stencil/jacobi2d_distributed.hpp"

#include <algorithm>
#include <numeric>

#include "px/dist/collectives.hpp"
#include "px/stencil/field2d.hpp"
#include "px/stencil/jacobi2d.hpp"
#include "px/stencil/partition.hpp"
#include "px/stencil/reference.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {
namespace {

// A block of whole grid rows as a partition kernel; the halo is one row.
// `double` cells are the paper's scalar path; native pack cells run the
// Virtual Node Scheme layout inside the distributed decomposition (SIMD
// and parcels combined), for any row length.
template <typename Cell>
class jacobi_rows {
 public:
  using halo = std::vector<double>;
  struct params {
    std::uint64_t nx = 0;
    double boundary = 1.0;

    template <typename Archive>
    void serialize(Archive& ar) {
      ar& nx& boundary;
    }
  };

  jacobi_rows() = default;
  jacobi_rows(params p, std::vector<double> const& rows)
      : p_(p), ny_(rows.size() / p.nx), row_(p.nx + 2, p.boundary) {
    PX_ASSERT(ny_ >= 1 && rows.size() == ny_ * p.nx);
    // Both ping-pong fields carry the Dirichlet ring; the outer-row ghosts
    // later take the neighbours' halo rows.
    for (int i = 0; i < 2; ++i) {
      u_.emplace_back(p.nx, ny_);
      for (std::size_t y = 0; y < ny_ + 2; ++y)
        load_row(u_.back(), y,
                 y >= 1 && y <= ny_ ? rows.data() + (y - 1) * p.nx : nullptr);
    }
  }

  [[nodiscard]] params const& config() const { return p_; }
  [[nodiscard]] std::vector<double> values() const {
    std::vector<double> out(ny_ * p_.nx);
    for (std::size_t y = 0; y < ny_; ++y)
      u_[cur_].read_row(y + 1, out.data() + y * p_.nx);
    return out;
  }
  [[nodiscard]] halo edge(side s) const {
    halo row(p_.nx);
    u_[cur_].read_row(s == side::lo ? 1 : ny_, row.data());
    return row;
  }
  // Storage rows 2..ny-1 need no remote data.
  [[nodiscard]] std::size_t length() const { return ny_ > 2 ? ny_ - 2 : 0; }
  [[nodiscard]] std::size_t unit_cells() const { return p_.nx; }
  void interior(std::size_t lo, std::size_t hi) {
    for (std::size_t y = 2 + lo; y < 2 + hi; ++y)
      jacobi2d_row_update(u_[cur_], u_[1 - cur_], y);
  }
  void edges(halo const* lo, halo const* hi) {
    field2d<Cell>& curr = u_[cur_];
    if (lo != nullptr) load_row(curr, 0, lo->data());
    if (hi != nullptr) load_row(curr, ny_ + 1, hi->data());
    jacobi2d_row_update(curr, u_[1 - cur_], 1);
    if (ny_ > 1) jacobi2d_row_update(curr, u_[1 - cur_], ny_);
    cur_ = 1 - cur_;
  }

 private:
  // Stores a storage row: `cells` (nx values; nullptr = the boundary)
  // between the left and right boundary values.
  void load_row(field2d<Cell>& f, std::size_t y, double const* cells) {
    if (cells != nullptr)
      std::copy_n(cells, p_.nx, row_.begin() + 1);
    else
      std::fill(row_.begin() + 1, row_.end() - 1, p_.boundary);
    f.assign_row(y, row_.data());
  }

  params p_;
  std::size_t ny_ = 0;
  std::vector<field2d<Cell>> u_;
  std::size_t cur_ = 0;
  std::vector<double> row_;  // nx + 2 scratch cells
};

using jacobi_scalar = jacobi_rows<double>;
using jacobi_native = jacobi_rows<px::simd::abi::native<double>>;

template <typename Kernel>
std::vector<double> solve_rows(px::dist::locality& loc0,
                               dist_jacobi_config const& cfg,
                               std::vector<std::vector<double>> blocks) {
  std::vector<std::uint32_t> homes(blocks.size());
  std::iota(homes.begin(), homes.end(), std::uint32_t{0});
  partition_chain<Kernel> chain(loc0);
  chain.make(homes, {cfg.nx, cfg.boundary}, std::move(blocks));
  chain.run(0, cfg.steps);
  return chain.fetch();
}

}  // namespace

dist_jacobi_result run_distributed_jacobi2d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_jacobi_config cfg) {
  std::size_t const nloc = dom.size();
  PX_ASSERT(initial.size() == cfg.nx * cfg.ny_total);
  PX_ASSERT(cfg.ny_total >= nloc);

  auto const msgs0 = dom.fabric().counters().messages.load();
  auto const bytes0 = dom.fabric().counters().bytes.load();

  auto result = dom.run([&](px::dist::locality& loc0) -> dist_jacobi_result {
    // Row blocks, one per locality.
    std::vector<std::vector<double>> blocks(nloc);
    for (std::size_t l = 0; l < nloc; ++l) {
      auto const [lo, hi] = px::dist::block_bounds(cfg.ny_total, nloc, l);
      blocks[l].assign(
          initial.begin() + static_cast<std::ptrdiff_t>(lo * cfg.nx),
          initial.begin() + static_cast<std::ptrdiff_t>(hi * cfg.nx));
    }
    high_resolution_timer timer;
    dist_jacobi_result res;
    res.values = cfg.use_simd
                     ? solve_rows<jacobi_native>(loc0, cfg, std::move(blocks))
                     : solve_rows<jacobi_scalar>(loc0, cfg, std::move(blocks));
    res.seconds = timer.elapsed();
    return res;
  });

  double const lups = static_cast<double>(cfg.nx) *
                      static_cast<double>(cfg.ny_total) *
                      static_cast<double>(cfg.steps);
  result.glups = result.seconds > 0.0 ? lups / result.seconds / 1e9 : 0.0;
  result.halo_messages = dom.fabric().counters().messages.load() - msgs0;
  result.halo_bytes = dom.fabric().counters().bytes.load() - bytes0;
  return result;
}

std::vector<double> reference_jacobi2d_interior(std::vector<double> interior,
                                                std::size_t nx,
                                                std::size_t ny,
                                                std::size_t steps,
                                                double boundary) {
  std::size_t const stride = nx + 2;
  std::vector<double> u(stride * (ny + 2), boundary);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      u[(y + 1) * stride + x + 1] = interior[y * nx + x];
  auto full = reference_jacobi2d(std::move(u), nx, ny, steps);
  std::vector<double> out(ny * nx);
  for (std::size_t y = 0; y < ny; ++y)
    for (std::size_t x = 0; x < nx; ++x)
      out[y * nx + x] = full[(y + 1) * stride + x + 1];
  return out;
}

}  // namespace px::stencil
