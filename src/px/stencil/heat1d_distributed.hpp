// px/stencil/heat1d_distributed.hpp
// The fully distributed 1D heat solver of §V-A: the domain is block-split
// over the localities of a virtual cluster, one partition-engine component
// per locality (px/stencil/partition.hpp). Each step ships the edge cells,
// updates the interior while the halos travel — the latency hiding the
// paper credits for its flat weak scaling — then updates the edges.
//
// Fault tolerance (docs/ARCHITECTURE.md §4.2): with a nonzero
// checkpoint_interval K, every partition snapshots its slab every K steps
// into its own locality's checkpoint store *and* a buddy locality's (the
// host of the cyclically next partition). When the failure detector
// confirms a death, the driver remaps the lost partitions onto survivors,
// rolls every partition back to the newest step all of them can restore,
// and replays on fresh partitions — deterministically, so the final field
// is bitwise identical to a fault-free run.
#pragma once

#include <atomic>
#include <cstddef>
#include <vector>

#include "px/dist/distributed_domain.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/partition.hpp"

namespace px::stencil {

struct dist_heat_config {
  std::size_t nx_total = 1 << 20;  // global stencil points
  std::size_t steps = 100;
  double k = 0.25;  // Eq. 3 coefficient (alpha dt / dx^2)
  // Checkpoint every K steps (0 = checkpointing off). Recovery rolls back
  // to the newest multiple of K for which every partition has a surviving
  // checkpoint (step 0 — the initial condition — always qualifies).
  std::size_t checkpoint_interval = 0;
  // Distinct confirmed-failure recoveries tolerated before the run gives
  // up and rethrows. Locality 0 hosts the driver (the "console"); its
  // death is never recoverable.
  std::size_t max_recoveries = 4;
};

struct dist_heat_result {
  double seconds = 0.0;            // solve-phase wall time (loc 0's clock)
  double points_per_second = 0.0;
  std::vector<double> values;      // gathered global field
  std::uint64_t halo_messages = 0; // fabric messages exchanged
  std::size_t recoveries = 0;      // rollback-replay rounds performed
};

// The 1D heat partition kernel (Eq. 3), shared by run_distributed_heat1d
// and run_skewed_heat1d: a slab whose edge cells take their outer
// neighbour from the halo, or hold the global Dirichlet boundary.
class heat1d_kernel {
 public:
  using halo = double;
  struct params {
    double k = 0.25;
    // Synthetic per-cell work per step (skewed_heat_config::compute_cost).
    std::uint32_t compute_cost = 0;

    template <typename Archive>
    void serialize(Archive& ar) {
      ar& k& compute_cost;
    }
  };

  heat1d_kernel() = default;
  heat1d_kernel(params p, std::vector<double> slab)
      : p_(p), u_(std::move(slab)), next_(u_.size(), 0.0) {
    PX_ASSERT(u_.size() >= 2);
  }

  [[nodiscard]] params const& config() const { return p_; }
  [[nodiscard]] std::vector<double> values() const { return u_; }
  [[nodiscard]] double edge(side s) const {
    return s == side::lo ? u_.front() : u_.back();
  }
  [[nodiscard]] std::size_t length() const { return u_.size() - 2; }
  [[nodiscard]] std::size_t unit_cells() const { return 1; }

  void interior(std::size_t lo, std::size_t hi) {
    double const k = p_.k;
    double const* u = u_.data();
    for (std::size_t x = 1 + lo; x < 1 + hi; ++x)
      next_[x] = heat_update(u[x - 1], u[x], u[x + 1], k);
    // Synthetic work, discarded: it scales the step's compute with the
    // slab size so load imbalance is real, without touching the field.
    double burn = 0.0;
    for (std::uint32_t r = 0; r < p_.compute_cost; ++r)
      for (std::size_t x = 1 + lo; x < 1 + hi; ++x)
        burn += heat_update(u[x - 1], u[x], u[x + 1], k * 0.5);
    burn_sink.store(burn, std::memory_order_relaxed);
  }

  void edges(double const* lo, double const* hi) {
    std::size_t const n = u_.size();
    double const k = p_.k;
    next_[0] = lo != nullptr ? heat_update(*lo, u_[0], u_[1], k) : u_[0];
    next_[n - 1] = hi != nullptr ? heat_update(u_[n - 2], u_[n - 1], *hi, k)
                                 : u_[n - 1];
    u_.swap(next_);
  }

 private:
  static inline std::atomic<double> burn_sink{0.0};
  params p_;
  std::vector<double> u_, next_;
};

// Runs the solver across every locality of `dom`. `initial` must have
// nx_total elements; boundaries are Dirichlet. Returns the gathered field.
// Surviving an injected locality fail-stop requires the domain's failure
// detector (domain_config::resilience) and a nonzero checkpoint_interval;
// unrecoverable failures surface as px::dist::locality_down.
[[nodiscard]] dist_heat_result run_distributed_heat1d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    dist_heat_config cfg);

}  // namespace px::stencil
