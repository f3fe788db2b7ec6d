// px/stencil/heat1d_rebalance.hpp
// Zipf-skewed 1D heat solver over migratable partition components.
//
// The partitions are components of the partition engine
// (px/stencil/partition.hpp) running the same heat1d_kernel as
// run_distributed_heat1d. Every halo and every round kick-off is addressed
// by GID, so the px::agas::rebalancer can migrate a partition between
// rounds and nothing but the AGAS layer (residence cache, forwarding
// tombstones) has to notice.
//
// Partition sizes follow a zipf distribution (|slab_p| ∝ 1/(p+1)^s) and
// initial placement is round-robin, which deliberately overloads the low
// localities — the rebalancer invoked at every round boundary then
// migrates hot partitions toward idle localities. The computation is
// placement-independent: the final field is bitwise identical whether the
// rebalancer moved everything or nothing (the torture suite pins this).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "px/agas/rebalance.hpp"
#include "px/dist/distributed_domain.hpp"

namespace px::stencil {

struct skewed_heat_config {
  std::size_t nx_total = 0;  // filled from the initial field
  std::size_t partitions = 16;
  std::uint64_t steps = 64;
  // Rebalancer period: rounds of this many steps run to a barrier, then
  // the rebalancer gets one pass.
  std::uint64_t steps_per_round = 8;
  double k = 0.25;
  double zipf_s = 1.1;  // partition-size skew exponent (0 = uniform)
  // Extra per-cell compute per step (repeated smoothing of a scratch
  // copy, discarded). Models solvers whose per-cell work dwarfs the
  // 3-point stencil; gives the rebalancer a real imbalance to fix without
  // perturbing the field values.
  std::uint32_t compute_cost = 0;
  bool rebalance = true;  // ANDed with rebalance_cfg.enabled
  agas::rebalance_config rebalance_cfg;
};

struct skewed_heat_result {
  std::vector<double> values;  // final temperature field
  double seconds = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t migrations = 0;        // committed rebalancer moves
  std::vector<double> round_seconds;   // driver-side wall time per round
  double imbalance_initial = 1.0;      // weight imbalance before round 0
  double imbalance_final = 1.0;        // after the last rebalance pass
};

// Deterministic zipf split: sizes[p] ∝ 1/(p+1)^s, every partition ≥ 2
// cells, sizes sum to exactly nx_total (largest partition absorbs the
// rounding residue). Requires nx_total ≥ 2 * parts.
[[nodiscard]] std::vector<std::size_t> zipf_partition_sizes(
    std::size_t nx_total, std::size_t parts, double s);

[[nodiscard]] skewed_heat_result run_skewed_heat1d(
    px::dist::distributed_domain& dom, std::vector<double> const& initial,
    skewed_heat_config cfg);

}  // namespace px::stencil
