#include "px/stencil/heat1d_rebalance.hpp"

#include <cmath>

#include "px/stencil/heat1d_distributed.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {

std::vector<std::size_t> zipf_partition_sizes(std::size_t nx_total,
                                              std::size_t parts, double s) {
  PX_ASSERT(parts >= 1 && nx_total >= 2 * parts);
  std::vector<double> w(parts);
  double total = 0.0;
  for (std::size_t p = 0; p < parts; ++p) {
    w[p] = 1.0 / std::pow(static_cast<double>(p + 1), s);
    total += w[p];
  }
  std::vector<std::size_t> sizes(parts);
  std::size_t assigned = 0;
  for (std::size_t p = 0; p < parts; ++p) {
    auto cells = static_cast<std::size_t>(
        std::floor(static_cast<double>(nx_total) * w[p] / total));
    sizes[p] = std::max<std::size_t>(cells, 2);
    assigned += sizes[p];
  }
  // Settle the rounding residue on the largest partition (deterministic;
  // sizes stay ≥ 2 because over-assignment is at most parts * 2 cells and
  // partition 0 holds the zipf head).
  while (assigned > nx_total) {
    std::size_t big = 0;
    for (std::size_t p = 1; p < parts; ++p)
      if (sizes[p] > sizes[big]) big = p;
    PX_ASSERT(sizes[big] > 2);
    --sizes[big];
    --assigned;
  }
  if (assigned < nx_total) sizes[0] += nx_total - assigned;
  return sizes;
}

skewed_heat_result run_skewed_heat1d(px::dist::distributed_domain& dom,
                                     std::vector<double> const& initial,
                                     skewed_heat_config cfg) {
  cfg.nx_total = initial.size();
  std::size_t const nparts = cfg.partitions;
  std::size_t const nloc = dom.size();
  auto const sizes = zipf_partition_sizes(cfg.nx_total, nparts, cfg.zipf_s);

  return dom.run([&](px::dist::locality& loc0) -> skewed_heat_result {
    skewed_heat_result res;
    high_resolution_timer timer;

    // Create the partitions, round-robin over localities. Combined with
    // zipf sizes this concentrates the heaviest slabs on the low
    // localities — the imbalance the rebalancer exists to fix.
    std::vector<std::uint32_t> homes(nparts);
    std::vector<std::vector<double>> slabs(nparts);
    std::size_t offset = 0;
    for (std::size_t p = 0; p < nparts; ++p) {
      homes[p] = static_cast<std::uint32_t>(p % nloc);
      slabs[p].assign(
          initial.begin() + static_cast<std::ptrdiff_t>(offset),
          initial.begin() + static_cast<std::ptrdiff_t>(offset + sizes[p]));
      offset += sizes[p];
    }
    partition_chain<heat1d_kernel> chain(loc0);
    chain.make(homes, {cfg.k, cfg.compute_cost}, std::move(slabs));

    agas::rebalance_config rcfg = cfg.rebalance_cfg;
    rcfg.enabled = rcfg.enabled && cfg.rebalance;
    agas::rebalancer reb(
        dom, rcfg, [&loc0](agas::gid g, std::uint32_t from, std::uint32_t to) {
          return loc0.call<&partition_migrate<heat1d_kernel>>(from, g, to);
        });
    for (std::size_t p = 0; p < nparts; ++p)
      reb.add_partition(p, chain.gids()[p], homes[p],
                        static_cast<double>(sizes[p]));
    res.imbalance_initial = agas::load_imbalance(reb.loads());

    // Round loop: solve a block of steps to a barrier, then let the
    // rebalancer take one pass. The driver keeps using the creation-time
    // GIDs throughout — residence staleness is the AGAS layer's problem
    // (first hop from the cache, corrected by forwards).
    for (std::uint64_t t0 = 0; t0 < cfg.steps; t0 += cfg.steps_per_round) {
      std::uint64_t const t1 =
          std::min<std::uint64_t>(cfg.steps, t0 + cfg.steps_per_round);
      high_resolution_timer round_timer;
      chain.run(t0, t1);
      res.round_seconds.push_back(round_timer.elapsed());
      res.rounds += 1;
      if (t1 < cfg.steps) reb.step();
    }
    res.migrations = reb.total_moves();
    res.imbalance_final = agas::load_imbalance(reb.loads());
    res.seconds = timer.elapsed();
    res.values = chain.fetch();
    return res;
  });
}

}  // namespace px::stencil
