#include "px/stencil/heat1d_distributed.hpp"

#include <algorithm>
#include <map>
#include <numeric>

#include "px/dist/collectives.hpp"
#include "px/support/timer.hpp"

namespace px::stencil {

dist_heat_result run_distributed_heat1d(px::dist::distributed_domain& dom,
                                        std::vector<double> const& initial,
                                        dist_heat_config cfg) {
  cfg.nx_total = initial.size();
  std::size_t const nloc = dom.size();
  std::size_t const nparts = nloc;  // one partition per original locality
  PX_ASSERT(cfg.nx_total >= 2 * nloc);

  std::uint64_t const messages_before =
      dom.fabric().counters().messages.load();

  auto result = dom.run([&](px::dist::locality& loc0) -> dist_heat_result {
    dist_heat_result res;
    high_resolution_timer timer;

    // Partition placement: p on locality p until a failure remaps it.
    std::vector<std::uint32_t> part_loc(nparts);
    std::iota(part_loc.begin(), part_loc.end(), std::uint32_t{0});

    auto slabs = px::dist::split_blocks(initial, nparts);
    std::uint64_t t0 = 0;

    for (;;) {
      // Each attempt runs on fresh partitions: halos still in flight from
      // an aborted attempt reach a retired GID or a poisoned mailbox and
      // can never leak into the replay.
      partition_chain<heat1d_kernel> chain(loc0);
      try {
        // The buddy is the host of the cyclically next partition.
        std::vector<checkpoint_plan> plans(nparts);
        for (std::size_t p = 0; p < nparts; ++p)
          plans[p] = {p, cfg.checkpoint_interval,
                      part_loc[(p + 1) % nparts]};
        chain.make(part_loc, {cfg.k, 0}, std::move(slabs), plans);
        chain.run(t0, cfg.steps);
        res.values = chain.fetch();
        break;
      } catch (...) {
        if (dom.confirmed_dead().empty()) throw;  // not a locality failure
        if (dom.is_confirmed_dead(0)) throw;  // the console died
        if (res.recoveries >= cfg.max_recoveries) throw;
        res.recoveries += 1;
        chain.destroy();

        // Remap partitions off the dead localities (round-robin to the
        // next survivor; locality 0 is alive, so this terminates).
        for (std::size_t p = 0; p < nparts; ++p) {
          std::uint32_t h = part_loc[p];
          while (dom.is_confirmed_dead(h))
            h = static_cast<std::uint32_t>((h + 1) % nloc);
          part_loc[p] = h;
        }

        // Find the newest step C every partition can restore from a
        // *surviving* store (the dead locality's store is lost with it).
        // Step 0 always qualifies: the driver still holds the initial
        // condition.
        std::vector<std::map<std::uint64_t, std::uint32_t>> holder(nparts);
        for (std::uint32_t l = 0; l < nloc; ++l) {
          if (dom.is_confirmed_dead(l)) continue;
          auto const report = loc0.call<&partition_ckpt_report>(l).get();
          for (auto const& [p, step] : report)
            if (p < nparts) holder[p].emplace(step, l);
        }
        std::uint64_t C = 0;
        if (cfg.checkpoint_interval != 0) {
          for (std::uint64_t cand = cfg.steps - cfg.steps %
                                                    cfg.checkpoint_interval;
               cand != 0 && C == 0; cand -= cfg.checkpoint_interval)
            if (std::all_of(holder.begin(), holder.end(),
                            [&](auto const& h) { return h.count(cand); }))
              C = cand;
        }

        // Restore every partition's slab at step C and replay from there.
        // Rolling *all* partitions back (not just the lost ones) keeps the
        // stencil globally consistent: step C's halo exchange happens
        // afresh for everyone.
        slabs = px::dist::split_blocks(initial, nparts);
        if (C != 0)
          for (std::size_t p = 0; p < nparts; ++p)
            slabs[p] =
                loc0.call<&partition_ckpt_fetch>(holder[p].at(C), p, C).get();
        t0 = C;
      }
    }
    res.seconds = timer.elapsed();

    // Drop this solve's checkpoints on the survivors.
    if (cfg.checkpoint_interval != 0) {
      std::vector<future<void>> done;
      for (std::uint32_t l = 0; l < nloc; ++l)
        if (!dom.is_confirmed_dead(l))
          done.push_back(loc0.call<&partition_ckpt_clear>(l));
      for (auto& f : done) f.get();
    }
    return res;
  });

  result.points_per_second =
      result.seconds > 0.0
          ? static_cast<double>(cfg.nx_total) *
                static_cast<double>(cfg.steps) / result.seconds
          : 0.0;
  result.halo_messages =
      dom.fabric().counters().messages.load() - messages_before;
  return result;
}

}  // namespace px::stencil
