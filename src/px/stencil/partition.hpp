// px/stencil/partition.hpp
// The partition engine behind the distributed stencil drivers
// (docs/ARCHITECTURE.md §4, "Partition engine"): a chain of partitions,
// each one AGAS component addressed only by GID and holding a kernel, one
// step-keyed halo mailbox per side (p-1 is side lo, p+1 side hi) and a
// checkpoint plan. partition_run is the one step loop.
//
// A kernel K provides: `halo`; a serializable `params`; K(params,
// std::vector<double> block); config(); values(), the block now;
// edge(side); length() and unit_cells(), its interior units and the cells
// in one; interior(lo, hi) over units [lo, hi); and edges(halo const* lo,
// halo const* hi), nullptr at the global boundary, which ends the step.
//
// While a partition exists, any confirmed locality death poisons its
// mailboxes, so a run waiting on a halo that cannot come throws. The
// confirm hook dies with the mailboxes; a migration re-arms it on the
// destination, and a partition that migrated across a membership change
// arrives poisoned. A halo for a retired partition is dropped.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <utility>
#include <vector>

#include "px/dist/migration.hpp"
#include "px/lcos/when_all.hpp"
#include "px/parallel/algorithms.hpp"
#include "px/stencil/step_mailbox.hpp"

namespace px::stencil {

enum class side : std::uint8_t { lo = 0, hi = 1 };

// Step t's pre-step block is saved as (key, t) in the host's checkpoint
// store and the buddy's whenever t is a multiple of `interval` (0 = never)
// past the run's first step.
struct checkpoint_plan {
  std::uint64_t key = 0;
  std::uint64_t interval = 0;
  std::uint32_t buddy = 0;

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& key& interval& buddy;
  }
};

// Actions on the locality's checkpoint store (partition.cpp).
std::vector<double> partition_ckpt_fetch(dist::locality& here,
                                         std::uint64_t key,
                                         std::uint64_t step);
// The (key, step) of every stored checkpoint.
std::vector<std::pair<std::uint64_t, std::uint64_t>> partition_ckpt_report(
    dist::locality& here);
void partition_ckpt_clear(dist::locality& here);
// Retires a partition of any kernel without reading it (fire and forget).
void partition_destroy(dist::locality& here, agas::gid g);

namespace detail {

// A fenced host commits nothing; an unreachable buddy leaves the local
// copy standing.
void checkpoint(dist::locality& here, checkpoint_plan const& plan,
                std::uint64_t step, std::vector<double> const& block);

}  // namespace detail

// The component; serializable so px::dist::migrate can move it, buffered
// halos included.
template <typename Kernel>
struct partition {
  using halo = typename Kernel::halo;

  struct mailboxes {
    step_mailbox<halo> from[2];  // indexed by side
    dist::distributed_domain* dom = nullptr;
    std::uint64_t hook = 0;

    mailboxes() = default;
    mailboxes(mailboxes const&) = delete;
    mailboxes& operator=(mailboxes const&) = delete;
    ~mailboxes() {
      if (dom != nullptr) dom->remove_confirm_hook(hook);
    }
    void poison(std::exception_ptr why) {
      for (auto& box : from) box.poison(why);
    }
  };

  Kernel kernel;
  checkpoint_plan ckpt;
  std::uint64_t epoch = 0;  // the domain's membership epoch at make
  std::shared_ptr<mailboxes> mail = std::make_shared<mailboxes>();

  void arm(dist::locality& here) {
    mail->dom = &here.domain();
    mail->hook = here.domain().add_confirm_hook(
        [weak = std::weak_ptr<mailboxes>(mail)](std::uint32_t victim) {
          if (auto m = weak.lock())
            m->poison(std::make_exception_ptr(dist::locality_down(victim)));
        });
  }

  // Migration arrival (px::dist::migration_arrive).
  void arrive(dist::locality& here) {
    arm(here);
    if (here.domain().membership_epoch() != epoch)
      mail->poison(std::make_exception_ptr(std::runtime_error(
          "px::stencil: partition migrated across a membership change")));
  }

  template <typename Archive>
  void serialize(Archive& ar) {
    if constexpr (Archive::is_saving) {
      ar& kernel.config() & kernel.values() & ckpt& epoch;
      for (auto& box : mail->from) ar& box.drain_pending();
    } else {
      typename Kernel::params params;
      std::vector<double> block;
      ar& params& block& ckpt& epoch;
      kernel = Kernel(params, std::move(block));
      for (auto& box : mail->from) {
        std::vector<std::pair<std::uint64_t, halo>> pending;
        ar& pending;
        for (auto& [step, value] : pending) box.put(step, std::move(value));
      }
    }
  }
};

// ---- actions ------------------------------------------------------------

template <typename Kernel>
agas::gid partition_make(dist::locality& here,
                         typename Kernel::params params,
                         std::vector<double> block, checkpoint_plan ckpt) {
  auto part = std::make_shared<partition<Kernel>>();
  part->kernel = Kernel(params, std::move(block));
  part->ckpt = ckpt;
  part->arm(here);
  part->epoch = here.domain().membership_epoch();
  return here.agas().bind(std::move(part));
}

template <typename Kernel>
std::shared_ptr<partition<Kernel>> resident_partition(dist::locality& here,
                                                      agas::gid g) {
  auto part = here.agas().resolve<partition<Kernel>>(g);
  if (part == nullptr)
    throw std::runtime_error("px::stencil: partition " + g.to_string() +
                             " not resident");
  return part;
}

// `from` is the receiver's side the halo arrives on.
template <typename Kernel>
void partition_halo_put(dist::locality& here, agas::gid g,
                        std::uint64_t step, side from,
                        typename Kernel::halo value) {
  if (auto part = here.agas().resolve<partition<Kernel>>(g))
    part->mail->from[static_cast<int>(from)].put(step, std::move(value));
}

// Advances the partition over steps [t0, t1); a neighbour GID is invalid
// at the global boundary. Each step reports progress to the fault plane,
// checkpoints when the plan says so, ships both edges and flushes the
// coalescing buffers, updates the interior while the halos travel, then
// takes the halos (suspending the task, not the worker) and updates the
// edges: the latency hiding of §V-A.
template <typename Kernel>
int partition_run(dist::locality& here, agas::gid self, std::uint64_t t0,
                  std::uint64_t t1, agas::gid lo, agas::gid hi) {
  auto part = resident_partition<Kernel>(here, self);
  Kernel& k = part->kernel;
  auto& dom = here.domain();
  // The one interior rule: inline on a one-worker locality (chunk tasks
  // would only add fiber switches), else up to four chunks per worker of
  // at least 512 cells each.
  std::size_t const units = k.length();
  std::size_t const workers = here.sched().num_workers();
  std::size_t const chunks =
      workers <= 1 ? 1
                   : std::min({workers * 4, units,
                               std::max<std::size_t>(
                                   units * k.unit_cells() / 512, 1)});

  for (std::uint64_t t = t0; t < t1; ++t) {
    dom.fabric().faults().advance_step(t);
    if (part->ckpt.interval != 0 && t > t0 && t % part->ckpt.interval == 0)
      detail::checkpoint(here, part->ckpt, t, k.values());

    if (lo.valid())
      here.apply_component<&partition_halo_put<Kernel>>(lo, t, side::hi,
                                                        k.edge(side::lo));
    if (hi.valid())
      here.apply_component<&partition_halo_put<Kernel>>(hi, t, side::lo,
                                                        k.edge(side::hi));
    dom.flush_coalescing();

    parallel::detail::bulk_run(
        execution::par, here.sched(), units, chunks,
        [&k](std::size_t a, std::size_t b, std::size_t) { k.interior(a, b); });

    std::optional<typename Kernel::halo> from_lo, from_hi;
    if (lo.valid()) from_lo = part->mail->from[0].get(t);
    if (hi.valid()) from_hi = part->mail->from[1].get(t);
    k.edges(from_lo ? &*from_lo : nullptr, from_hi ? &*from_hi : nullptr);
  }
  return static_cast<int>(here.id());
}

// Returns the block and retires the partition.
template <typename Kernel>
std::vector<double> partition_fetch(dist::locality& here, agas::gid g) {
  auto part = resident_partition<Kernel>(here, g);
  here.agas().unbind(g);
  return part->kernel.values();
}

// Runs at the partition's current host, where a departure is pinned.
template <typename Kernel>
agas::gid partition_migrate(dist::locality& here, agas::gid g,
                            std::uint32_t dest) {
  return dist::migrate<partition<Kernel>>(here, g, dest).get();
}

namespace detail {

// The driver registers a kernel's actions on first use.
template <typename Kernel>
bool register_kernel() {
  std::string const tag = std::string("px.partition.") + typeid(Kernel).name();
  dist::register_action<&partition_make<Kernel>>(tag + ".make");
  dist::register_action<&partition_halo_put<Kernel>>(tag + ".halo_put");
  dist::register_action<&partition_run<Kernel>>(tag + ".run");
  dist::register_action<&partition_fetch<Kernel>>(tag + ".fetch");
  dist::register_action<&partition_migrate<Kernel>>(tag + ".migrate");
  dist::register_action<&dist::migration_arrive<partition<Kernel>>>(
      tag + ".arrive");
  return true;
}

}  // namespace detail

// Driver-side handle on one chain of partitions, used from a task on the
// console locality. Each operation waits for every partition before it
// rethrows the first failure: no task it started outlives it.
template <typename Kernel>
class partition_chain {
 public:
  explicit partition_chain(dist::locality& console) : console_(console) {
    [[maybe_unused]] static bool const registered =
        detail::register_kernel<Kernel>();
  }

  // Makes partition p from blocks[p] on homes[p] and waits for all of
  // them, so a run can address every neighbour from its first step. On
  // failure the partitions made so far stay in gids() for destroy().
  void make(std::vector<std::uint32_t> const& homes,
            typename Kernel::params const& params,
            std::vector<std::vector<double>> blocks,
            std::vector<checkpoint_plan> const& plans = {}) {
    std::vector<future<agas::gid>> made;
    for (std::size_t p = 0; p < homes.size(); ++p)
      made.push_back(console_.call<&partition_make<Kernel>>(
          homes[p], params, std::move(blocks[p]),
          plans.empty() ? checkpoint_plan{} : plans[p]));
    px::wait_all(made);
    gids_.assign(homes.size(), agas::invalid_gid);
    for (std::size_t p = 0; p < homes.size(); ++p)
      if (!made[p].has_exception()) gids_[p] = made[p].get();
    for (auto& f : made)
      if (f.valid()) f.get();
  }

  // Advances every partition over steps [t0, t1).
  void run(std::uint64_t t0, std::uint64_t t1) {
    std::size_t const n = gids_.size();
    std::vector<future<int>> runs;
    for (std::size_t p = 0; p < n; ++p)
      runs.push_back(console_.call_component<&partition_run<Kernel>>(
          gids_[p], t0, t1, p > 0 ? gids_[p - 1] : agas::invalid_gid,
          p + 1 < n ? gids_[p + 1] : agas::invalid_gid));
    px::wait_all(runs);
    for (auto& f : runs) f.get();
  }

  // Gathers the blocks in chain order and retires the partitions.
  std::vector<double> fetch() {
    std::vector<future<std::vector<double>>> fetched;
    for (agas::gid g : gids_)
      fetched.push_back(console_.call_component<&partition_fetch<Kernel>>(g));
    px::wait_all(fetched);
    std::vector<double> out;
    for (auto& f : fetched) {
      auto const block = f.get();
      out.insert(out.end(), block.begin(), block.end());
    }
    gids_.clear();
    return out;
  }

  // Retires the partitions of an aborted attempt, without waiting: one
  // on a dead host is gone anyway.
  void destroy() {
    for (agas::gid g : gids_)
      if (g.valid()) console_.apply_component<&partition_destroy>(g);
    gids_.clear();
  }

  [[nodiscard]] std::vector<agas::gid> const& gids() const { return gids_; }

 private:
  dist::locality& console_;
  std::vector<agas::gid> gids_;
};

}  // namespace px::stencil
