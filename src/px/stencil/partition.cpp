#include "px/stencil/partition.hpp"

#include "px/resilience/checkpoint.hpp"

namespace px::stencil {
namespace {

// The locality's checkpoint store, bound lazily (registration-race safe:
// buddy puts and local puts can arrive concurrently).
constexpr char const ckpt_name[] = "px.stencil.partition.ckpt";

std::shared_ptr<resilience::checkpoint_store> ckpt_store(
    dist::locality& here) {
  auto g = here.agas().resolve_name(ckpt_name);
  if (!g.valid()) {
    auto store = std::make_shared<resilience::checkpoint_store>();
    auto bound = here.agas().bind(store);
    if (here.agas().register_name(ckpt_name, bound)) return store;
    here.agas().unbind(bound);
    g = here.agas().resolve_name(ckpt_name);
  }
  auto store = here.agas().resolve<resilience::checkpoint_store>(g);
  PX_ASSERT(store != nullptr);
  return store;
}

}  // namespace

void partition_ckpt_put(dist::locality& here, std::uint64_t key,
                        std::uint64_t step, std::vector<std::byte> blob) {
  ckpt_store(here)->put(key, step, std::move(blob));
}

std::vector<double> partition_ckpt_fetch(dist::locality& here,
                                         std::uint64_t key,
                                         std::uint64_t step) {
  auto blob = ckpt_store(here)->get(key, step);
  if (!blob.has_value())
    throw std::runtime_error("px::stencil: no checkpoint for partition " +
                             std::to_string(key) + " at step " +
                             std::to_string(step));
  counters::builtin().resilience_restores.add();
  return serial::from_bytes<std::vector<double>>(*blob);
}

std::vector<std::pair<std::uint64_t, std::uint64_t>> partition_ckpt_report(
    dist::locality& here) {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
  for (auto const& e : ckpt_store(here)->entries())
    out.emplace_back(e.object, e.version);
  return out;
}

void partition_ckpt_clear(dist::locality& here) {
  ckpt_store(here)->clear();
}

void partition_destroy(dist::locality& here, agas::gid g) {
  here.agas().unbind(g);
}

PX_REGISTER_ACTION(partition_ckpt_put)
PX_REGISTER_ACTION(partition_ckpt_fetch)
PX_REGISTER_ACTION(partition_ckpt_report)
PX_REGISTER_ACTION(partition_ckpt_clear)
PX_REGISTER_ACTION(partition_destroy)

void detail::checkpoint(dist::locality& here, checkpoint_plan const& plan,
                        std::uint64_t step, std::vector<double> const& block) {
  // Split-brain fence: a fenced (minority-side) host must not commit
  // checkpoints — the majority may be rolling this partition back or
  // rehoming it, and a minority-side checkpoint could later be restored
  // over the agreed state. Skipping is safe (recovery rolls back to an
  // older fully covered step); the refusal is counted.
  if (here.domain().is_fenced(here.id())) {
    (void)here.domain().membership().refusal(here.id());
    return;
  }
  auto blob = serial::to_bytes(block);
  ckpt_store(here)->put(plan.key, step, blob);
  if (plan.buddy == here.id()) return;
  // Synchronous: a checkpoint that might not have landed cannot be counted
  // on. A buddy that dies mid-write is survivable — recovery rolls back to
  // an older step that is fully covered — so the local copy stands.
  try {
    here.call<&partition_ckpt_put>(plan.buddy, plan.key, step,
                                   std::move(blob))
        .get();
  } catch (...) {
  }
}

}  // namespace px::stencil
