// px/dist/migration.hpp
// AGAS object migration: moves a component's serialized state to another
// locality while its GID stays valid (the residence bits update, the id
// does not — ParalleX's "GID persists until object destruction").
//
// Departure is transactional (see docs/ARCHITECTURE.md §AGAS):
//
//   begin_migration (pin)  ->  ship state  ->  arrival ack  ->  commit
//                                          \-> transport failure -> abort
//
// The object stays bound (pinned `migrating`) at the source until the
// destination acknowledges the arrival bind; only the commit unbinds it
// and leaves the forwarding tombstone. A lost parcel, an exhausted retry
// budget (net::delivery_error) or a confirmed-dead destination
// (locality_down) rolls the departure back — the object never strands.
// Parcels addressed to the GID while it is pinned park at the source and
// are re-delivered on commit (they chase the tombstone) or abort (they
// dispatch locally).
//
// Types opt in with PX_REGISTER_MIGRATABLE(T); T must be serializable and
// default-constructible.
#pragma once

#include "px/dist/distributed_domain.hpp"

namespace px::dist {

// Arrival half, runs on the destination as a parcel action. Binds under the
// shipped residence epoch (each successful migration bumps it; the epoch is
// what gates every residence-cache and tombstone refresh) and returns the
// GID under which the object is now reachable.
template <typename T>
agas::gid migration_arrive(locality& here, agas::gid g,
                           std::vector<std::byte> bytes,
                           std::uint64_t epoch) {
  auto object = std::make_shared<T>(
      serial::from_bytes<T>(std::span<std::byte const>(bytes)));
  // Host-bound state that cannot travel (a confirm hook) is re-created by
  // the type's optional arrive(locality&).
  if constexpr (requires { object->arrive(here); }) object->arrive(here);
  agas::gid const resident = g.with_locality(here.id());
  here.agas().bind_existing(resident, std::move(object), epoch);
  here.residence().update(resident, here.id(), epoch);
  return resident;
}

// Compensation for the one non-atomic window left: the arrival bound but
// its acknowledgement was lost past the retry budget, so the source rolled
// back. The cancel (epoch-matched, so it can never kill a later successful
// migration's copy) unbinds the orphan. Registered in migration.cpp.
void migration_cancel(locality& here, agas::gid g, std::uint64_t epoch);

// Out-of-line sender for the cancel (defined in migration.cpp). Templates
// alone never reference a symbol from that TU, so a header-only apply<>
// would let the linker drop migration.cpp — and with it the cancel's
// PX_REGISTER_ACTION — from any binary using a static libpx. Calling
// through this function anchors the TU.
void send_migration_cancel(locality& from, std::uint32_t dest, agas::gid g,
                           std::uint64_t epoch);

// Departure half: pins the object, serializes, ships, and settles the
// transaction off the arrival acknowledgement. The returned future carries
// the object's post-migration GID, or the transport/validation failure.
template <typename T>
future<agas::gid> migrate(locality& from, agas::gid g, std::uint32_t dest) {
  auto& reg = from.agas();
  // Split-brain fence (docs/ARCHITECTURE.md §4.5): a locality on the
  // minority side of a partition must not commit migrations — the majority
  // may be concurrently confirming it dead and rehoming its objects, and a
  // commit here would fork the single-residence invariant. Refuse before
  // pinning anything; the caller may park the work and retry after heal.
  auto& dom = from.domain();
  if (dom.is_fenced(from.id()))
    return make_exceptional_future<agas::gid>(
        std::make_exception_ptr(dom.membership().refusal(from.id())));
  if (dom.is_fenced(dest))
    return make_exceptional_future<agas::gid>(
        std::make_exception_ptr(dom.membership().refusal(dest)));
  if (dest == from.id()) {
    // Migrate-to-self: a no-op, but only for an object actually here.
    if (reg.contains(g))
      return make_ready_future(g.with_locality(dest));
    return make_exceptional_future<agas::gid>(std::make_exception_ptr(
        std::runtime_error("px::dist::migrate: gid not resident here")));
  }
  auto object = reg.resolve<T>(g);
  if (object == nullptr) {
    char const* why =
        !reg.contains(g) ? "px::dist::migrate: gid not resident here"
        : reg.is_migrating(g)
            ? "px::dist::migrate: migration already in progress"
            : "px::dist::migrate: bound object has a different type";
    return make_exceptional_future<agas::gid>(
        std::make_exception_ptr(std::runtime_error(why)));
  }
  if (!reg.begin_migration(g))
    return make_exceptional_future<agas::gid>(
        std::make_exception_ptr(std::runtime_error(
            "px::dist::migrate: migration already in progress")));

  std::uint64_t const epoch = reg.epoch_of(g) + 1;
  std::vector<std::byte> bytes = serial::to_bytes(*object);
  object.reset();  // the pinned binding is the only owner during flight
  return from.call<&migration_arrive<T>>(dest, g, std::move(bytes), epoch)
      .then_on(from.sched(),
               [&from, g, dest, epoch](future<agas::gid> f) -> agas::gid {
                 try {
                   agas::gid const resident = f.get();
                   from.commit_component_migration(g, dest, epoch);
                   return resident;
                 } catch (...) {
                   from.abort_component_migration(g);
                   send_migration_cancel(from, dest, g.with_locality(dest),
                                         epoch);
                   throw;
                 }
               });
}

}  // namespace px::dist

// Registers the arrival action for a migratable type (unqualified type
// name, namespace scope). PX_REGISTER_MIGRATABLE_AS takes an explicit
// registration tag for types whose name is not an identifier (templates).
#define PX_REGISTER_MIGRATABLE_AS(T, tag)                                   \
  namespace {                                                               \
  [[maybe_unused]] ::std::uint32_t const px_migratable_registered_##tag =   \
      ::px::dist::register_action<&::px::dist::migration_arrive<T>>(        \
          "px.migrate." #tag);                                              \
  }

#define PX_REGISTER_MIGRATABLE(T) PX_REGISTER_MIGRATABLE_AS(T, T)
