// px/dist/partitioned_vector.hpp
// A distributed vector in the hpx::partitioned_vector mold: the element
// range is block-decomposed over the localities, each block living as an
// AGAS component on its locality. Element access resolves the owning block
// and either touches local memory or ships a parcel; bulk operations work
// block-at-a-time.
//
// Every operation addresses blocks purely by GID (locality::call_component:
// residence cache + forwarding tombstones pick the wire hop), so blocks are
// migratable: migrate_block() ships one to another locality and every
// outstanding handle keeps working, courtesy of the AGAS layer — handles
// are never told about moves.
//
// Types opt in with PX_REGISTER_PARTITIONED_VECTOR(T) at namespace scope.
#pragma once

#include <numeric>

#include "px/dist/distributed_domain.hpp"
#include "px/dist/migration.hpp"

namespace px::dist {

template <typename T>
struct pv_block {
  std::vector<T> data;

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& data;
  }
};

// ---- per-block actions -----------------------------------------------------

template <typename T>
T pv_get(locality& here, agas::gid g, std::uint64_t index) {
  auto block = here.agas().resolve<pv_block<T>>(g);
  if (block == nullptr || index >= block->data.size())
    throw std::runtime_error("px::dist::partitioned_vector: bad access");
  return block->data[index];
}

template <typename T>
void pv_set(locality& here, agas::gid g, std::uint64_t index, T value) {
  auto block = here.agas().resolve<pv_block<T>>(g);
  if (block == nullptr || index >= block->data.size())
    throw std::runtime_error("px::dist::partitioned_vector: bad access");
  block->data[index] = std::move(value);
}

template <typename T>
agas::gid pv_create_block(locality& here, std::uint64_t count, T init) {
  auto block = std::make_shared<pv_block<T>>();
  block->data.assign(count, init);
  return here.agas().bind(std::move(block));
}

template <typename T>
std::vector<T> pv_read_block(locality& here, agas::gid g) {
  auto block = here.agas().resolve<pv_block<T>>(g);
  if (block == nullptr)
    throw std::runtime_error("px::dist::partitioned_vector: unknown block");
  return block->data;
}

template <typename T>
void pv_write_block(locality& here, agas::gid g, std::vector<T> values) {
  auto block = here.agas().resolve<pv_block<T>>(g);
  if (block == nullptr || values.size() != block->data.size())
    throw std::runtime_error("px::dist::partitioned_vector: bad write");
  block->data = std::move(values);
}

template <typename T>
T pv_block_sum(locality& here, agas::gid g) {
  auto block = here.agas().resolve<pv_block<T>>(g);
  if (block == nullptr)
    throw std::runtime_error("px::dist::partitioned_vector: unknown block");
  return std::accumulate(block->data.begin(), block->data.end(), T{});
}

template <typename T>
int pv_destroy_block(locality& here, agas::gid g) {
  return here.agas().unbind(g) ? 1 : 0;
}

// Departure half of a block move. Routed to the block itself via
// call_component, so it always runs at the block's *current* residence —
// exactly where migrate() must start.
template <typename T>
agas::gid pv_migrate_block(locality& here, agas::gid g, std::uint32_t dest) {
  return migrate<pv_block<T>>(here, g, dest).get();
}

// ---- the handle --------------------------------------------------------------

template <typename T>
class partitioned_vector {
 public:
  partitioned_vector() = default;

  // Creates one block per locality, filled with `init`. Call from a task
  // on any locality.
  static partitioned_vector create(locality& from, std::size_t size,
                                   T init = T{}) {
    partitioned_vector pv;
    pv.size_ = size;
    std::size_t const nloc = from.domain().size();
    std::size_t const base = size / nloc;
    std::size_t const extra = size % nloc;
    std::vector<future<agas::gid>> pending;
    std::uint64_t offset = 0;
    for (std::size_t l = 0; l < nloc; ++l) {
      std::uint64_t const count = base + (l < extra ? 1 : 0);
      pv.offsets_.push_back(offset);
      offset += count;
      pending.push_back(from.call<&pv_create_block<T>>(
          static_cast<std::uint32_t>(l), count, T(init)));
    }
    for (auto& f : pending) pv.blocks_.push_back(f.get());
    return pv;
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t num_blocks() const noexcept {
    return blocks_.size();
  }
  [[nodiscard]] agas::gid block_gid(std::size_t b) const {
    return blocks_.at(b);
  }

  // Creation-time placement of element i: a first-hop hint, not the
  // truth — migrate_block moves blocks without updating handles. The AGAS
  // residence cache and forwarding correct stale hops transparently.
  [[nodiscard]] std::uint32_t owner_of(std::size_t i) const {
    return blocks_[block_of(i)].locality();
  }

  // Migrates block b to `dest` and returns its post-move GID. Other
  // handles (and this one) keep routing through the old GID — the
  // tombstone chain and residence caches take care of them.
  [[nodiscard]] agas::gid migrate_block(locality& from, std::size_t b,
                                        std::uint32_t dest) {
    agas::gid const moved =
        from.call_component<&pv_migrate_block<T>>(blocks_.at(b), dest).get();
    blocks_[b] = moved;
    return moved;
  }

  // ---- element access ----------------------------------------------------
  [[nodiscard]] future<T> get_async(locality& from, std::size_t i) const {
    std::size_t const b = block_of(i);
    return from.call_component<&pv_get<T>>(
        blocks_[b], static_cast<std::uint64_t>(i - offsets_[b]));
  }
  [[nodiscard]] T get(locality& from, std::size_t i) const {
    return get_async(from, i).get();
  }

  [[nodiscard]] future<void> set_async(locality& from, std::size_t i,
                                       T value) const {
    std::size_t const b = block_of(i);
    return from.call_component<&pv_set<T>>(
        blocks_[b], static_cast<std::uint64_t>(i - offsets_[b]),
        std::move(value));
  }
  void set(locality& from, std::size_t i, T value) const {
    set_async(from, i, std::move(value)).get();
  }

  // ---- bulk operations ------------------------------------------------------
  // Gathers the full contents (block-parallel).
  [[nodiscard]] std::vector<T> gather(locality& from) const {
    std::vector<future<std::vector<T>>> pending;
    pending.reserve(blocks_.size());
    for (auto const& g : blocks_)
      pending.push_back(from.call_component<&pv_read_block<T>>(g));
    std::vector<T> out;
    out.reserve(size_);
    for (auto& f : pending) {
      auto block = f.get();
      out.insert(out.end(), block.begin(), block.end());
    }
    return out;
  }

  // Scatters `values` (must match size()) back into the blocks.
  void scatter(locality& from, std::vector<T> const& values) const {
    PX_ASSERT(values.size() == size_);
    std::vector<future<void>> pending;
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      std::size_t const lo = offsets_[b];
      std::size_t const hi =
          b + 1 < blocks_.size() ? offsets_[b + 1] : size_;
      pending.push_back(from.call_component<&pv_write_block<T>>(
          blocks_[b],
          std::vector<T>(values.begin() + static_cast<std::ptrdiff_t>(lo),
                         values.begin() + static_cast<std::ptrdiff_t>(hi))));
    }
    for (auto& f : pending) f.get();
  }

  // Distributed sum: each block reduces locally, partials fold here.
  [[nodiscard]] T sum(locality& from) const {
    std::vector<future<T>> pending;
    pending.reserve(blocks_.size());
    for (auto const& g : blocks_)
      pending.push_back(from.call_component<&pv_block_sum<T>>(g));
    T total{};
    for (auto& f : pending) total = total + f.get();
    return total;
  }

  // Destroys every block.
  void destroy(locality& from) {
    std::vector<future<int>> pending;
    for (auto const& g : blocks_)
      pending.push_back(from.call_component<&pv_destroy_block<T>>(g));
    for (auto& f : pending) f.get();
    blocks_.clear();
    offsets_.clear();
    size_ = 0;
  }

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& size_& blocks_& offsets_;
  }

 private:
  [[nodiscard]] std::size_t block_of(std::size_t i) const {
    PX_ASSERT(i < size_);
    // offsets_ is sorted; blocks are few (one per locality).
    std::size_t b = blocks_.size() - 1;
    while (offsets_[b] > i) --b;
    return b;
  }

  std::size_t size_ = 0;
  std::vector<agas::gid> blocks_;
  std::vector<std::uint64_t> offsets_;
};

}  // namespace px::dist

#define PX_DETAIL_REGISTER_PV_ACTION(T, fn) \
  ::px::dist::register_action<&::px::dist::fn<T>>("px.pv." #fn "." #T);

#define PX_REGISTER_PARTITIONED_VECTOR(T)                                    \
  namespace {                                                                \
  [[maybe_unused]] bool const px_pv_registered_##T = [] {                    \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_get)                                  \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_set)                                  \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_create_block)                         \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_read_block)                           \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_write_block)                          \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_block_sum)                            \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_destroy_block)                        \
    PX_DETAIL_REGISTER_PV_ACTION(T, pv_migrate_block)                        \
    ::px::dist::register_action<                                             \
        &::px::dist::migration_arrive<::px::dist::pv_block<T>>>(             \
        "px.migrate.pv_block." #T);                                          \
    return true;                                                             \
  }();                                                                       \
  }
