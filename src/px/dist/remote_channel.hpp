// px/dist/remote_channel.hpp
// A channel addressable across localities by GID (hpx::lcos::channel): the
// owner locality binds the component and receives locally; any locality
// sends through a parcel action. Payloads must be serializable.
//
// Types opt in with PX_REGISTER_REMOTE_CHANNEL(T) at namespace scope.
#pragma once

#include "px/dist/distributed_domain.hpp"
#include "px/lcos/channel.hpp"

namespace px::dist {

template <typename T>
struct remote_channel_component {
  px::channel<T> local;
};

// The parcel action carrying a value to the owning locality's channel.
template <typename T>
void remote_channel_put(locality& here, agas::gid g, T value) {
  auto comp = here.agas().resolve<remote_channel_component<T>>(g);
  if (comp == nullptr) {
    // A put racing remote_channel::close (or arriving after it, e.g. a
    // retransmitted duplicate on a lossy fabric) is a graceful drop, not
    // an error: the component is gone, the value has nowhere to land.
    counters::builtin().net_dead_letters.add();
    return;
  }
  comp->local.send(std::move(value));
}

template <typename T>
class remote_channel {
 public:
  // Creates the channel on `owner` and returns a handle usable anywhere.
  static remote_channel create(locality& owner) {
    remote_channel ch;
    ch.gid_ = owner.agas().bind(
        std::make_shared<remote_channel_component<T>>());
    return ch;
  }

  // Rebuilds a handle from a GID (e.g. received through another action).
  static remote_channel from_gid(agas::gid g) {
    remote_channel ch;
    ch.gid_ = g;
    return ch;
  }

  [[nodiscard]] agas::gid gid() const noexcept { return gid_; }

  // Sends from any locality; intra-locality sends skip the wire.
  void send(locality& from, T value) const {
    PX_ASSERT(gid_.valid());
    if (from.id() == gid_.locality()) {
      auto comp =
          from.agas().resolve<remote_channel_component<T>>(gid_);
      PX_ASSERT(comp != nullptr);
      comp->local.send(std::move(value));
      return;
    }
    from.apply<&remote_channel_put<T>>(gid_.locality(), gid_,
                                       std::move(value));
  }

  // Receives on the owner (asserts if called elsewhere — values live in
  // the owner's memory; remote receive would be a pull parcel, which the
  // 1D solver's push design never needs).
  [[nodiscard]] future<T> receive(locality& here) const {
    PX_ASSERT(gid_.valid());
    PX_ASSERT_MSG(here.id() == gid_.locality(),
                  "remote_channel::receive on non-owner locality");
    auto comp = here.agas().resolve<remote_channel_component<T>>(gid_);
    PX_ASSERT(comp != nullptr);
    return comp->local.receive();
  }

  // Destroys the component on the owner.
  void close(locality& owner) const {
    PX_ASSERT(owner.id() == gid_.locality());
    owner.agas().unbind(gid_);
  }

  template <typename Archive>
  void serialize(Archive& ar) {
    ar& gid_;
  }

 private:
  agas::gid gid_{};
};

}  // namespace px::dist

#define PX_REGISTER_REMOTE_CHANNEL(T)                                        \
  namespace {                                                                \
  [[maybe_unused]] ::std::uint32_t const px_remote_channel_##T =             \
      ::px::dist::register_action<&::px::dist::remote_channel_put<T>>(       \
          "px.remote_channel." #T);                                          \
  }
