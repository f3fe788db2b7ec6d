// px/stencil/step_mailbox.hpp
// Halo values keyed by time step. Parcel handlers are ordinary tasks and
// may execute out of order on a multi-worker locality, so the distributed
// solvers match halos by step instead of assuming FIFO arrival.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "px/lcos/shared_state.hpp"
#include "px/support/spin.hpp"

namespace px::stencil {

template <typename T>
class step_mailbox {
 public:
  void put(std::uint64_t key, T value) {
    std::shared_ptr<px::lcos::detail::shared_state<T>> waiter;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      if (poison_ != nullptr) return;  // dead mailbox swallows late halos
      auto it = waiters_.find(key);
      if (it != waiters_.end()) {
        waiter = std::move(it->second);
        waiters_.erase(it);
      } else {
        values_.emplace(key, std::move(value));
        return;
      }
    }
    waiter->set_value(std::move(value));
  }

  // Suspends the calling task until the value for `key` has arrived.
  T get(std::uint64_t key) {
    std::shared_ptr<px::lcos::detail::shared_state<T>> state;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      if (poison_ != nullptr) std::rethrow_exception(poison_);
      auto it = values_.find(key);
      if (it != values_.end()) {
        T v = std::move(it->second);
        values_.erase(it);
        return v;
      }
      state = std::make_shared<px::lcos::detail::shared_state<T>>();
      waiters_.emplace(key, state);
    }
    return state->get();
  }

  // Kills the mailbox: every task currently suspended in get() is failed
  // with `reason`, every later get() throws it, every later put() is
  // silently swallowed. Used on confirmed locality failure — the waiters
  // would otherwise block forever on a halo that can no longer arrive.
  // Idempotent (the first reason wins).
  void poison(std::exception_ptr reason) {
    std::vector<std::shared_ptr<px::lcos::detail::shared_state<T>>> victims;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      if (poison_ != nullptr) return;
      poison_ = reason;
      victims.reserve(waiters_.size());
      for (auto& [key, waiter] : waiters_) victims.push_back(std::move(waiter));
      waiters_.clear();
      values_.clear();
    }
    for (auto& v : victims) v->set_exception(reason);
  }

  // Removes and returns every buffered (not yet consumed) value, sorted by
  // key for determinism. Migration support: a component being serialized
  // drains its mailboxes into the archive and re-puts the values on the
  // destination, so halos that landed before the pin travel with the
  // object instead of being lost.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, T>> drain_pending() {
    std::vector<std::pair<std::uint64_t, T>> out;
    {
      std::lock_guard<px::spinlock> guard(lock_);
      out.reserve(values_.size());
      for (auto& [key, value] : values_)
        out.emplace_back(key, std::move(value));
      values_.clear();
    }
    std::sort(out.begin(), out.end(),
              [](auto const& a, auto const& b) { return a.first < b.first; });
    return out;
  }

 private:
  mutable px::spinlock lock_;
  std::unordered_map<std::uint64_t, T> values_;
  std::unordered_map<std::uint64_t,
                     std::shared_ptr<px::lcos::detail::shared_state<T>>>
      waiters_;
  std::exception_ptr poison_;
};

}  // namespace px::stencil
