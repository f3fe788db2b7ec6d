// px/runtime/timer_service.hpp
// Process-wide deadline service. Suspended tasks register a wake time; a
// single timer thread (shared by all runtimes/localities) fires the wakes.
// Also used by the simulated fabric to deliver parcels after their modeled
// network delay without burning a worker.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "px/runtime/task.hpp"
#include "px/support/unique_function.hpp"

namespace px::rt {

// One-shot claim shared between a scheduled callback and anyone who may
// cancel it. Whoever claims first wins: the timer thread claims just before
// invoking the callback, a canceller claims to suppress it. Cancellation is
// lazy — the heap entry stays until its deadline and fires as a no-op —
// so a cancelled callback's captures are destroyed at the deadline, not at
// cancel time. The distributed domain's link retransmission and buffer
// deadline timers cancel a token to re-arm earlier, and cancel_and_wait
// it at teardown; the failure detector disarms its tick the same way.
class timer_token {
  enum : int { armed, cancelled, running, done };

 public:
  // True when this call suppressed the callback; false when the callback
  // already ran (or is running) or was cancelled before. Does NOT wait
  // for a concurrently running callback — safe to call under locks the
  // callback may take, but the caller must not tear down state the
  // callback touches (use cancel_and_wait for that).
  bool cancel() noexcept {
    int expected = armed;
    return state_.compare_exchange_strong(expected, cancelled,
                                          std::memory_order_acq_rel);
  }

  // As cancel(), but when the claim is lost to the timer thread — the
  // callback is about to run or is mid-flight — blocks until the callback
  // has returned. After this returns, the callback will never (or will
  // never again) touch its captures, so the caller may free what they
  // point at. Must not be called while holding a lock the callback
  // acquires, and never from the callback itself.
  bool cancel_and_wait() noexcept {
    if (cancel()) return true;
    while (state_.load(std::memory_order_acquire) == running)
      std::this_thread::yield();
    return false;
  }

  [[nodiscard]] bool is_armed() const noexcept {
    return state_.load(std::memory_order_acquire) == armed;
  }

 private:
  friend class timer_service;
  bool try_claim_for_run() noexcept {
    int expected = armed;
    return state_.compare_exchange_strong(expected, running,
                                          std::memory_order_acq_rel);
  }
  void mark_done() noexcept { state_.store(done, std::memory_order_release); }
  std::atomic<int> state_{armed};
};

class timer_service {
 public:
  using clock = std::chrono::steady_clock;

  static timer_service& instance();

  // Wakes `t` (via its owner's wake protocol) at or after `deadline`.
  void wake_at(clock::time_point deadline, task* t);

  // Runs `fn` on the timer thread at or after `deadline`. `fn` must be
  // cheap and non-blocking; anything heavier should spawn a task.
  void call_at(clock::time_point deadline, unique_function<void()> fn);

  // As call_at, but the callback only runs if `token` is still armed at
  // the deadline (token->cancel() beforehand suppresses it). The token
  // must be freshly armed; sharing one token across callbacks is a
  // first-fires-wins race by design.
  void call_at(clock::time_point deadline, unique_function<void()> fn,
               std::shared_ptr<timer_token> token);

  [[nodiscard]] std::size_t pending() const;

 private:
  timer_service();
  ~timer_service();

  void loop();

  struct entry {
    clock::time_point deadline;
    std::uint64_t seq;              // FIFO tie-break for equal deadlines:
                                    // parcels submitted in order must not
                                    // overtake each other on a tie
    task* waiter;                   // either this ...
    unique_function<void()> fn;     // ... or this
    bool operator>(entry const& o) const {
      if (deadline != o.deadline) return deadline > o.deadline;
      return seq > o.seq;
    }
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::priority_queue<entry, std::vector<entry>, std::greater<>> heap_;
  std::uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace px::rt
