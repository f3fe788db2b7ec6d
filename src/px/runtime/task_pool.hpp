// px/runtime/task_pool.hpp
// Two-level freelist of fixed-size task blocks, mirroring the fiber stack
// pool one layer down: a spawn in steady state should reuse a block a
// finished task just vacated instead of hitting the global allocator.
//
// Level 1 (task_freelist): per-worker, touched only by its owning OS
// thread, so get/put are a pointer swap with no synchronization at all.
// Level 2 (task_block_pool): scheduler-wide, spinlocked, absorbing the
// imbalance when one worker spawns and another retires (otherwise the
// spawner's freelist would starve while the retirer's overflows).
//
// Blocks are raw storage — allocation/placement-new/destruction stay in
// scheduler::spawn/retire, which know sizeof(task); both levels just move
// void*s and are allocation-free themselves (intrusive links reuse the
// block's own first pointer-width bytes).
#pragma once

#include <cstddef>
#include <mutex>

#include "px/support/spin.hpp"

namespace px::rt {

namespace detail {
struct free_block {
  free_block* next;
};
}  // namespace detail

// Scheduler-wide overflow pool. Thread-safe; never allocates. Does not own
// its blocks — the scheduler drains and frees it on destruction.
//
// Bounded: workloads where spawns come from external threads (which cannot
// draw from the pool) but retires happen on workers would otherwise grow
// the pool by one block per task, forever — a slow memory leak that also
// starves the allocator of reusable chunks. Once full, put() refuses and
// the caller returns the block to the allocator.
class task_block_pool {
 public:
  explicit task_block_pool(std::size_t max_blocks = 2048) noexcept
      : max_blocks_(max_blocks) {}
  task_block_pool(task_block_pool const&) = delete;
  task_block_pool& operator=(task_block_pool const&) = delete;

  // False when the pool is at capacity (caller frees the block instead).
  [[nodiscard]] bool put(void* block) noexcept {
    auto* node = static_cast<detail::free_block*>(block);
    std::lock_guard<spinlock> guard(lock_);
    if (count_ >= max_blocks_) return false;
    node->next = head_;
    head_ = node;
    ++count_;
    return true;
  }

  // Pops up to `max` blocks into `out`; returns the count. Batched so one
  // lock acquisition amortizes over a local-freelist refill.
  std::size_t get_batch(void** out, std::size_t max) noexcept {
    std::lock_guard<spinlock> guard(lock_);
    std::size_t n = 0;
    while (n < max && head_ != nullptr) {
      out[n++] = head_;
      head_ = head_->next;
    }
    count_ -= n;
    return n;
  }

  // Destruction-time drain (single-threaded by then).
  void* take_one() noexcept {
    detail::free_block* node = head_;
    if (node != nullptr) {
      head_ = node->next;
      --count_;
    }
    return node;
  }

 private:
  spinlock lock_;
  detail::free_block* head_ = nullptr;
  std::size_t count_ = 0;
  std::size_t const max_blocks_;
};

// Per-worker freelist. Owner thread only — no locks, no atomics.
class task_freelist {
 public:
  // Refill quantum pulled from the shared pool on a local miss.
  static constexpr std::size_t refill_batch = 32;
  // Blocks a worker keeps before overflowing to the shared pool; the ones
  // it holds are out of reach of every other worker's spawns.
  static constexpr std::size_t default_max_cached = 128;

  explicit task_freelist(std::size_t max_cached = default_max_cached) noexcept
      : max_cached_(max_cached) {}

  task_freelist(task_freelist const&) = delete;
  task_freelist& operator=(task_freelist const&) = delete;

  [[nodiscard]] void* get() noexcept {
    detail::free_block* node = head_;
    if (node == nullptr) return nullptr;
    head_ = node->next;
    --count_;
    return node;
  }

  // False when full; the caller routes the block to the shared pool.
  [[nodiscard]] bool put(void* block) noexcept {
    if (count_ >= max_cached_) return false;
    auto* node = static_cast<detail::free_block*>(block);
    node->next = head_;
    head_ = node;
    ++count_;
    return true;
  }

  // Destruction-time drain (single-threaded by then).
  void* take_one() noexcept {
    detail::free_block* node = head_;
    if (node != nullptr) {
      head_ = node->next;
      --count_;
    }
    return node;
  }

  [[nodiscard]] std::size_t cached() const noexcept { return count_; }

 private:
  detail::free_block* head_ = nullptr;
  std::size_t count_ = 0;
  std::size_t const max_cached_;
};

}  // namespace px::rt
