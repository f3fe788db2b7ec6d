// px/support/aligned.hpp
// Aligned heap allocation and an allocator usable with std::vector.
//
// SIMD packs require their natural alignment; the stencil grids additionally
// align their storage to cache-line boundaries and leave it untouched on
// allocation (default_init_allocator), so the px workers that zero-fill it
// row by row do the first touch and place its pages.
//
// Blocks of huge_page_advice_bytes or more (grids, STREAM arrays) are
// advised onto transparent huge pages: fewer first-touch faults and TLB
// misses, and a release that unmaps a few hundred huge pages instead of
// ~10^5 small ones. The advice is best effort and Linux only.
#pragma once

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "px/support/assert.hpp"

namespace px {

inline constexpr std::size_t huge_page_advice_bytes = std::size_t{8} << 20;

// MADV_HUGEPAGE on the whole pages inside [p, p + bytes).
inline void advise_huge_pages(void* p, std::size_t bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  static std::uintptr_t const page =
      static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
  std::uintptr_t const lo = reinterpret_cast<std::uintptr_t>(p);
  std::uintptr_t const first = (lo + page - 1) / page * page;
  std::uintptr_t const last = (lo + bytes) / page * page;
  if (last > first)
    (void)madvise(reinterpret_cast<void*>(first), last - first,
                  MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

[[nodiscard]] inline void* aligned_alloc_bytes(std::size_t bytes,
                                               std::size_t alignment) {
  PX_ASSERT_MSG((alignment & (alignment - 1)) == 0,
                "alignment must be a power of two");
  if (bytes == 0) bytes = alignment;
  // std::aligned_alloc requires size to be a multiple of alignment.
  std::size_t const rounded = (bytes + alignment - 1) / alignment * alignment;
  void* p = std::aligned_alloc(alignment, rounded);
  if (p == nullptr) throw std::bad_alloc{};
  if (rounded >= huge_page_advice_bytes) advise_huge_pages(p, rounded);
  return p;
}

inline void aligned_free(void* p) noexcept { std::free(p); }

// Minimal C++20 allocator with static alignment. Propagates on copy (it is
// stateless) and compares equal across instantiations of the same alignment.
template <typename T, std::size_t Alignment = alignof(T)>
class aligned_allocator {
  static_assert(Alignment >= alignof(T),
                "alignment must be at least the type's natural alignment");

 public:
  using value_type = T;
  static constexpr std::size_t alignment = Alignment;

  template <typename U>
  struct rebind {
    using other = aligned_allocator<U, (Alignment > alignof(U) ? Alignment
                                                               : alignof(U))>;
  };

  aligned_allocator() = default;
  template <typename U, std::size_t A>
  aligned_allocator(aligned_allocator<U, A> const&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T))
      throw std::bad_alloc{};
    return static_cast<T*>(aligned_alloc_bytes(n * sizeof(T), Alignment));
  }

  void deallocate(T* p, std::size_t) noexcept { aligned_free(p); }

  friend bool operator==(aligned_allocator const&,
                         aligned_allocator const&) noexcept {
    return true;
  }
};

// Wraps an allocator so that value-less construction default-initializes:
// std::vector<T, default_init_allocator<A>>(n) leaves trivially
// default-constructible elements untouched instead of zeroing them on the
// allocating thread.
template <typename A>
class default_init_allocator : public A {
  using traits = std::allocator_traits<A>;

 public:
  template <typename U>
  struct rebind {
    using other =
        default_init_allocator<typename traits::template rebind_alloc<U>>;
  };

  using A::A;

  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    traits::construct(static_cast<A&>(*this), p,
                      std::forward<Args>(args)...);
  }
};

}  // namespace px
