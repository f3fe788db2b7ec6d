// px/torture/forall.hpp
// Seed-sweep property testing over the schedule perturber. A property is a
// callable `void(std::uint64_t seed)` that builds whatever it tortures
// (runtime, domain, raw deque), drives a workload under the active
// perturber, and throws on any violated expectation (gtest assertions work
// too; invariant checks are run by the harness after the property returns).
//
//   auto r = px::torture::forall_seeds(px::torture::seed_count(8),
//                                      [](std::uint64_t seed) { ... });
//   EXPECT_TRUE(r.passed) << r.message;
//
// On the first failing seed the harness:
//   1. records the failure message and the perturbation count of the run,
//   2. shrinks to a minimal reproduction by bisecting the perturbation
//      budget (config::max_perturbations) — re-running the same seed with
//      ever fewer applied perturbations until the failure no longer
//      reproduces — and verifies the minimal budget once more,
//   3. dumps counters + perturbation trace to torture-<seed>.json in the
//      working directory (the build tree under ctest), and
//   4. prints a one-line replay recipe with the seed.
// A failure whose minimal budget is 0 does not need the perturber at all:
// it is seed-dependent (RNG-placement, fault sampling) or a plain bug.
//
// A property that crashes (SIGABRT, SIGSEGV, std::terminate) cannot be
// shrunk, but it still names its seed: while a property runs, run_one
// installs handlers that write "seed=<seed> decision=<index>" to stderr
// with write(2), make a best-effort torture-<seed>.json dump, and then hand
// the signal on to the previous handler.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "px/torture/torture.hpp"

namespace px::torture {

struct forall_options {
  // Per-seed perturber template; `seed` and `max_perturbations` are
  // overwritten by the harness for each run.
  config perturb;

  // Sweep seeds are splitmix-derived from base_seed + index, so reports
  // carry self-contained 64-bit seeds replayable via run_one().
  std::uint64_t base_seed = 0x70e7u;

  bool shrink = true;
  std::size_t max_shrink_runs = 12;

  // Stem of the failure dump ("torture" -> torture-<seed>.json). Empty
  // disables dumping.
  std::string dump_stem = "torture";
};

struct forall_result {
  bool passed = true;
  std::size_t seeds_run = 0;
  std::uint64_t failing_seed = 0;
  // Perturbations applied during the original failing run / the minimal
  // budget the shrinker confirmed still reproduces the failure.
  std::uint64_t failing_perturbations = 0;
  std::uint64_t min_perturbations = 0;
  std::string message;

  [[nodiscard]] explicit operator bool() const noexcept { return passed; }
};

// Number of sweep seeds: `default_n` unless the PX_TORTURE_SEEDS
// environment variable overrides it (the check.sh --torture lane sets 64).
[[nodiscard]] std::size_t seed_count(std::size_t default_n);

using property_fn = std::function<void(std::uint64_t seed)>;

// Runs `fn` once under seed `seed` (optionally with a perturbation budget)
// and reports the failure message, or nullopt on success. Exactly the
// replay primitive for a seed printed by a failing sweep: deterministic
// per-thread decision streams make the rerun explore the same schedule
// neighbourhood. Invariants are checked after `fn` returns.
[[nodiscard]] std::optional<std::string> run_one(
    std::uint64_t seed, property_fn const& fn, config perturb = {},
    std::uint64_t max_perturbations = ~std::uint64_t{0});

// The sweep: runs `fn` under `n` derived seeds, stops at the first failure,
// shrinks and dumps as described above. Also enforces, between seeds, that
// every monotone counter in the registry never decreased
// (counter-monotonicity invariant).
[[nodiscard]] forall_result forall_seeds(std::size_t n, property_fn const& fn,
                                         forall_options opts = {});

}  // namespace px::torture
