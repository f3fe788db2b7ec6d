#include "px/torture/forall.hpp"

#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "px/counters/counters.hpp"
#include "px/support/env.hpp"
#include "px/torture/invariant.hpp"

namespace px::torture {

namespace {

std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// RAII: the perturber must never stay enabled past a run, even when the
// property throws.
struct enabled_run {
  explicit enabled_run(config cfg) { enable(cfg); }
  ~enabled_run() { disable(); }
};

// Monotone counters must never decrease between quiescent points; compares
// by path over the intersection (paths from destroyed instances vanish,
// new instances appear — both fine).
std::optional<std::string> monotonicity_violation(
    counters::snapshot const& before, counters::snapshot const& after) {
  for (auto const& b : before.samples) {
    if (b.k != counters::kind::monotone) continue;
    counters::sample const* a = after.find(b.path);
    if (a != nullptr && a->value < b.value)
      return b.path + " went backwards (" + std::to_string(b.value) +
             " -> " + std::to_string(a->value) + ")";
  }
  return std::nullopt;
}

// ---- crash reporting -------------------------------------------------------
// A property that aborts, faults or terminates never returns to the sweep,
// so while it runs these hooks report its seed first: write(2) of the seed
// and the run's decision index (async-signal-safe), then a best-effort
// <stem>-<seed>.json dump, then the previous handler takes over.

std::atomic<std::uint64_t> g_crash_seed{0};
std::atomic<bool> g_crash_reported{false};
std::string g_crash_stem = "torture";  // forall_options::dump_stem
struct sigaction g_prev_abrt, g_prev_segv;
std::terminate_handler g_prev_terminate = nullptr;

char* append(char* p, char const* s) noexcept {
  while (*s != '\0') *p++ = *s++;
  return p;
}

char* append(char* p, std::uint64_t v) noexcept {
  char digits[20];
  int n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *p++ = digits[--n];
  return p;
}

void report_crash(char const* what) noexcept {
  if (g_crash_reported.exchange(true)) return;
  std::uint64_t const seed = g_crash_seed.load();
  char line[256];
  char* p = append(line, "px::torture: ");
  p = append(p, what);
  p = append(p, " in property, seed=");
  p = append(p, seed);
  p = append(p, " decision=");
  p = append(p, run_decisions());
  p = append(p, "\n  replay: px::torture::run_one(");
  p = append(p, seed);
  p = append(p, "ull, property)\n");
  (void)!::write(STDERR_FILENO, line, static_cast<std::size_t>(p - line));
  if (g_crash_stem.empty()) return;
  // The dump allocates and does I/O, which a crash with the heap lock held
  // can hang; the alarm turns such a hang into a SIGALRM exit.
  ::alarm(5);
  try {
    std::string const path =
        g_crash_stem + "-" + std::to_string(seed) + ".json";
    if (dump_failure_report(seed, std::string(what) + " in property",
                            run_perturbations(), path))
      std::fprintf(stderr, "px::torture: failure evidence -> %s\n",
                   path.c_str());
  } catch (...) {
    // The seed line above is the report; a dump that cannot be written
    // must not replace the crash being reported.
  }
  ::alarm(0);
}

extern "C" void on_crash_signal(int sig) {
  report_crash(sig == SIGSEGV ? "SIGSEGV" : "SIGABRT");
  ::sigaction(sig, sig == SIGSEGV ? &g_prev_segv : &g_prev_abrt, nullptr);
  std::raise(sig);
}

void on_terminate() {
  report_crash("std::terminate");
  (g_prev_terminate != nullptr ? g_prev_terminate : std::abort)();
}

// RAII: the hooks are installed for one property run, then the previous
// handlers come back.
struct crash_hooks {
  explicit crash_hooks(std::uint64_t seed) {
    g_crash_seed.store(seed);
    g_crash_reported.store(false);
    struct sigaction sa {};
    sa.sa_handler = on_crash_signal;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGABRT, &sa, &g_prev_abrt);
    ::sigaction(SIGSEGV, &sa, &g_prev_segv);
    g_prev_terminate = std::set_terminate(on_terminate);
  }
  ~crash_hooks() {
    std::set_terminate(g_prev_terminate);
    ::sigaction(SIGSEGV, &g_prev_segv, nullptr);
    ::sigaction(SIGABRT, &g_prev_abrt, nullptr);
  }
  crash_hooks(crash_hooks const&) = delete;
  crash_hooks& operator=(crash_hooks const&) = delete;
};

}  // namespace

std::size_t seed_count(std::size_t default_n) {
  if (auto n = env_size("PX_TORTURE_SEEDS"); n && *n > 0) return *n;
  return default_n;
}

std::optional<std::string> run_one(std::uint64_t seed, property_fn const& fn,
                                   config perturb,
                                   std::uint64_t max_perturbations) {
  perturb.seed = seed;
  perturb.max_perturbations = max_perturbations;
  counters::builtin().torture_seeds_run.add();
  crash_hooks hooks(seed);
  enabled_run guard(perturb);
  try {
    fn(seed);
    require_invariants("post-quiesce");
  } catch (std::exception const& e) {
    return std::string(e.what());
  } catch (...) {
    return std::string("property threw a non-std::exception value");
  }
  return std::nullopt;
}

forall_result forall_seeds(std::size_t n, property_fn const& fn,
                           forall_options opts) {
  forall_result result;
  g_crash_stem = opts.dump_stem;
  struct restore_stem {
    ~restore_stem() { g_crash_stem = "torture"; }
  } stem_guard;
  auto before = counters::registry::instance().take_snapshot();
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t const seed = splitmix64(opts.base_seed + i);
    std::optional<std::string> failure = run_one(seed, fn, opts.perturb);
    ++result.seeds_run;
    std::uint64_t const applied = run_perturbations();
    if (!failure) {
      auto after = counters::registry::instance().take_snapshot();
      if (auto v = monotonicity_violation(before, after))
        failure = "counter-monotonicity: " + *v;
      before = std::move(after);
    }
    if (!failure) continue;

    result.passed = false;
    result.failing_seed = seed;
    result.failing_perturbations = applied;
    result.min_perturbations = applied;
    result.message = *failure;

    // Shrink: bisect the perturbation budget to the smallest count that
    // still reproduces. The failure is not guaranteed monotone in the
    // budget (fewer perturbations can open *different* windows), so this
    // is a pragmatic minimizer, bounded by max_shrink_runs, and the final
    // budget is re-verified; on a flaky boundary we keep the last budget
    // that demonstrably failed.
    if (opts.shrink && applied > 0) {
      std::uint64_t lo = 0;
      std::uint64_t hi = applied;  // known-failing budget
      std::size_t runs = 0;
      while (lo < hi && runs < opts.max_shrink_runs) {
        std::uint64_t const mid = lo + (hi - lo) / 2;
        ++runs;
        if (auto f = run_one(seed, fn, opts.perturb, mid)) {
          hi = mid;
          result.message = *f;
        } else {
          lo = mid + 1;
        }
      }
      result.min_perturbations = hi;
      // Confirm the minimal budget once more so the reported reproduction
      // is one we actually watched fail twice.
      if (auto f = run_one(seed, fn, opts.perturb, hi)) {
        result.message = *f;
      } else {
        result.min_perturbations = applied;
      }
    }

    if (!opts.dump_stem.empty()) {
      std::string const path =
          opts.dump_stem + "-" + std::to_string(seed) + ".json";
      if (dump_failure_report(seed, result.message,
                              result.min_perturbations, path))
        std::fprintf(stderr, "px::torture: failure evidence -> %s\n",
                     path.c_str());
    }
    std::fprintf(stderr,
                 "px::torture: seed %llu failed (%llu perturbations, "
                 "min %llu): %s\n  replay: px::torture::run_one(%lluull, "
                 "property)\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<unsigned long long>(applied),
                 static_cast<unsigned long long>(result.min_perturbations),
                 result.message.c_str(),
                 static_cast<unsigned long long>(seed));
    return result;
  }
  return result;
}

}  // namespace px::torture
