// Tests for the px::torture harness itself (decision-stream determinism,
// forall_seeds plumbing, shrink + failure dumps, seed report on a crash)
// and seed sweeps over the
// scheduler-facing LCO workloads: futures, channels, latches and yield
// storms all re-run under perturbed schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "px/counters/counters.hpp"
#include "px/lcos/async.hpp"
#include "px/px.hpp"
#include "px/torture/forall.hpp"
#include "px/torture/invariant.hpp"
#include "px/torture/torture.hpp"

namespace {

namespace torture = px::torture;
using px::counters::builtin;

px::scheduler_config small_pool() {
  px::scheduler_config cfg;
  cfg.num_workers = 4;
  return cfg;
}

// ---- determinism ---------------------------------------------------------

TEST(TortureCore, DecisionStreamReplaysBitExact) {
  // Same seed, same thread -> identical decision/jitter sequences. This is
  // the contract a printed failing seed relies on.
  torture::config cfg;
  cfg.seed = 0xfeedf00d;
  cfg.perturb_probability = 0.5;
  cfg.max_sleep_us = 0;  // keep the replay loop instant
  cfg.max_spin = 4;

  auto draw = [&] {
    std::vector<std::uint64_t> stream;
    torture::enable(cfg);
    for (int i = 0; i < 200; ++i) {
      stream.push_back(
          torture::decide(torture::site::sched_enqueue) ? 1u : 0u);
      stream.push_back(
          torture::deadline_jitter_ns(torture::site::timer_deadline));
    }
    torture::disable();
    return stream;
  };
  auto const a = draw();
  auto const b = draw();
  EXPECT_EQ(a, b);

  cfg.seed = 0xfeedf00e;  // neighbouring seed: different stream
  std::vector<std::uint64_t> c;
  torture::enable(cfg);
  for (int i = 0; i < 200; ++i) {
    c.push_back(torture::decide(torture::site::sched_enqueue) ? 1u : 0u);
    c.push_back(torture::deadline_jitter_ns(torture::site::timer_deadline));
  }
  torture::disable();
  EXPECT_NE(a, c);
}

TEST(TortureCore, BudgetZeroAppliesNothing) {
  torture::config cfg;
  cfg.seed = 7;
  cfg.perturb_probability = 1.0;
  cfg.max_perturbations = 0;
  torture::enable(cfg);
  for (int i = 0; i < 100; ++i) {
    torture::point(torture::site::deque_pop);
    EXPECT_FALSE(torture::decide(torture::site::sched_enqueue));
  }
  EXPECT_EQ(torture::run_perturbations(), 0u);
  EXPECT_GT(torture::run_decisions(), 0u);
  torture::disable();
}

// ---- forall plumbing -----------------------------------------------------

TEST(TortureForall, CleanPropertyPassesAllSeeds) {
  auto const decisions_before = builtin().torture_decisions.load();
  auto const seeds_before = builtin().torture_seeds_run.load();

  auto r = torture::forall_seeds(torture::seed_count(4), [](std::uint64_t) {
    px::runtime rt(small_pool());
    std::atomic<int> sum{0};
    for (int i = 0; i < 64; ++i) rt.post([&sum] { sum.fetch_add(1); });
    rt.wait_quiescent();
    if (sum.load() != 64) throw std::runtime_error("lost task");
  });
  EXPECT_TRUE(r.passed) << r.message;
  EXPECT_GE(r.seeds_run, torture::seed_count(4));
  EXPECT_GE(builtin().torture_seeds_run.load() - seeds_before,
            torture::seed_count(4));
#if defined(PX_TORTURE) && PX_TORTURE
  // The hooks are compiled in, so running a pool under the perturber must
  // have consulted decision points.
  EXPECT_GT(builtin().torture_decisions.load(), decisions_before);
#else
  (void)decisions_before;
#endif
}

TEST(TortureForall, RunSeedVariesUnderTheSweep) {
  // Satellite: the steal-victim RNG is no longer seeded identically across
  // runs — under torture the run seed mixes the torture seed, and the
  // effective value is visible in runtime::stats().
  std::vector<std::uint64_t> seen;
  auto r = torture::forall_seeds(2, [&seen](std::uint64_t) {
    px::runtime rt(small_pool());
    rt.post([] {});
    rt.wait_quiescent();
    seen.push_back(rt.stats().run_seed);
  });
  ASSERT_TRUE(r.passed) << r.message;
  ASSERT_EQ(seen.size(), 2u);
#if defined(PX_TORTURE) && PX_TORTURE
  EXPECT_NE(seen[0], seen[1]);
  EXPECT_NE(seen[0], 0x5eedbeefull);
#endif
  // Outside a torture run the config seed is used verbatim (PX_SEED or the
  // historical default), keeping plain runs reproducible.
  px::runtime rt(small_pool());
  EXPECT_EQ(rt.stats().run_seed, 0x5eedbeefull);
}

TEST(TortureForall, ShrinkerMinimizesAndDumpsInjectedFailure) {
  // A failure independent of the perturbations must shrink to budget 0 (the
  // report then says: this is seed-dependent or a plain bug, the perturber
  // is not needed) and leave a JSON evidence file behind.
  std::string const stem = "torture-selftest";
  auto r = torture::forall_seeds(
      2,
      [](std::uint64_t) {
        px::runtime rt(small_pool());
        std::atomic<int> sum{0};
        for (int i = 0; i < 8; ++i) rt.post([&sum] { sum.fetch_add(1); });
        rt.wait_quiescent();
        throw std::runtime_error("injected self-test failure");
      },
      [&] {
        torture::forall_options opts;
        opts.dump_stem = stem;
        return opts;
      }());
  ASSERT_FALSE(r.passed);
  EXPECT_EQ(r.seeds_run, 1u);  // stop at first failure
  EXPECT_NE(r.message.find("injected self-test failure"), std::string::npos);
  EXPECT_EQ(r.min_perturbations, 0u);

  std::string const path =
      stem + "-" + std::to_string(r.failing_seed) + ".json";
  std::ifstream dump(path);
  ASSERT_TRUE(dump.good()) << "missing failure dump " << path;
  std::string text((std::istreambuf_iterator<char>(dump)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"seed\":"), std::string::npos);
  EXPECT_NE(text.find("\"counters\":"), std::string::npos);
  EXPECT_NE(text.find("\"perturbation_trace\":"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TortureForall, RunOneReportsInvariantViolations) {
  // A property that leaves a registered invariant violated at quiesce is a
  // failing run even when it returns normally.
  torture::invariant_registration reg;
  bool broken = false;
  reg.add("selftest-balance", [&broken]() -> std::optional<std::string> {
    if (broken) return "balance off by one";
    return std::nullopt;
  });
  auto ok = torture::run_one(1, [&](std::uint64_t) { broken = false; });
  EXPECT_FALSE(ok.has_value()) << *ok;
  auto bad = torture::run_one(2, [&](std::uint64_t) { broken = true; });
  ASSERT_TRUE(bad.has_value());
  EXPECT_NE(bad->find("selftest-balance"), std::string::npos);
}

TEST(TortureForallDeathTest, CrashInPropertyReportsSeed) {
  // An abort never returns to the sweep, so there is nothing to shrink;
  // the crash hook must still name the seed (and leave a dump behind).
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::string const stem = "torture-crashtest";
  EXPECT_DEATH(
      {
        torture::forall_options opts;
        opts.dump_stem = stem;
        (void)torture::forall_seeds(
            1, [](std::uint64_t) { std::abort(); }, opts);
      },
      "SIGABRT in property, seed=[0-9]+ decision=");
  bool dumped = false;
  for (auto const& e : std::filesystem::directory_iterator(".")) {
    std::string const name = e.path().filename().string();
    if (name.starts_with(stem + "-") && name.ends_with(".json")) {
      dumped = true;
      std::filesystem::remove(e.path());
    }
  }
  EXPECT_TRUE(dumped) << "no " << stem << "-<seed>.json dump";
}

// ---- seed sweeps over the LCO suites ------------------------------------

TEST(TortureSched, FutureChainsSurvivePerturbedSchedules) {
  auto r = torture::forall_seeds(torture::seed_count(4), [](std::uint64_t) {
    px::runtime rt(small_pool());
    std::vector<px::future<int>> fs;
    fs.reserve(64);
    for (int i = 0; i < 64; ++i)
      fs.push_back(px::async_on(rt, [i] { return i * i; }));
    for (int i = 0; i < 64; ++i)
      if (fs[static_cast<std::size_t>(i)].get() != i * i)
        throw std::runtime_error("future returned the wrong value");
    rt.wait_quiescent();
  });
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

TEST(TortureSched, ChannelFifoHoldsUnderPerturbedSchedules) {
  auto r = torture::forall_seeds(torture::seed_count(4), [](std::uint64_t) {
    px::runtime rt(small_pool());
    px::channel<int> ch;
    std::atomic<int> next{0};
    rt.post([&] {
      for (int i = 0; i < 200; ++i) ch.send(i);
    });
    rt.post([&] {
      for (int i = 0; i < 200; ++i) {
        int const v = ch.get();
        if (v != next.fetch_add(1))
          throw std::runtime_error("channel broke FIFO order");
      }
    });
    rt.wait_quiescent();
    if (next.load() != 200) throw std::runtime_error("channel lost values");
  });
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

TEST(TortureSched, LatchAndYieldStormStaysBalanced) {
  auto r = torture::forall_seeds(torture::seed_count(4), [](std::uint64_t) {
    px::runtime rt(small_pool());
    px::latch gate(8);
    std::atomic<int> released{0};
    for (int i = 0; i < 8; ++i)
      rt.post([&] {
        for (int y = 0; y < 16; ++y) px::this_task::yield();
        gate.arrive_and_wait();
        released.fetch_add(1);
      });
    rt.wait_quiescent();
    if (released.load() != 8) throw std::runtime_error("latch lost waiters");
  });
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

}  // namespace
