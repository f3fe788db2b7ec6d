// Seed sweeps over the parcel reliability layer, its quiesce invariants,
// and the differential heat1d oracle.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "px/net/reliability.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/torture/forall.hpp"
#include "px/torture/invariant.hpp"

namespace {

int torture_echo(px::dist::locality& here, int x) {
  return static_cast<int>(here.id()) * 100 + x;
}

}  // namespace

PX_REGISTER_ACTION(torture_echo)

namespace {

namespace torture = px::torture;
using namespace std::chrono_literals;

px::dist::domain_config lossy_cfg(std::uint64_t seed) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.faults.drop = 0.2;
  cfg.faults.duplicate = 0.05;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = static_cast<std::uint32_t>(seed ^ (seed >> 32));
  cfg.reliability.initial_backoff_us = 5.0;
  cfg.reliability.backoff_multiplier = 1.5;
  cfg.reliability.max_backoff_us = 100.0;
  cfg.reliability.max_retries = 64;
  return cfg;
}

torture::forall_options net_opts() {
  torture::forall_options opts;
  opts.perturb.perturb_probability = 0.4;
  opts.perturb.max_sleep_us = 100;
  opts.dump_stem = "torture-reliability";
  return opts;
}

TEST(TortureReliability, CallsSettleAndInvariantsHoldUnderSeeds) {
  auto r = torture::forall_seeds(
      torture::seed_count(4),
      [](std::uint64_t seed) {
        auto dom = std::make_unique<px::dist::distributed_domain>(
            lossy_cfg(seed));
        dom->run([](px::dist::locality& loc0) {
          std::vector<px::future<int>> fs;
          fs.reserve(100);
          for (int i = 0; i < 100; ++i)
            fs.push_back(loc0.call<&torture_echo>(1, i));
          for (int i = 0; i < 100; ++i)
            if (fs[static_cast<std::size_t>(i)].get() != 100 + i)
              throw std::runtime_error("remote call returned wrong value");
          return 0;
        });
        if (!dom->wait_all_quiescent_for(30s)) {
          dom->detach_invariants();
          auto const leaked = dom->obligations_in_flight();
          (void)dom.release();  // corrupted: destructor would hang
          throw torture::invariant_violation(
              {{"obligation-balance",
                std::to_string(leaked) +
                    " obligation(s) in flight after quiesce timeout"}});
        }
      },
      net_opts());
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

TEST(TortureReliability, HeatSolverBitwiseStableAcrossLossySeeds) {
  // Differential oracle: one fault-free baseline, then per-seed lossy runs
  // whose fault plane is seeded from the sweep seed. Exactly-once delivery
  // means every seed must reproduce the baseline bitwise.
  auto const initial = px::stencil::heat1d_sine_initial(301);
  px::stencil::dist_heat_config hc;
  hc.steps = 10;

  px::dist::domain_config clean = lossy_cfg(0);
  clean.faults = {};
  px::dist::distributed_domain clean_dom(clean);
  ASSERT_FALSE(clean_dom.reliable());
  auto const baseline = run_distributed_heat1d(clean_dom, initial, hc);
  clean_dom.wait_all_quiescent();

  auto r = torture::forall_seeds(
      torture::seed_count(3),
      [&](std::uint64_t seed) {
        px::dist::distributed_domain dom(lossy_cfg(seed));
        if (!dom.reliable())
          throw std::runtime_error("lossy domain without reliability");
        auto const out = run_distributed_heat1d(dom, initial, hc);
        dom.wait_all_quiescent();
        if (out.values.size() != baseline.values.size() ||
            !(out.values == baseline.values))
          throw std::runtime_error(
              "lossy heat1d diverged bitwise from the fault-free run");
      },
      net_opts());
  EXPECT_TRUE(r.passed) << "seed " << r.failing_seed << ": " << r.message;
}

}  // namespace
