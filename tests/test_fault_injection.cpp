// Tests for the lossy-fabric fault plane and the parcel reliability layer:
// dedup-window semantics, backoff schedule, deterministic fault sampling,
// exactly-once delivery of the distributed heat solver over a lossy fabric,
// retry-budget exhaustion surfacing px::net::delivery_error, loss-tolerant
// collectives, and the remote-channel dead-letter path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "px/counters/counters.hpp"
#include "px/dist/collectives.hpp"
#include "px/dist/dist_barrier.hpp"
#include "px/dist/remote_channel.hpp"
#include "px/net/fault_plane.hpp"
#include "px/net/reliability.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/reference.hpp"

namespace {

int echo_scaled(px::dist::locality& here, int x) {
  return static_cast<int>(here.id()) * 100 + x;
}

int lossy_barrier_participant(px::dist::locality& here,
                              std::uint64_t rounds) {
  for (std::uint64_t g = 0; g < rounds; ++g)
    px::dist::barrier_arrive_and_wait(here, g);
  return static_cast<int>(here.id());
}

}  // namespace

PX_REGISTER_ACTION(echo_scaled)
PX_REGISTER_ACTION(lossy_barrier_participant)
PX_REGISTER_REMOTE_CHANNEL(double)

namespace {

using px::counters::builtin;

// ---- dedup window --------------------------------------------------------

TEST(DedupWindow, AcceptsEachSeqExactlyOnce) {
  px::net::dedup_window w;
  EXPECT_TRUE(w.accept(1));
  EXPECT_FALSE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  EXPECT_FALSE(w.accept(2));
  EXPECT_FALSE(w.accept(1));
  EXPECT_EQ(w.floor(), 2u);
}

TEST(DedupWindow, OutOfOrderArrivalsAdvanceFloorWhenGapCloses) {
  px::net::dedup_window w;
  EXPECT_TRUE(w.accept(3));
  EXPECT_TRUE(w.accept(2));
  EXPECT_EQ(w.floor(), 0u);  // 1 still missing
  EXPECT_EQ(w.pending_gaps(), 2u);
  EXPECT_TRUE(w.accept(1));
  EXPECT_EQ(w.floor(), 3u);  // contiguous run collapsed
  EXPECT_EQ(w.pending_gaps(), 0u);
  EXPECT_FALSE(w.accept(2));  // below the floor now
}

TEST(DedupWindow, CapacityClampBoundsMemory) {
  px::net::dedup_window w(4);
  // Leave seq 1 missing so nothing collapses into the floor.
  for (std::uint64_t s = 2; s <= 7; ++s) EXPECT_TRUE(w.accept(s));
  EXPECT_LE(w.pending_gaps(), 4u);
  EXPECT_GT(w.floor(), 0u);  // the clamp advanced the floor
  // The clamp trades exactness for memory: a fresh accept still works.
  EXPECT_TRUE(w.accept(100));
}

// ---- backoff schedule ----------------------------------------------------

TEST(Backoff, GrowsExponentiallyAndCaps) {
  px::net::reliability_config cfg;
  cfg.initial_backoff_us = 100.0;
  cfg.backoff_multiplier = 2.0;
  cfg.max_backoff_us = 450.0;
  EXPECT_DOUBLE_EQ(px::net::backoff_us(cfg, 0), 100.0);
  EXPECT_DOUBLE_EQ(px::net::backoff_us(cfg, 1), 200.0);
  EXPECT_DOUBLE_EQ(px::net::backoff_us(cfg, 2), 400.0);
  EXPECT_DOUBLE_EQ(px::net::backoff_us(cfg, 3), 450.0);  // capped
  EXPECT_DOUBLE_EQ(px::net::backoff_us(cfg, 10), 450.0);
}

TEST(Backoff, RtoIncludesRoundTripEstimate) {
  px::net::reliability_config cfg;
  cfg.initial_backoff_us = 100.0;
  // attempt 1 -> backoff retry 0 = 100us; RTT = 2 * 5000ns.
  EXPECT_EQ(px::net::rto_ns(cfg, 1, 5000), 2u * 5000u + 100'000u);
  // attempt 2 -> backoff retry 1 = 200us.
  EXPECT_EQ(px::net::rto_ns(cfg, 2, 5000), 2u * 5000u + 200'000u);
}

// ---- fault plane ---------------------------------------------------------

TEST(FaultPlane, DisabledPlaneNeverFaults) {
  px::net::fault_plane plane;
  for (int i = 0; i < 100; ++i) {
    auto const d = plane.sample(0, 1);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.hold_ns, 0u);
  }
  EXPECT_EQ(plane.stats().sampled, 0u);
}

TEST(FaultPlane, SameSeedSameDecisionSequence) {
  px::net::fault_config cfg;
  cfg.drop = 0.2;
  cfg.duplicate = 0.2;
  cfg.reorder = 0.2;
  cfg.seed = 1234;
  px::net::fault_plane a(cfg), b(cfg);
  for (int i = 0; i < 500; ++i) {
    auto const da = a.sample(0, 1);
    auto const db = b.sample(0, 1);
    EXPECT_EQ(da.drop, db.drop);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.hold_ns, db.hold_ns);
  }
  // Distinct links draw from distinct streams but stay deterministic too.
  auto const x = a.sample(1, 0);
  auto const y = b.sample(1, 0);
  EXPECT_EQ(x.drop, y.drop);
  EXPECT_EQ(x.duplicate, y.duplicate);
}

TEST(FaultPlane, StatsAccountForEveryDecision) {
  px::net::fault_config cfg;
  cfg.drop = 0.3;
  cfg.duplicate = 0.3;
  px::net::fault_plane plane(cfg);
  for (int i = 0; i < 1000; ++i) (void)plane.sample(0, 1);
  auto const s = plane.stats();
  EXPECT_EQ(s.sampled, 1000u);
  EXPECT_GT(s.drops, 0u);
  EXPECT_GT(s.duplicates, 0u);
  EXPECT_LE(s.drops + s.duplicates + s.reorders + s.extra_delays, s.sampled);
}

// ---- lossy-fabric end-to-end --------------------------------------------

px::dist::domain_config lossy_cfg(std::size_t n) {
  px::dist::domain_config cfg;
  cfg.num_localities = n;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.faults.drop = 0.05;
  cfg.faults.duplicate = 0.02;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = 42;
  return cfg;
}

TEST(LossyFabric, HeatSolverBitwiseIdenticalToLoopback) {
  auto initial = px::stencil::heat1d_sine_initial(601);
  px::stencil::dist_heat_config hc;
  hc.steps = 20;

  // Clean run: same topology, no faults (reliability stays off under
  // `automatic`, preserving the historical wire accounting).
  px::dist::domain_config clean = lossy_cfg(3);
  clean.faults = {};
  px::dist::distributed_domain clean_dom(clean);
  ASSERT_FALSE(clean_dom.reliable());
  auto const r_clean = run_distributed_heat1d(clean_dom, initial, hc);

  auto const before_retx = builtin().net_retransmits.load();
  auto const before_drops = builtin().net_drops.load();
  auto const before_acks = builtin().net_acks.load();

  px::dist::distributed_domain lossy_dom(lossy_cfg(3));
  ASSERT_TRUE(lossy_dom.reliable());
  auto const r_lossy = run_distributed_heat1d(lossy_dom, initial, hc);
  lossy_dom.wait_all_quiescent();

  // Exactly-once delivery means the numerics cannot tell the fabrics
  // apart: bitwise-identical fields, not merely close ones.
  ASSERT_EQ(r_lossy.values.size(), r_clean.values.size());
  EXPECT_TRUE(r_lossy.values == r_clean.values);

  // The protocol visibly worked: frames were dropped, retransmitted and
  // acked (fault stats are per-domain, counter deltas process-wide).
  auto const s = lossy_dom.fabric().faults().stats();
  EXPECT_GT(s.sampled, 0u);
  EXPECT_GT(s.drops, 0u);
  EXPECT_GE(builtin().net_drops.load() - before_drops, s.drops);
  EXPECT_GT(builtin().net_retransmits.load() - before_retx, 0u);
  EXPECT_GT(builtin().net_acks.load() - before_acks, 0u);
}

TEST(LossyFabric, DuplicatesSuppressedExactly) {
  // Duplicate-only faults with zero injected delay: frames deliver inline,
  // acks beat every RTO, so nothing retransmits and the suppression count
  // equals the fault plane's duplicate count exactly.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.faults.duplicate = 0.3;
  cfg.faults.seed = 7;
  // Inline acks cancel each RTO within microseconds; a huge backoff keeps
  // a mid-chain OS preemption from letting a retransmission slip through
  // and breaking the exact-count arithmetic below.
  cfg.reliability.initial_backoff_us = 5e5;
  cfg.reliability.max_backoff_us = 5e5;

  auto const before_dup = builtin().net_dup_suppressed.load();
  auto const before_acks = builtin().net_acks.load();
  auto const before_retx = builtin().net_retransmits.load();
  {
    px::dist::distributed_domain dom(cfg);
    dom.run([](px::dist::locality& loc0) {
      for (int i = 0; i < 50; ++i)
        EXPECT_EQ(loc0.call<&echo_scaled>(1, i).get(), 100 + i);
      return 0;
    });
    dom.wait_all_quiescent();
    auto const s = dom.fabric().faults().stats();
    EXPECT_GT(s.duplicates, 0u);
    // 50 calls = 100 data frames (request + response). Every arriving data
    // copy is acked, so acks - 100 counts exactly the duplicated *data*
    // copies, each of which must be suppressed exactly once. (The fault
    // plane's duplicate total is larger: it also duplicates ack frames,
    // which handle_ack absorbs silently.)
    auto const dup_delta = builtin().net_dup_suppressed.load() - before_dup;
    EXPECT_EQ(dup_delta, builtin().net_acks.load() - before_acks - 100u);
    EXPECT_GT(dup_delta, 0u);
    EXPECT_LE(dup_delta, s.duplicates);
  }
  EXPECT_EQ(builtin().net_retransmits.load() - before_retx, 0u);
}

TEST(LossyFabric, AckRacingRetryDrainsInFlight) {
  // Regression: an ack landing while the link's retransmission timer is
  // mid-retry must not leak the in-flight obligation — the ack erases the
  // entry and releases it, the retry only ever copies a live entry under
  // the link lock. A near-zero backoff puts the RTO deadline
  // right inside the held-ack arrival window (data hold + ack hold ==
  // 2 * reorder_hold ~= the hold-widened RTO), maximizing collisions; the
  // assertion that matters is that wait_all_quiescent() returns.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.faults.drop = 0.3;
  cfg.faults.duplicate = 0.05;
  cfg.faults.reorder = 0.1;
  cfg.faults.reorder_hold_us = 30.0;
  cfg.faults.seed = 1337;
  cfg.reliability.initial_backoff_us = 1.0;
  cfg.reliability.backoff_multiplier = 1.5;
  cfg.reliability.max_backoff_us = 50.0;
  cfg.reliability.max_retries = 64;

  auto const before_retx = builtin().net_retransmits.load();
  px::dist::distributed_domain dom(cfg);
  dom.run([](px::dist::locality& loc0) {
    std::vector<px::future<int>> fs;
    fs.reserve(200);
    for (int i = 0; i < 200; ++i)
      fs.push_back(loc0.call<&echo_scaled>(1, i));
    for (int i = 0; i < 200; ++i) EXPECT_EQ(fs[i].get(), 100 + i);
    return 0;
  });
  dom.wait_all_quiescent();  // must drain: no leaked obligations
  EXPECT_GT(builtin().net_retransmits.load() - before_retx, 0u);
}

TEST(LossyFabric, BarrierReleasesSurviveLoss) {
  // Barrier releases are acknowledged calls: on a lossy fabric a dropped
  // release is retransmitted instead of silently leaving a participant
  // blocked in released.get() forever.
  px::dist::domain_config cfg;
  cfg.num_localities = 3;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.faults.drop = 0.2;
  cfg.faults.seed = 99;
  cfg.reliability.initial_backoff_us = 50.0;

  px::dist::distributed_domain dom(cfg);
  auto ids = dom.run([](px::dist::locality& loc0) {
    return px::dist::gather<&lossy_barrier_participant>(loc0,
                                                        std::uint64_t{4});
  });
  ASSERT_EQ(ids.size(), 3u);
  for (int l = 0; l < 3; ++l) EXPECT_EQ(ids[l], l);
  dom.wait_all_quiescent();
}

TEST(LossyFabric, RetryBudgetExhaustionFailsTheFuture) {
  // Total loss and a zero retry budget: the call future must fail with
  // delivery_error (instead of hanging) and quiesce must terminate.
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.faults.drop = 1.0;
  cfg.reliability.max_retries = 0;
  cfg.reliability.initial_backoff_us = 50.0;

  auto const before_fail = builtin().net_delivery_failures.load();
  px::dist::distributed_domain dom(cfg);
  bool caught = dom.run([](px::dist::locality& loc0) {
    auto f = loc0.call<&echo_scaled>(1, 5);
    try {
      (void)f.get();
      return false;
    } catch (px::net::delivery_error const& e) {
      EXPECT_EQ(e.source(), 0u);
      EXPECT_EQ(e.dest(), 1u);
      EXPECT_EQ(e.attempts(), 1);
      return true;
    }
  });
  EXPECT_TRUE(caught);
  dom.wait_all_quiescent();  // must return despite 100% loss
  EXPECT_GE(builtin().net_delivery_failures.load() - before_fail, 1u);
}

TEST(LossyFabric, TryGatherToleratesTotalRemoteLoss) {
  px::dist::domain_config cfg;
  cfg.num_localities = 3;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.faults.drop = 1.0;
  cfg.reliability.max_retries = 0;
  cfg.reliability.initial_backoff_us = 50.0;

  px::dist::distributed_domain dom(cfg);
  auto ok = dom.run([](px::dist::locality& loc0) {
    auto r = px::dist::try_gather<&echo_scaled>(loc0, 7);
    // Locality 0 never touches the wire; 1 and 2 are unreachable.
    return r.size() == 3 && r[0].has_value() && *r[0] == 7 &&
           !r[1].has_value() && !r[2].has_value();
  });
  EXPECT_TRUE(ok);
  dom.wait_all_quiescent();
}

TEST(LossyFabric, ForcedReliabilityStaysExactWithoutFaults) {
  // activation=on over a clean fabric: acks and seqs flow but results are
  // unchanged — the layer is transparent to program semantics.
  px::dist::domain_config cfg;
  cfg.num_localities = 3;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.001;
  cfg.reliability.activation = px::net::reliability_config::mode::on;

  auto const before_acks = builtin().net_acks.load();
  px::dist::distributed_domain dom(cfg);
  ASSERT_TRUE(dom.reliable());
  auto initial = px::stencil::heat1d_sine_initial(301);
  px::stencil::dist_heat_config hc;
  hc.steps = 10;
  auto result = run_distributed_heat1d(dom, initial, hc);
  auto ref = px::stencil::reference_heat1d(initial, hc.steps, hc.k);
  EXPECT_LT(px::stencil::max_abs_diff(result.values, ref), 1e-13);
  dom.wait_all_quiescent();
  EXPECT_GT(builtin().net_acks.load() - before_acks, 0u);
}

TEST(LossyFabric, LinkTimerArmsFarFewerThanOncePerParcel) {
  // One retransmission timer per link, not per parcel. On a lossless
  // fabric with inline delivery every ack lands long before its RTO, so a
  // link's timer arms when the link goes busy and re-arms at most once per
  // RTO period while it stays busy. A timer per parcel would arm at least
  // once per request and once per response: >= 2 * n.
  constexpr int n = 2000;
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.reliability.activation = px::net::reliability_config::mode::on;

  auto const arms = [] {
    std::uint64_t v = 0;
    EXPECT_TRUE(px::counters::registry::instance().value_of(
        "/px/timer/callbacks_scheduled", v));
    return v;
  };
  auto const before = arms();
  px::dist::distributed_domain dom(cfg);
  ASSERT_TRUE(dom.reliable());
  ASSERT_FALSE(dom.coalescing());
  dom.run([](px::dist::locality& loc0) {
    std::vector<px::future<int>> fs;
    fs.reserve(n);
    for (int i = 0; i < n; ++i) fs.push_back(loc0.call<&echo_scaled>(1, i));
    for (int i = 0; i < n; ++i) EXPECT_EQ(fs[i].get(), 100 + i);
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_LT(arms() - before, std::uint64_t{n / 4});
}

// ---- dead letters --------------------------------------------------------

TEST(DeadLetters, PutRacingCloseIsACountedDrop) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;

  auto const before = builtin().net_dead_letters.load();
  px::dist::distributed_domain dom(cfg);
  dom.run([&dom](px::dist::locality& loc0) {
    auto ch = px::dist::remote_channel<double>::create(dom.at(1));
    ch.close(dom.at(1));
    ch.send(loc0, 3.14);  // arrives after close: dead letter, not a throw
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_EQ(builtin().net_dead_letters.load() - before, 1u);
}

}  // namespace
