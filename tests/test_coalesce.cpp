// Tests for parcel coalescing + payload compression under the ack/RTO
// layer (px/net/compress, px/net/coalesce, the distributed_domain wiring)
// and the latent-bug sweep of the reliability hot path that rode along:
// dedup-window sequence wraparound, flush-at-quiesce ordering, and the
// fixed-point counter-mirror units under coalesced/compressed frames.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "px/counters/counters.hpp"
#include "px/net/coalesce.hpp"
#include "px/net/compress.hpp"
#include "px/net/fault_plane.hpp"
#include "px/stencil/heat1d.hpp"
#include "px/stencil/heat1d_distributed.hpp"

namespace {

int coalesce_echo(px::dist::locality& here, int x) {
  return static_cast<int>(here.id()) * 100 + x;
}

std::atomic<int> sink_hits{0};

int coalesce_sink(px::dist::locality&, int) {
  sink_hits.fetch_add(1, std::memory_order_relaxed);
  return 0;
}

}  // namespace

PX_REGISTER_ACTION(coalesce_echo)
PX_REGISTER_ACTION(coalesce_sink)

namespace {

using px::counters::builtin;

// ---- LZ compressor -------------------------------------------------------

std::vector<std::byte> bytes_of(std::string const& s) {
  std::vector<std::byte> out(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) out[i] = std::byte(s[i]);
  return out;
}

void roundtrip(std::vector<std::byte> const& in) {
  auto const z = px::net::lz_compress(in.data(), in.size());
  auto const back = px::net::lz_decompress(z.data(), z.size(), in.size());
  ASSERT_EQ(back, in);
}

TEST(LzCompress, RoundtripsEmptyAndTiny) {
  roundtrip({});
  roundtrip(bytes_of("a"));
  roundtrip(bytes_of("abc"));
  roundtrip(bytes_of("abcd"));
}

TEST(LzCompress, RepetitiveInputShrinks) {
  std::vector<std::byte> in(8192, std::byte{0x42});
  auto const z = px::net::lz_compress(in.data(), in.size());
  EXPECT_LT(z.size(), in.size() / 10);  // pure RLE case
  roundtrip(in);
}

TEST(LzCompress, PeriodicPayloadShrinks) {
  // A halo-like payload: repeated 8-byte doubles with slow drift.
  std::vector<std::byte> in;
  for (int i = 0; i < 1000; ++i) {
    double const v = 1.0 + (i / 100) * 0.5;
    auto const* p = reinterpret_cast<std::byte const*>(&v);
    in.insert(in.end(), p, p + sizeof v);
  }
  auto const z = px::net::lz_compress(in.data(), in.size());
  EXPECT_LT(z.size(), in.size() / 2);
  roundtrip(in);
}

TEST(LzCompress, RandomInputRoundtripsWithBoundedExpansion) {
  std::mt19937_64 rng(12345);
  std::vector<std::byte> in(4096);
  for (auto& b : in) b = std::byte(rng() & 0xff);
  auto const z = px::net::lz_compress(in.data(), in.size());
  // Incompressible input grows by at most the literal-run headers (1/128)
  // plus rounding.
  EXPECT_LE(z.size(), in.size() + in.size() / 128 + 4);
  roundtrip(in);
}

TEST(LzCompress, OverlappingMatchesRoundtrip) {
  // "abab..." forces offset-2 matches that overlap their own output.
  std::vector<std::byte> in;
  for (int i = 0; i < 500; ++i) in.push_back(std::byte(i % 2 ? 'a' : 'b'));
  roundtrip(in);
}

TEST(LzCompress, CorruptStreamsThrowNotTruncate) {
  std::vector<std::byte> in(256, std::byte{7});
  auto z = px::net::lz_compress(in.data(), in.size());
  // Wrong decoded size is a hard error in both directions.
  EXPECT_THROW((void)px::net::lz_decompress(z.data(), z.size(), 255),
               std::runtime_error);
  EXPECT_THROW((void)px::net::lz_decompress(z.data(), z.size(), 257),
               std::runtime_error);
  // Truncated stream.
  EXPECT_THROW(
      (void)px::net::lz_decompress(z.data(), z.size() - 1, in.size()),
      std::runtime_error);
  // A match token with offset 0 is never emitted and must be rejected.
  std::vector<std::byte> bad = {std::byte{0x80}, std::byte{0}, std::byte{0}};
  EXPECT_THROW((void)px::net::lz_decompress(bad.data(), bad.size(), 4),
               std::runtime_error);
}

// ---- coalesced-frame codec ----------------------------------------------

std::vector<px::parcel::parcel> sample_batch(std::size_t n) {
  std::vector<px::parcel::parcel> batch;
  for (std::size_t i = 0; i < n; ++i) {
    px::parcel::parcel p;
    p.source = 0;
    p.dest = 1;
    p.action = 42 + static_cast<std::uint32_t>(i);
    p.response_token = 1000 + i;
    p.seq = 7 + i;
    p.epoch = 3;
    p.target = px::agas::gid::make(1, 0xabc + i);
    p.payload.assign(16 + i, std::byte(static_cast<unsigned char>(i)));
    batch.push_back(std::move(p));
  }
  return batch;
}

void expect_batch_equal(std::vector<px::parcel::parcel> const& a,
                        std::vector<px::parcel::parcel> const& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].dest, b[i].dest);
    EXPECT_EQ(a[i].action, b[i].action);
    EXPECT_EQ(a[i].response_token, b[i].response_token);
    EXPECT_EQ(a[i].seq, b[i].seq);
    EXPECT_EQ(a[i].epoch, b[i].epoch);
    EXPECT_EQ(a[i].target, b[i].target);
    EXPECT_EQ(a[i].payload, b[i].payload);
  }
}

TEST(CoalesceCodec, RawRoundtripPreservesEveryField) {
  auto const batch = sample_batch(5);
  px::net::coalescing_config cfg;
  auto const env = px::net::encode_coalesced_frame(batch, cfg);
  EXPECT_EQ(env.action, px::parcel::coalesced_action_id);
  EXPECT_EQ(env.source, 0u);
  EXPECT_EQ(env.dest, 1u);
  EXPECT_EQ(env.seq, 0u);  // the envelope itself is unsequenced
  expect_batch_equal(px::net::decode_coalesced_frame(env), batch);
}

TEST(CoalesceCodec, CompressedRoundtripAndByteAccounting) {
  auto batch = sample_batch(8);
  for (auto& p : batch) p.payload.assign(512, std::byte{0x5a});
  px::net::coalescing_config cfg;
  cfg.compress = true;
  cfg.compress_min_bytes = 64;
  std::size_t in_bytes = 0, out_bytes = 0;
  auto const env =
      px::net::encode_coalesced_frame(batch, cfg, &in_bytes, &out_bytes);
  EXPECT_GT(in_bytes, 0u);
  EXPECT_GT(out_bytes, 0u);
  EXPECT_LT(out_bytes, in_bytes);
  EXPECT_LT(env.payload.size(), in_bytes);  // really shipped compressed
  expect_batch_equal(px::net::decode_coalesced_frame(env), batch);
}

TEST(CoalesceCodec, IncompressibleBatchShipsRaw) {
  // A big random payload: the LZ literal-run overhead (~1 byte per 128
  // literals) outweighs the few compressible zero runs in the subheaders,
  // so the whole envelope must ship raw. (Small random payloads are NOT
  // enough — the subheader zeros alone make those envelopes shrink.)
  std::mt19937_64 rng(99);
  auto batch = sample_batch(1);
  batch[0].payload.resize(16 * 1024);
  for (auto& b : batch[0].payload) b = std::byte(rng() & 0xff);
  px::net::coalescing_config cfg;
  cfg.compress = true;
  std::size_t in_bytes = 0, out_bytes = 0;
  auto const env =
      px::net::encode_coalesced_frame(batch, cfg, &in_bytes, &out_bytes);
  // Compression did not pay: codec byte says raw, accounting untouched.
  EXPECT_EQ(static_cast<unsigned>(env.payload[0]), 0u);
  EXPECT_EQ(in_bytes, 0u);
  EXPECT_EQ(out_bytes, 0u);
  expect_batch_equal(px::net::decode_coalesced_frame(env), batch);

  // The min-bytes gate skips the compressor outright for small bodies,
  // whatever their content.
  auto small = sample_batch(2);
  for (auto& p : small) p.payload.assign(512, std::byte{0x5a});
  px::net::coalescing_config gated;
  gated.compress = true;
  gated.compress_min_bytes = 1 << 20;
  std::size_t gin = 0, gout = 0;
  auto const genv = px::net::encode_coalesced_frame(small, gated, &gin, &gout);
  EXPECT_EQ(static_cast<unsigned>(genv.payload[0]), 0u);
  EXPECT_EQ(gin, 0u);
  EXPECT_EQ(gout, 0u);
  expect_batch_equal(px::net::decode_coalesced_frame(genv), small);
}

TEST(CoalesceCodec, CorruptEnvelopesThrow) {
  auto const env =
      px::net::encode_coalesced_frame(sample_batch(3), {});
  auto truncated = env;
  truncated.payload.resize(truncated.payload.size() / 2);
  EXPECT_THROW((void)px::net::decode_coalesced_frame(truncated),
               std::runtime_error);
  auto bad_codec = env;
  bad_codec.payload[0] = std::byte{9};
  EXPECT_THROW((void)px::net::decode_coalesced_frame(bad_codec),
               std::runtime_error);
  auto trailing = env;
  trailing.payload.push_back(std::byte{0});
  EXPECT_THROW((void)px::net::decode_coalesced_frame(trailing),
               std::runtime_error);
  px::parcel::parcel not_envelope;
  not_envelope.action = 5;
  EXPECT_THROW((void)px::net::decode_coalesced_frame(not_envelope),
               std::runtime_error);
}

// ---- env knobs -----------------------------------------------------------

TEST(CoalesceEnv, StrictTokenParsingRejectsTrailingGarbage) {
  px::net::coalescing_config base;
  base.enabled = false;
  base.compress = false;

  ::setenv("PX_NET_COALESCE", "on", 1);
  EXPECT_TRUE(px::net::coalescing_config::from_env(base).enabled);
  ::setenv("PX_NET_COALESCE", "off", 1);
  EXPECT_FALSE(px::net::coalescing_config::from_env(base).enabled);
  // env_token is exact-match: case, whitespace and trailing garbage all
  // make the value malformed, which leaves the base config untouched.
  for (char const* bad : {"ON", "on ", " on", "on,compress", "1", "true"}) {
    ::setenv("PX_NET_COALESCE", bad, 1);
    EXPECT_FALSE(px::net::coalescing_config::from_env(base).enabled)
        << "accepted malformed token: '" << bad << "'";
  }
  ::unsetenv("PX_NET_COALESCE");

  ::setenv("PX_NET_COMPRESS", "on", 1);
  EXPECT_TRUE(px::net::coalescing_config::from_env(base).compress);
  ::setenv("PX_NET_COMPRESS", "yes", 1);  // env_bool form, not allowed here
  EXPECT_FALSE(px::net::coalescing_config::from_env(base).compress);
  ::unsetenv("PX_NET_COMPRESS");
}

TEST(CoalesceEnv, NumericKnobsApplyAndRejectGarbage) {
  px::net::coalescing_config base;
  ::setenv("PX_NET_COALESCE_MAX_PARCELS", "32", 1);
  ::setenv("PX_NET_COALESCE_MAX_BYTES", "8192", 1);
  ::setenv("PX_NET_COALESCE_FLUSH_US", "125.5", 1);
  auto got = px::net::coalescing_config::from_env(base);
  EXPECT_EQ(got.max_parcels, 32u);
  EXPECT_EQ(got.max_bytes, 8192u);
  EXPECT_DOUBLE_EQ(got.flush_delay_us, 125.5);
  ::setenv("PX_NET_COALESCE_MAX_PARCELS", "32x", 1);
  ::setenv("PX_NET_COALESCE_FLUSH_US", "0", 1);  // must stay > 0
  got = px::net::coalescing_config::from_env(base);
  EXPECT_EQ(got.max_parcels, base.max_parcels);
  EXPECT_DOUBLE_EQ(got.flush_delay_us, base.flush_delay_us);
  ::unsetenv("PX_NET_COALESCE_MAX_PARCELS");
  ::unsetenv("PX_NET_COALESCE_MAX_BYTES");
  ::unsetenv("PX_NET_COALESCE_FLUSH_US");
}

// ---- dedup-window wraparound (bugfix satellite) --------------------------

TEST(DedupWindowWrap, AcceptsAcrossTheWrapEdgeExactlyOnce) {
  constexpr std::uint64_t max = ~std::uint64_t{0};
  px::net::dedup_window w;
  w.start_from(max - 2);
  // Pre-wrap seqs.
  EXPECT_TRUE(w.accept(max - 2));
  EXPECT_TRUE(w.accept(max - 1));
  EXPECT_TRUE(w.accept(max));
  EXPECT_EQ(w.floor(), max);
  // Post-wrap: the counter skips 0 (reserved) and continues at 1. The
  // historical `seq <= floor_` guard classified every one of these as a
  // duplicate — delivery stopped dead at the wrap edge.
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(2));
  EXPECT_EQ(w.floor(), 2u);
  // Exactly-once still holds in both eras.
  EXPECT_FALSE(w.accept(max));
  EXPECT_FALSE(w.accept(1));
  EXPECT_FALSE(w.accept(2));
  EXPECT_TRUE(w.accept(3));
}

TEST(DedupWindowWrap, OutOfOrderGapSpanningTheWrapCloses) {
  constexpr std::uint64_t max = ~std::uint64_t{0};
  px::net::dedup_window w;
  w.start_from(max - 1);
  // Arrive out of order across the edge: 2, max, 1, max-1.
  EXPECT_TRUE(w.accept(2));
  EXPECT_TRUE(w.accept(max));
  EXPECT_EQ(w.floor(), max - 2);  // nothing contiguous yet
  EXPECT_TRUE(w.accept(1));
  EXPECT_TRUE(w.accept(max - 1));
  EXPECT_EQ(w.floor(), 2u);  // the whole run collapsed through the wrap
  EXPECT_EQ(w.pending_gaps(), 0u);
  EXPECT_FALSE(w.accept(max));
  EXPECT_FALSE(w.accept(2));
}

TEST(DedupWindowWrap, SeqZeroIsNeverAccepted) {
  px::net::dedup_window w;
  w.start_from(~std::uint64_t{0});
  EXPECT_FALSE(w.accept(0));  // reserved for unsequenced frames
  EXPECT_TRUE(w.accept(~std::uint64_t{0}));
  EXPECT_TRUE(w.accept(1));
}

TEST(DedupWindowWrap, SerialHelpersWrap) {
  constexpr std::uint64_t max = ~std::uint64_t{0};
  EXPECT_TRUE(px::net::seq_precedes(max, 1));
  EXPECT_FALSE(px::net::seq_precedes(1, max));
  EXPECT_TRUE(px::net::seq_precedes(max - 5, max));
  EXPECT_FALSE(px::net::seq_precedes(7, 7));
  EXPECT_EQ(px::net::seq_successor(1), 2u);
  EXPECT_EQ(px::net::seq_successor(max), 1u);  // skips reserved 0
}

TEST(DedupWindowWrap, ReliableLinkSurvivesForcedWrap) {
  // Integration shape of the same bug: a reliable domain whose links start
  // their seq counters a handful below UINT64_MAX. Before the serial-
  // arithmetic fix, the first post-wrap parcel was swallowed as a
  // duplicate and the calls below hung (RTO retransmissions are rejected
  // the same way, so the retry budget fails the future).
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  cfg.reliability.initial_seq = ~std::uint64_t{0} - 10;

  px::dist::distributed_domain dom(cfg);
  ASSERT_TRUE(dom.reliable());
  dom.run([](px::dist::locality& loc0) {
    // 25 request/response pairs = 50 seqs over the (0,1)/(1,0) links:
    // comfortably across the wrap on both.
    for (int i = 0; i < 25; ++i)
      EXPECT_EQ(loc0.call<&coalesce_echo>(1, i).get(), 100 + i);
    return 0;
  });
  dom.wait_all_quiescent();
}

// ---- coalescing end-to-end ----------------------------------------------

px::dist::domain_config coalesce_cfg(bool compress = false) {
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  cfg.coalescing.enabled = true;
  cfg.coalescing.compress = compress;
  return cfg;
}

TEST(Coalescing, ManySmallParcelsRideFewFrames) {
  auto const before_frames = builtin().net_frames_on_wire.load();
  auto const before_coalesced = builtin().net_coalesced_parcels.load();
  sink_hits.store(0);
  {
    px::dist::distributed_domain dom(coalesce_cfg());
    ASSERT_TRUE(dom.coalescing());
    dom.run([](px::dist::locality& loc0) {
      for (int i = 0; i < 160; ++i) loc0.apply<&coalesce_sink>(1, i);
      return 0;
    });
    dom.wait_all_quiescent();
  }
  EXPECT_EQ(sink_hits.load(), 160);
  auto const frames = builtin().net_frames_on_wire.load() - before_frames;
  auto const coalesced =
      builtin().net_coalesced_parcels.load() - before_coalesced;
  EXPECT_EQ(coalesced, 160u);
  // 160 parcels at max_parcels=16 is at least 10 full envelopes; frames
  // must be far below one-per-parcel.
  EXPECT_LE(frames, 40u);
  EXPECT_GE(frames, 10u);
}

TEST(Coalescing, SizeThresholdFlushes) {
  auto const before_size = builtin().net_flushes_size.load();
  {
    px::dist::distributed_domain dom(coalesce_cfg());
    dom.run([](px::dist::locality& loc0) {
      for (int i = 0; i < 64; ++i) loc0.apply<&coalesce_sink>(1, i);
      return 0;
    });
    dom.wait_all_quiescent();
  }
  EXPECT_GE(builtin().net_flushes_size.load() - before_size, 3u);
}

TEST(Coalescing, DeadlineFlushDrainsWithoutExplicitFlush) {
  // A single buffered parcel, far below every size threshold: only the
  // deadline timer can put it on the wire. The response completes the
  // future, so get() returning proves the deadline fired.
  auto const before_deadline = builtin().net_flushes_deadline.load();
  auto cfg = coalesce_cfg();
  cfg.coalescing.flush_delay_us = 200.0;
  px::dist::distributed_domain dom(cfg);
  int const got = dom.run([](px::dist::locality& loc0) {
    return loc0.call<&coalesce_echo>(1, 7).get();
  });
  EXPECT_EQ(got, 107);
  dom.wait_all_quiescent();
  EXPECT_GE(builtin().net_flushes_deadline.load() - before_deadline, 1u);
}

TEST(Coalescing, QuiesceFlushesBufferedParcels) {
  // Flush-at-quiesce regression (bugfix satellite): parcels sitting in a
  // coalescing buffer hold in-flight obligations, and with an effectively
  // infinite deadline nothing else can release them. wait_all_quiescent
  // must flush the buffers itself before blocking on the obligation CV —
  // the interleaving where it slept first was a permanent hang.
  auto cfg = coalesce_cfg();
  cfg.coalescing.flush_delay_us = 3600.0 * 1e6;  // one hour: never fires
  sink_hits.store(0);
  px::dist::distributed_domain dom(cfg);
  dom.run([](px::dist::locality& loc0) {
    for (int i = 0; i < 5; ++i) loc0.apply<&coalesce_sink>(1, i);
    return 0;
  });
  ASSERT_TRUE(dom.wait_all_quiescent_for(std::chrono::seconds(30)));
  EXPECT_EQ(sink_hits.load(), 5);
}

TEST(Coalescing, ExplicitFlushCountsAndDelivers) {
  auto const before_explicit = builtin().net_flushes_explicit.load();
  auto cfg = coalesce_cfg();
  cfg.coalescing.flush_delay_us = 3600.0 * 1e6;
  sink_hits.store(0);
  px::dist::distributed_domain dom(cfg);
  dom.run([&dom](px::dist::locality& loc0) {
    for (int i = 0; i < 3; ++i) loc0.apply<&coalesce_sink>(1, i);
    dom.flush_coalescing();
    return 0;
  });
  dom.wait_all_quiescent();
  EXPECT_EQ(sink_hits.load(), 3);
  EXPECT_GE(builtin().net_flushes_explicit.load() - before_explicit, 1u);
}

TEST(Coalescing, CompressionCountersAndRatioGauge) {
  auto const before_in = builtin().net_compress_in_bytes.load();
  auto const before_out = builtin().net_compressed_bytes.load();
  {
    px::dist::distributed_domain dom(coalesce_cfg(/*compress=*/true));
    dom.run([](px::dist::locality& loc0) {
      // Highly redundant payloads: int arguments serialize into mostly
      // zero bytes, and 16 subheaders per envelope share structure.
      for (int i = 0; i < 128; ++i) loc0.apply<&coalesce_sink>(1, 0);
      return 0;
    });
    dom.wait_all_quiescent();
  }
  auto const in_delta = builtin().net_compress_in_bytes.load() - before_in;
  auto const out_delta =
      builtin().net_compressed_bytes.load() - before_out;
  EXPECT_GT(in_delta, 0u);
  EXPECT_GT(out_delta, 0u);
  EXPECT_LT(out_delta, in_delta);
  // The derived gauge reads the same two cells, fixed-point x1000.
  std::uint64_t ratio = 0;
  ASSERT_TRUE(px::counters::registry::instance().value_of(
      "/px/net/compress_ratio_x1000", ratio));
  EXPECT_GE(ratio, 1000u);  // in >= out by construction
}

TEST(Coalescing, ModeledNsMirrorStaysExactUnderCoalescing) {
  // Fixed-point counter-mirror units (bugfix satellite): every wire frame
  // — coalesced, compressed or plain — must convert modeled_us to the
  // x1000 fixed-point exactly once, so the registry mirror
  // /px/net/modeled_ns equals the fabric-side cell to the nanosecond.
  auto const before_ns = builtin().net_modeled_ns.load();
  px::dist::distributed_domain dom(coalesce_cfg(/*compress=*/true));
  dom.run([](px::dist::locality& loc0) {
    for (int i = 0; i < 100; ++i) loc0.apply<&coalesce_sink>(1, i);
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(loc0.call<&coalesce_echo>(1, i).get(), 100 + i);
    return 0;
  });
  dom.wait_all_quiescent();
  auto const fabric_side =
      dom.fabric().counters().modeled_us_x1000.load();
  EXPECT_GT(fabric_side, 0u);
  EXPECT_EQ(builtin().net_modeled_ns.load() - before_ns, fabric_side);
}

TEST(Coalescing, ReliableCoalescedCallsComplete) {
  // Coalescing under the ack/RTO layer on a clean fabric: seqs, acks and
  // responses all ride envelopes, and results are unchanged.
  auto cfg = coalesce_cfg();
  cfg.reliability.activation = px::net::reliability_config::mode::on;
  // The no-spurious-retransmit assertion below needs the RTO to sit far
  // above any scheduling slowdown (the sanitizer lane runs 3-5x slow);
  // acks cancel the timers, so a huge backoff costs nothing on the clean
  // path.
  cfg.reliability.initial_backoff_us = 50'000.0;
  cfg.reliability.max_backoff_us = 100'000.0;
  auto const before_frames = builtin().net_frames_on_wire.load();
  auto const before_retx = builtin().net_retransmits.load();
  px::dist::distributed_domain dom(cfg);
  ASSERT_TRUE(dom.reliable());
  ASSERT_TRUE(dom.coalescing());
  dom.run([](px::dist::locality& loc0) {
    std::vector<px::future<int>> fs;
    for (int i = 0; i < 64; ++i)
      fs.push_back(loc0.call<&coalesce_echo>(1, i));
    for (int i = 0; i < 64; ++i) EXPECT_EQ(fs[i].get(), 100 + i);
    return 0;
  });
  dom.wait_all_quiescent();
  // Acks coalesce too, so the whole exchange fits in few frames — and a
  // clean fabric plus flush-widened RTOs means no spurious retransmits.
  EXPECT_LT(builtin().net_frames_on_wire.load() - before_frames, 128u);
  EXPECT_EQ(builtin().net_retransmits.load() - before_retx, 0u);
}

TEST(Coalescing, LossyCoalescedHeatBitwiseIdentical) {
  // One representative lossy seed in tier-1 (the 16-seed sweep lives in
  // test_torture_coalesce): drop/dup/reorder whole envelopes and the heat
  // solver must still be bitwise identical to the clean run.
  auto initial = px::stencil::heat1d_sine_initial(401);
  px::stencil::dist_heat_config hc;
  hc.steps = 32;

  px::dist::domain_config clean;
  clean.num_localities = 2;
  clean.locality_cfg.num_workers = 2;
  clean.injection_scale = 0.0;
  px::dist::distributed_domain clean_dom(clean);
  auto const r_clean = run_distributed_heat1d(clean_dom, initial, hc);

  auto cfg = coalesce_cfg(/*compress=*/true);
  cfg.injection_scale = 0.001;
  cfg.faults.drop = 0.05;
  cfg.faults.duplicate = 0.02;
  cfg.faults.reorder = 0.05;
  cfg.faults.seed = 4242;
  // The solve must hit at least one drop however coalescing batches it.
  // Every step ships its edges and flushes, so each link carries at least
  // one envelope per step, and fault fates are a pure function of (seed,
  // link, frame index): the solve must run more steps than the index of
  // link 0->1's first scheduled drop. Replay the plane to find it.
  px::net::fault_plane replay(cfg.faults);
  std::size_t first_drop = 0;
  while (!replay.sample(0, 1).drop) ++first_drop;
  ASSERT_LT(first_drop, hc.steps);
  px::dist::distributed_domain dom(cfg);
  ASSERT_TRUE(dom.reliable());
  ASSERT_TRUE(dom.coalescing());
  auto const r = run_distributed_heat1d(dom, initial, hc);
  dom.wait_all_quiescent();
  ASSERT_EQ(r.values.size(), r_clean.values.size());
  EXPECT_TRUE(r.values == r_clean.values);
  EXPECT_GT(dom.fabric().faults().stats().drops, 0u);
}

TEST(Coalescing, TeardownWithArmedTimersIsClean) {
  // Armed timers hold no obligation, so wait_all_quiescent() returns while
  // a link's retransmission timer and a buffer's deadline timer are still
  // armed; the destructor must disarm them (waiting out one that is
  // firing) before it frees the links and buffers they lock. Even
  // iterations use an hour-long flush delay: the deadline timer armed at
  // the first enqueue and the RTO (widened by two flush delays) are
  // certainly armed at teardown. Odd ones cycle short delays, so timers
  // fire around the teardown instead. Run under ASan + UBSan by the
  // sanitizer lane of scripts/check.sh.
  for (int i = 0; i < 200; ++i) {
    auto cfg = coalesce_cfg();
    cfg.locality_cfg.num_workers = 1;
    cfg.reliability.activation = px::net::reliability_config::mode::on;
    cfg.coalescing.flush_delay_us =
        i % 2 == 0 ? 3600.0 * 1e6 : 1.0 + (i % 20) * 25.0;
    sink_hits.store(0);
    {
      px::dist::distributed_domain dom(cfg);
      dom.run([](px::dist::locality& loc0) {
        for (int j = 0; j < 8; ++j) loc0.apply<&coalesce_sink>(1, j);
        return 0;
      });
      dom.wait_all_quiescent();
    }
    ASSERT_EQ(sink_hits.load(), 8) << "iteration " << i;
  }
}

TEST(Coalescing, EnvKnobEnablesDomainWithoutCodeChange) {
  ::setenv("PX_NET_COALESCE", "on", 1);
  px::dist::domain_config cfg;
  cfg.num_localities = 2;
  cfg.locality_cfg.num_workers = 2;
  cfg.injection_scale = 0.0;
  ASSERT_FALSE(cfg.coalescing.enabled);
  px::dist::distributed_domain dom(cfg);
  EXPECT_TRUE(dom.coalescing());
  ::unsetenv("PX_NET_COALESCE");
  px::dist::distributed_domain off(cfg);
  EXPECT_FALSE(off.coalescing());
}

}  // namespace
