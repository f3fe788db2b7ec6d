// px::bench reporter: robust statistics, px-bench/1 JSON round-trip,
// baseline comparison semantics, and determinism of the non-timing fields
// under a fixed run seed. The CLI/exit-code layer on top lives in
// test_bench_cli.cpp (bench-enabled builds only).
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "px/bench/report.hpp"

namespace {

using namespace px::bench;

TEST(BenchStats, MedianFixedSamples) {
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({5.0, 1.0, 3.0}), 3.0);           // odd
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);      // even
  EXPECT_DOUBLE_EQ(median({2.0, 2.0, 2.0, 9.0, 2.0}), 2.0); // outlier-proof
}

TEST(BenchStats, MadFixedSample) {
  // xs = {1, 1, 2, 2, 4, 6, 9}, median 2; |xs - 2| = {1, 1, 0, 0, 2, 4, 7},
  // median of that is 1.
  std::vector<double> xs{1, 1, 2, 2, 4, 6, 9};
  double const m = median(xs);
  EXPECT_DOUBLE_EQ(m, 2.0);
  EXPECT_DOUBLE_EQ(mad(xs, m), 1.0);
}

report make_report() {
  report r;
  r.run_seed = 0x5eedbeef;
  r.reps = 5;
  bench_result a;
  a.name = "micro_runtime.spawn_latency";
  a.params = {{"workers", "4"}, {"batch", "256"}};
  a.iterations = 32768;
  a.reps = 5;
  a.ns_per_op_median = 1234.5;
  a.ns_per_op_mad = 67.25;
  a.counters = {{"/px/scheduler{px}/tasks_spawned", 163840}};
  bench_result b;
  b.name = "fig3.heat1d";
  b.iterations = 100;
  b.reps = 5;
  b.ns_per_op_median = 2.125;
  b.ns_per_op_mad = 0.0;
  r.benchmarks = {a, b};
  return r;
}

TEST(BenchReport, JsonRoundTrip) {
  report const r = make_report();
  std::string const json = r.to_json();
  report const back = parse_report_json(json);

  EXPECT_EQ(back.schema, report_schema);
  EXPECT_EQ(back.run_seed, r.run_seed);
  EXPECT_EQ(back.reps, r.reps);
  ASSERT_EQ(back.benchmarks.size(), 2u);
  auto const& a = back.benchmarks[0];
  EXPECT_EQ(a.name, "micro_runtime.spawn_latency");
  ASSERT_EQ(a.params.size(), 2u);
  EXPECT_EQ(a.params[1].first, "batch");
  EXPECT_EQ(a.params[1].second, "256");
  EXPECT_EQ(a.iterations, 32768u);
  EXPECT_DOUBLE_EQ(a.ns_per_op_median, 1234.5);
  EXPECT_DOUBLE_EQ(a.ns_per_op_mad, 67.25);
  ASSERT_EQ(a.counters.size(), 1u);
  EXPECT_EQ(a.counters[0].first, "/px/scheduler{px}/tasks_spawned");
  EXPECT_EQ(a.counters[0].second, 163840u);
  EXPECT_EQ(back.benchmarks[1].name, "fig3.heat1d");
  EXPECT_TRUE(back.benchmarks[1].params.empty());
  EXPECT_TRUE(back.benchmarks[1].counters.empty());

  // Serialization is a pure function of the contents.
  EXPECT_EQ(back.to_json(), json);
}

TEST(BenchReport, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(parse_report_json(""), std::runtime_error);
  EXPECT_THROW(parse_report_json("not json"), std::runtime_error);
  EXPECT_THROW(parse_report_json("{\"schema\":\"wrong/9\"}"),
               std::runtime_error);
  std::string const good = make_report().to_json();
  EXPECT_THROW(parse_report_json(good.substr(0, good.size() / 2)),
               std::runtime_error);
  // nan is not a JSON number; a nan baseline median would pass any gate.
  std::string nan_median = good;
  std::size_t const at = nan_median.find("1234.5");
  ASSERT_NE(at, std::string::npos);
  nan_median.replace(at, 6, "nan");
  EXPECT_THROW(parse_report_json(nan_median), std::runtime_error);
}

TEST(BenchReport, FileRoundTripAndMissingFile) {
  report const r = make_report();
  std::string const path = "/tmp/px_bench_report_test.json";
  ASSERT_TRUE(write_report_file(r, path));
  report const back = load_report_file(path);
  EXPECT_EQ(back.to_json(), r.to_json());
  std::remove(path.c_str());
  EXPECT_THROW(load_report_file("/tmp/px_bench_no_such_file.json"),
               std::runtime_error);
}

TEST(BenchCompare, PassRegressionAndMissing) {
  report base = make_report();
  report cur = make_report();

  // Within threshold: +4% on one benchmark, improvement on the other.
  cur.benchmarks[0].ns_per_op_median = base.benchmarks[0].ns_per_op_median * 1.04;
  cur.benchmarks[1].ns_per_op_median = base.benchmarks[1].ns_per_op_median * 0.5;
  compare_result ok = compare(base, cur, 5.0);
  EXPECT_TRUE(ok.passed);
  ASSERT_EQ(ok.rows.size(), 2u);
  EXPECT_FALSE(ok.rows[0].regressed);
  EXPECT_NEAR(ok.rows[0].delta_pct, 4.0, 0.01);
  EXPECT_LT(ok.rows[1].delta_pct, 0.0);

  // Beyond threshold: regression flagged, comparison fails.
  cur.benchmarks[0].ns_per_op_median = base.benchmarks[0].ns_per_op_median * 1.5;
  compare_result bad = compare(base, cur, 5.0);
  EXPECT_FALSE(bad.passed);
  EXPECT_TRUE(bad.rows[0].regressed);
  EXPECT_NE(bad.to_text().find("REGRESSION"), std::string::npos);

  // Missing on either side is reported but not a failure by itself.
  cur = make_report();
  cur.benchmarks.pop_back();
  bench_result extra;
  extra.name = "micro_new.only_in_current";
  extra.iterations = 1;
  extra.reps = 1;
  extra.ns_per_op_median = 1.0;
  cur.benchmarks.push_back(extra);
  compare_result part = compare(base, cur, 5.0);
  EXPECT_TRUE(part.passed);
  ASSERT_EQ(part.missing_in_current.size(), 1u);
  EXPECT_EQ(part.missing_in_current[0], "fig3.heat1d");
  ASSERT_EQ(part.missing_in_baseline.size(), 1u);
  EXPECT_EQ(part.missing_in_baseline[0], "micro_new.only_in_current");
}

// Two runs of the same cases under the same runner options must agree on
// every non-timing field (names, params, iteration counts, reps, seed,
// schema) — the property that makes --compare meaningful across runs.
TEST(BenchRunner, NonTimingFieldsDeterministicUnderFixedSeed) {
  auto const run_suite = [] {
    runner_options opts;
    opts.reps = 3;
    opts.warmup = 0;
    opts.run_seed = 0xfeedface;
    opts.verbose = false;
    runner r(opts);
    r.run("determinism.case_a", {{"k", "1"}}, 64, [](std::uint64_t iters) {
      volatile std::uint64_t sink = 0;
      for (std::uint64_t i = 0; i < iters; ++i) sink = sink + i;
    });
    r.run("determinism.case_b", {}, 16, [](std::uint64_t) {});
    return r.result();
  };
  report const r1 = run_suite();
  report const r2 = run_suite();

  EXPECT_EQ(r1.schema, r2.schema);
  EXPECT_EQ(r1.run_seed, 0xfeedfaceu);
  EXPECT_EQ(r1.run_seed, r2.run_seed);
  EXPECT_EQ(r1.reps, r2.reps);
  ASSERT_EQ(r1.benchmarks.size(), r2.benchmarks.size());
  for (std::size_t i = 0; i < r1.benchmarks.size(); ++i) {
    auto const& a = r1.benchmarks[i];
    auto const& b = r2.benchmarks[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.params, b.params);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.reps, b.reps);
    EXPECT_GT(a.ns_per_op_median, 0.0);
  }
}

}  // namespace
