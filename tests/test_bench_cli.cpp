// The suite CLI layer on top of the px::bench reporter: argument parsing,
// smoke-lane iteration scaling, and the process exit-code contract of
// finalize_suite (0 pass / 1 regression / 2 usage-or-IO error) that
// scripts/bench.sh and the CI smoke lane rely on. Lives in its own binary
// because it links px_bench_common, which only exists when PX_BUILD_BENCH
// is on (tests/CMakeLists.txt guards the registration).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace px::bench;

std::optional<suite_cli> parse(std::vector<std::string> argv_strings) {
  argv_strings.insert(argv_strings.begin(), "px_bench_suite");
  std::vector<char*> argv;
  argv.reserve(argv_strings.size());
  for (auto& s : argv_strings) argv.push_back(s.data());
  return parse_suite_cli(static_cast<int>(argv.size()), argv.data());
}

TEST(BenchCli, ParsesAllFlags) {
  auto cli = parse({"--out", "/tmp/r.json", "--compare", "/tmp/b.json",
                    "--threshold", "12.5", "--smoke"});
  ASSERT_TRUE(cli.has_value());
  EXPECT_EQ(cli->out, "/tmp/r.json");
  EXPECT_EQ(cli->compare_baseline, "/tmp/b.json");
  EXPECT_DOUBLE_EQ(cli->threshold_pct, 12.5);
  EXPECT_TRUE(cli->smoke);
}

TEST(BenchCli, DefaultsAndMalformedArguments) {
  auto cli = parse({});
  ASSERT_TRUE(cli.has_value());
  EXPECT_TRUE(cli->out.empty());
  EXPECT_TRUE(cli->compare_baseline.empty());
  EXPECT_DOUBLE_EQ(cli->threshold_pct, 5.0);
  EXPECT_FALSE(cli->smoke);

  EXPECT_FALSE(parse({"--out"}).has_value());        // missing operand
  EXPECT_FALSE(parse({"--threshold", "abc"}).has_value());
  // Non-finite thresholds would switch the regression gate off.
  EXPECT_FALSE(parse({"--threshold", "nan"}).has_value());
  EXPECT_FALSE(parse({"--threshold", "inf"}).has_value());
  EXPECT_FALSE(parse({"--threshold", "-inf"}).has_value());
  EXPECT_FALSE(parse({"--no-such-flag"}).has_value());
}

TEST(BenchCli, SmokeScalingHasFloorOfOne) {
  suite_cli cli;
  cli.smoke = true;
  EXPECT_EQ(cli.scaled(1600), 100u);
  EXPECT_EQ(cli.scaled(8), 1u);  // never scales to zero iterations
  cli.smoke = false;
  EXPECT_EQ(cli.scaled(1600), 1600u);
}

// A fixed one-case report: the exit-code contract is about comparing
// reports, so the cases carry synthetic timings rather than a measured
// spin loop whose duration scheduling noise could stretch past either
// threshold.
report make_report(double ns_per_op) {
  bench_result b;
  b.name = "cli.case";
  b.iterations = 4;
  b.reps = 1;
  b.ns_per_op_median = ns_per_op;
  report r;
  r.run_seed = 42;
  r.reps = 1;
  r.benchmarks.push_back(b);
  return r;
}

TEST(BenchCli, ExitCodesPassRegressionAndIoError) {
  std::string const baseline_path = "/tmp/px_bench_cli_baseline.json";
  std::string const out_path = "/tmp/px_bench_cli_out.json";

  // Record a baseline via the normal write path: exit 0, file readable.
  {
    report const base = make_report(1000.0);
    suite_cli cli;
    cli.out = baseline_path;
    EXPECT_EQ(finalize_suite(base, cli), 0);
    EXPECT_NO_THROW((void)load_report_file(baseline_path));
  }

  // Self-comparison of an equal-speed run passes (exit 0) and still
  // writes the requested report.
  {
    report const same = make_report(1000.0);
    suite_cli cli;
    cli.out = out_path;
    cli.compare_baseline = baseline_path;
    cli.threshold_pct = 400.0;  // generous: this is an exit-code test
    EXPECT_EQ(finalize_suite(same, cli), 0);
    EXPECT_NO_THROW((void)load_report_file(out_path));
  }

  // A grossly slower run against a tight threshold is a regression: exit 1.
  {
    report const slow = make_report(25000.0);
    suite_cli cli;
    cli.compare_baseline = baseline_path;
    cli.threshold_pct = 5.0;
    EXPECT_EQ(finalize_suite(slow, cli), 1);
  }

  // Unreadable baseline / unwritable report: exit 2.
  {
    report const r = make_report(1000.0);
    suite_cli cli;
    cli.compare_baseline = "/tmp/px_bench_cli_no_such_baseline.json";
    EXPECT_EQ(finalize_suite(r, cli), 2);
  }
  {
    report const r = make_report(1000.0);
    suite_cli cli;
    cli.out = "/tmp/px_no_such_dir_for_bench/out.json";
    EXPECT_EQ(finalize_suite(r, cli), 2);
  }

  std::remove(baseline_path.c_str());
  std::remove(out_path.c_str());
}

}  // namespace
