// bench_common.hpp — shared machinery for the figure/table generators.
//
// Each paper figure is regenerated in two parts:
//   (1) MODEL: the calibrated px::arch performance model evaluated at paper
//       scale for the target machine (the curves/rows of the figure);
//   (2) HOST VALIDATION: a small real run of the corresponding px kernel on
//       the build host, proving the code path works and that the *relative*
//       effect under study (vectorization gain, scaling shape, overlap)
//       exists in the implementation, not only in the model.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "px/arch/counter_model.hpp"
#include "px/arch/machine.hpp"
#include "px/arch/scaling_model.hpp"
#include "px/arch/stream_model.hpp"
#include "px/bench/report.hpp"
#include "px/counters/counters.hpp"

namespace px::bench {

// ---- regression-harness CLI (px::bench reporter glue) --------------------
//
// Shared by the machine-readable suite binaries (px_bench_suite): parses
//   --out FILE            where to write the px-bench/1 JSON report
//   --compare BASELINE    compare against a committed baseline report
//   --threshold PCT       regression threshold for --compare (default 5%)
//   --smoke               divide iteration counts by 16 (CI smoke lane)
// and turns a finished runner into a process exit code:
//   0 = report written (and comparison passed, if requested)
//   1 = comparison found a regression beyond the threshold
//   2 = usage error, unreadable/missing baseline, or write failure
struct suite_cli {
  std::string out;                 // empty: don't write a report file
  std::string compare_baseline;    // empty: no comparison
  double threshold_pct = 5.0;
  bool smoke = false;

  // Iteration scaling for the smoke lane.
  [[nodiscard]] std::uint64_t scaled(std::uint64_t iters) const noexcept {
    std::uint64_t const s = smoke ? iters / 16 : iters;
    return s == 0 ? 1 : s;
  }
};

// nullopt (after printing usage to stderr) on malformed arguments.
[[nodiscard]] std::optional<suite_cli> parse_suite_cli(int argc,
                                                       char** argv);

// Writes the report, runs the comparison when requested, prints the
// comparison table, and returns the exit code described above.
[[nodiscard]] int finalize_suite(report const& current, suite_cli const& cli);
[[nodiscard]] inline int finalize_suite(runner const& r,
                                        suite_cli const& cli) {
  return finalize_suite(r.result(), cli);
}

// Brackets one timed region with registry snapshots so a timing row can
// carry the runtime activity behind it. Construction snapshots every
// /px/... counter; row_suffix() takes the closing snapshot and formats the
// interesting deltas (tasks executed, steals, yields, stack-pool traffic,
// parcels) as a bracketed suffix for the bench row.
class counter_probe {
 public:
  counter_probe();

  // Formats the deltas since construction; call once, at the end of the
  // region.
  [[nodiscard]] std::string row_suffix() const;

 private:
  counters::snapshot begin_;
};

// Prints the banner shared by all generators.
void print_header(std::string const& experiment, std::string const& caption);

// Core-count sample points for a machine's 2D figure (the paper plots
// powers-of-two-ish steps up to the full node, plus the NUMA-relevant
// points like 40/56 on Kunpeng).
[[nodiscard]] std::vector<std::size_t> figure_core_counts(
    arch::machine const& m);

// Figs 4/5/6/8 (and 7 with a different grid): the 2D-stencil figure for
// one machine — four data-type series plus the expected-peak guide lines,
// in GLUP/s, followed by the paper-vs-model gain summary.
void print_fig_2d(arch::machine const& m, std::size_t nx, std::size_t ny,
                  std::size_t steps);

// Small real 2D run on the host (all four variants), printing MLUP/s and
// the explicit-vectorization speedups measured in this process.
void host_validate_2d(std::size_t nx, std::size_t ny, std::size_t steps);

// Optional machine-readable output: when PX_CSV_DIR is set, figure
// generators additionally write their series as
// $PX_CSV_DIR/<experiment>.csv (header row + one line per x sample) for
// external plotting. Returns false when the env var is unset or the file
// cannot be written.
bool write_csv(std::string const& experiment,
               std::vector<std::string> const& columns,
               std::vector<std::vector<double>> const& rows);

// A text rendering of a figure: one column per x sample, one plot symbol
// per series, y auto-scaled. Good enough to see crossovers, plateaus and
// NUMA dips at a glance in the bench output.
struct chart_series {
  char symbol;
  std::string label;
  std::vector<double> y;  // one value per x sample
};
void render_ascii_chart(std::string const& y_label,
                        std::vector<std::size_t> const& x,
                        std::vector<chart_series> const& series,
                        std::size_t height = 16);

// Tables III-VI: the counter table for one machine (model + paper values).
struct paper_counter_row {
  char const* label;
  double instructions;
  double cache_misses;      // <= 0: not reported in the paper
  double frontend_stalls;   // <= 0: not reported
  double backend_stalls;    // <= 0: not reported
};
void print_counter_table(arch::machine const& m,
                         std::vector<paper_counter_row> const& paper,
                         char const* miss_label);

}  // namespace px::bench
