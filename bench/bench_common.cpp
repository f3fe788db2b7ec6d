#include "bench_common.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>

#include "px/px.hpp"
#include "px/simd/simd.hpp"
#include "px/stencil/stencil.hpp"
#include "px/support/env.hpp"

namespace px::bench {

namespace {

// Decided on the bits (exponent all ones: nan or inf) because this TU is
// built with -ffast-math, under which std::isfinite folds to true.
bool is_finite(double v) noexcept {
  return ((std::bit_cast<std::uint64_t>(v) >> 52) & 0x7ff) != 0x7ff;
}

}  // namespace

std::optional<suite_cli> parse_suite_cli(int argc, char** argv) {
  auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s [--out FILE] [--compare BASELINE.json] "
                 "[--threshold PCT] [--smoke]\n",
                 argc > 0 ? argv[0] : "px_bench_suite");
    return std::nullopt;
  };
  suite_cli cli;
  for (int i = 1; i < argc; ++i) {
    std::string const arg = argv[i];
    auto value = [&]() -> char const* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--out") {
      char const* v = value();
      if (v == nullptr) return usage();
      cli.out = v;
    } else if (arg == "--compare") {
      char const* v = value();
      if (v == nullptr) return usage();
      cli.compare_baseline = v;
    } else if (arg == "--threshold") {
      char const* v = value();
      if (v == nullptr) return usage();
      char* end = nullptr;
      cli.threshold_pct = std::strtod(v, &end);
      // nan and inf never fail `delta_pct > threshold`: they switch the
      // gate off, so they are malformed like any other non-number.
      if (end == v || *end != '\0' || !is_finite(cli.threshold_pct))
        return usage();
    } else if (arg == "--smoke") {
      cli.smoke = true;
    } else {
      return usage();
    }
  }
  return cli;
}

int finalize_suite(report const& current, suite_cli const& cli) {
  if (!cli.out.empty()) {
    if (!write_report_file(current, cli.out)) {
      std::fprintf(stderr, "px_bench: cannot write report to '%s'\n",
                   cli.out.c_str());
      return 2;
    }
    std::printf("(report written: %s)\n", cli.out.c_str());
  }
  if (cli.compare_baseline.empty()) return 0;
  report baseline;
  try {
    baseline = load_report_file(cli.compare_baseline);
  } catch (std::exception const& e) {
    std::fprintf(stderr, "px_bench: %s\n", e.what());
    return 2;
  }
  auto const cmp = compare(baseline, current, cli.threshold_pct);
  std::printf("\nbaseline comparison (%s):\n%s",
              cli.compare_baseline.c_str(), cmp.to_text().c_str());
  return cmp.passed ? 0 : 1;
}

counter_probe::counter_probe()
    : begin_(counters::registry::instance().take_snapshot()) {}

std::string counter_probe::row_suffix() const {
  auto const d =
      counters::delta(begin_, counters::registry::instance().take_snapshot());
  // Per-worker paths share a metric suffix; summing by suffix folds them
  // into one pool-wide number per metric.
  auto sum_suffix = [&](std::string const& suffix) {
    std::uint64_t total = 0;
    for (auto const& s : d.samples)
      if (s.path.size() >= suffix.size() &&
          s.path.compare(s.path.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
        total += s.value;
    return total;
  };
  char buf[192];
  std::snprintf(
      buf, sizeof buf,
      "[counters: tasks=%llu steals=%llu yields=%llu stack_hits=%llu "
      "stack_misses=%llu parcels=%llu]",
      static_cast<unsigned long long>(sum_suffix("/tasks_executed")),
      static_cast<unsigned long long>(sum_suffix("/steals")),
      static_cast<unsigned long long>(sum_suffix("/yields")),
      static_cast<unsigned long long>(sum_suffix("/pool_hits")),
      static_cast<unsigned long long>(sum_suffix("/pool_misses")),
      static_cast<unsigned long long>(sum_suffix("/parcel/messages_sent")));
  return buf;
}

void print_header(std::string const& experiment,
                  std::string const& caption) {
  std::printf("==============================================================="
              "=========\n");
  std::printf("%s\n%s\n", experiment.c_str(), caption.c_str());
  std::printf("==============================================================="
              "=========\n");
}

std::vector<std::size_t> figure_core_counts(arch::machine const& m) {
  std::vector<std::size_t> cores;
  for (std::size_t c = 1; c < m.total_cores(); c *= 2) cores.push_back(c);
  // NUMA-relevant sample points (domain boundaries and half-domains).
  std::size_t const per_dom = m.cores_per_domain();
  for (std::size_t d = 1; d <= m.numa_domains; ++d) {
    cores.push_back(d * per_dom);
    if (d * per_dom + per_dom / 2 <= m.total_cores())
      cores.push_back(d * per_dom + per_dom / 2);
  }
  cores.push_back(m.total_cores());
  std::sort(cores.begin(), cores.end());
  cores.erase(std::unique(cores.begin(), cores.end()), cores.end());
  cores.erase(std::remove_if(cores.begin(), cores.end(),
                             [&](std::size_t c) {
                               return c == 0 || c > m.total_cores();
                             }),
              cores.end());
  return cores;
}

void print_fig_2d(arch::machine const& m, std::size_t nx, std::size_t ny,
                  std::size_t steps) {
  arch::stencil2d_model model(m);
  std::printf("grid %zux%zu, %zu time steps — modeled GLUP/s on %s\n\n",
              nx, ny, steps, m.name.c_str());
  std::printf("cores | float-auto float-pack  dbl-auto  dbl-pack |"
              " fpeak-min fpeak-max dpeak-min dpeak-max\n");
  std::printf("------+---------------------------------------------+"
              "----------------------------------------\n");
  for (std::size_t c : figure_core_counts(m)) {
    std::printf("%5zu | %10.2f %10.2f %9.2f %9.2f | %9.2f %9.2f %9.2f "
                "%9.2f\n",
                c, model.glups(c, 4, false), model.glups(c, 4, true),
                model.glups(c, 8, false), model.glups(c, 8, true),
                model.expected_peak_min_glups(c, 4),
                model.expected_peak_max_glups(c, 4),
                model.expected_peak_min_glups(c, 8),
                model.expected_peak_max_glups(c, 8));
  }
  // Machine-readable dump (all four variants + both peak pairs).
  {
    std::vector<std::vector<double>> rows;
    for (std::size_t c : figure_core_counts(m))
      rows.push_back({static_cast<double>(c), model.glups(c, 4, false),
                      model.glups(c, 4, true), model.glups(c, 8, false),
                      model.glups(c, 8, true),
                      model.expected_peak_min_glups(c, 4),
                      model.expected_peak_max_glups(c, 4),
                      model.expected_peak_min_glups(c, 8),
                      model.expected_peak_max_glups(c, 8)});
    write_csv("fig2d_" + m.short_name,
              {"cores", "float_auto", "float_pack", "double_auto",
               "double_pack", "fpeak_min", "fpeak_max", "dpeak_min",
               "dpeak_max"},
              rows);
  }

  // Figure rendering: the float series against the roofline guides.
  {
    auto const cores = figure_core_counts(m);
    chart_series auto_s{'a', "float-auto", {}};
    chart_series pack_s{'p', "float-pack", {}};
    chart_series pmin{'-', "peak-min", {}};
    chart_series pmax{'=', "peak-max", {}};
    for (std::size_t c : cores) {
      auto_s.y.push_back(model.glups(c, 4, false));
      pack_s.y.push_back(model.glups(c, 4, true));
      pmin.y.push_back(model.expected_peak_min_glups(c, 4));
      pmax.y.push_back(model.expected_peak_max_glups(c, 4));
    }
    render_ascii_chart("GLUP/s (float)", cores,
                       {pmax, pmin, pack_s, auto_s});
  }

  std::size_t const full = m.total_cores();
  std::printf("\nfull-node explicit-vectorization gain: float %+.0f%%, "
              "double %+.0f%%\n",
              100.0 * (model.glups(full, 4, true) /
                           model.glups(full, 4, false) -
                       1.0),
              100.0 * (model.glups(full, 8, true) /
                           model.glups(full, 8, false) -
                       1.0));
  std::printf("full-node run time: float %.2f s (auto) / %.2f s (pack), "
              "double %.2f s / %.2f s\n",
              model.run_time_s(full, nx, ny, steps, 4, false),
              model.run_time_s(full, nx, ny, steps, 4, true),
              model.run_time_s(full, nx, ny, steps, 8, false),
              model.run_time_s(full, nx, ny, steps, 8, true));
}

namespace {

template <typename Cell>
double host_variant_mlups(px::runtime& rt, std::size_t nx, std::size_t ny,
                          std::size_t steps) {
  using namespace px::stencil;
  field2d<Cell> u0(nx, ny), u1(nx, ny);
  init_dirichlet_problem(u0);
  init_dirichlet_problem(u1);
  auto result = px::sync_wait(rt, [&] {
    return run_jacobi2d(px::execution::par, u0, u1, steps);
  });
  return result.glups * 1e3;
}

}  // namespace

void host_validate_2d(std::size_t nx, std::size_t ny, std::size_t steps) {
  px::runtime rt{px::scheduler_config{}};
  using px::simd::abi::native;
  // One timing row per variant, each with the counter deltas it produced.
  auto timed_row = [](char const* label, auto run) {
    counter_probe probe;
    double const mlups = run();
    std::printf("  %-11s %8.0f MLUP/s  %s\n", label, mlups,
                probe.row_suffix().c_str());
    return mlups;
  };
  std::printf("\nhost validation (%zux%zu, %zu steps, real run):\n", nx, ny,
              steps);
  double const fa = timed_row("float-auto", [&] {
    return host_variant_mlups<float>(rt, nx, ny, steps);
  });
  double const fp = timed_row("float-pack", [&] {
    return host_variant_mlups<native<float>>(rt, nx, ny, steps);
  });
  double const da = timed_row("double-auto", [&] {
    return host_variant_mlups<double>(rt, nx, ny, steps);
  });
  double const dp = timed_row("double-pack", [&] {
    return host_variant_mlups<native<double>>(rt, nx, ny, steps);
  });
  std::printf("  pack speedup: float %.2fx, double %.2fx\n", fp / fa,
              dp / da);
}

bool write_csv(std::string const& experiment,
               std::vector<std::string> const& columns,
               std::vector<std::vector<double>> const& rows) {
  auto dir = px::env_string("PX_CSV_DIR");
  if (!dir) return false;
  std::string const path = *dir + "/" + experiment + ".csv";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t c = 0; c < columns.size(); ++c)
    std::fprintf(f, "%s%s", c ? "," : "", columns[c].c_str());
  std::fprintf(f, "\n");
  for (auto const& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c)
      std::fprintf(f, "%s%.10g", c ? "," : "", row[c]);
    std::fprintf(f, "\n");
  }
  std::fclose(f);
  std::printf("(csv written: %s)\n", path.c_str());
  return true;
}

void render_ascii_chart(std::string const& y_label,
                        std::vector<std::size_t> const& x,
                        std::vector<chart_series> const& series,
                        std::size_t height) {
  if (x.empty() || series.empty() || height < 4) return;
  double ymax = 0.0;
  for (auto const& s : series)
    for (double v : s.y) ymax = std::max(ymax, v);
  if (ymax <= 0.0) return;

  // Grid: one column per x sample (3 chars wide), rows top-down.
  std::size_t const cols = x.size();
  std::vector<std::string> rows(height, std::string(3 * cols, ' '));
  for (auto const& s : series) {
    for (std::size_t i = 0; i < cols && i < s.y.size(); ++i) {
      double const frac = s.y[i] / ymax;
      auto const row = static_cast<std::size_t>(
          (1.0 - frac) * static_cast<double>(height - 1) + 0.5);
      rows[row][3 * i + 1] = s.symbol;
    }
  }

  std::printf("\n%s (peak %.2f)\n", y_label.c_str(), ymax);
  for (std::size_t r = 0; r < height; ++r) {
    double const level =
        ymax * (1.0 - static_cast<double>(r) / static_cast<double>(height - 1));
    std::printf("%8.2f |%s\n", level, rows[r].c_str());
  }
  std::printf("         +%s\n   cores  ", std::string(3 * cols, '-').c_str());
  for (std::size_t i = 0; i < cols; ++i) {
    if (i % 2 == 0)
      std::printf("%-6zu", x[i]);
  }
  std::printf("\n   ");
  for (auto const& s : series)
    std::printf(" [%c] %s", s.symbol, s.label.c_str());
  std::printf("\n");
}

void print_counter_table(arch::machine const& m,
                         std::vector<paper_counter_row> const& paper,
                         char const* miss_label) {
  std::printf("single core, 8192x16384 grid, 100 iterations — %s\n\n",
              m.name.c_str());
  std::printf("%-14s | %-22s | %-22s", "Data Type", "Instructions",
              miss_label);
  bool const has_fe = std::any_of(paper.begin(), paper.end(),
                                  [](auto& r) { return r.frontend_stalls > 0; });
  bool const has_be = std::any_of(paper.begin(), paper.end(),
                                  [](auto& r) { return r.backend_stalls > 0; });
  if (has_fe) std::printf(" | %-22s", "Frontend Stalls");
  if (has_be) std::printf(" | %-22s", "Backend Stalls");
  std::printf("\n%-14s | %10s %11s | %10s %11s", "", "model", "paper",
              "model", "paper");
  if (has_fe) std::printf(" | %10s %11s", "model", "paper");
  if (has_be) std::printf(" | %10s %11s", "model", "paper");
  std::printf("\n");

  std::size_t const specs[4][2] = {{4, 0}, {4, 1}, {8, 0}, {8, 1}};
  for (std::size_t i = 0; i < paper.size() && i < 4; ++i) {
    arch::kernel_spec k;
    k.scalar_bytes = specs[i][0];
    k.explicit_vector = specs[i][1] != 0;
    auto est = estimate_jacobi_counters(m, k);
    std::printf("%-14s | %10.3e %11.3e | ", paper[i].label,
                est.instructions, paper[i].instructions);
    if (paper[i].cache_misses > 0)
      std::printf("%10.3e %11.3e", est.cache_misses,
                  paper[i].cache_misses);
    else
      std::printf("%10.3e %11s", est.cache_misses, "n/r");
    if (has_fe) {
      if (est.frontend_stalls && paper[i].frontend_stalls > 0)
        std::printf(" | %10.3e %11.3e", *est.frontend_stalls,
                    paper[i].frontend_stalls);
      else
        std::printf(" | %10s %11s", "n/a", "n/r");
    }
    if (has_be) {
      if (est.backend_stalls && paper[i].backend_stalls > 0)
        std::printf(" | %10.3e %11.3e", *est.backend_stalls,
                    paper[i].backend_stalls);
      else
        std::printf(" | %10s %11s", "n/a", "n/r");
    }
    std::printf("\n");
  }
  std::printf("\n(model: analytic counter model; paper: value from the "
              "corresponding table; n/r: not reported; n/a: PMU lacks the "
              "counter on this part)\n");
}

}  // namespace px::bench
