#include "px/bench/report.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "px/support/assert.hpp"
#include "px/support/env.hpp"

namespace px::bench {

// ---- robust statistics ---------------------------------------------------

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  std::size_t const mid = xs.size() / 2;
  if (xs.size() % 2 == 1) return xs[mid];
  return 0.5 * (xs[mid - 1] + xs[mid]);
}

double mad(std::vector<double> const& xs, double center) {
  if (xs.empty()) return 0.0;
  std::vector<double> dev;
  dev.reserve(xs.size());
  for (double const x : xs) dev.push_back(std::fabs(x - center));
  return median(std::move(dev));
}

// ---- JSON emission -------------------------------------------------------

namespace {

// Names, params and counter paths must not need JSON escaping — same
// restriction the counter registry enforces on paths.
void validate_literal(std::string const& s) {
  for (char const c : s)
    PX_ASSERT_MSG(static_cast<unsigned char>(c) >= 0x20 && c != '"' &&
                      c != '\\',
                  "bench names/params must not contain '\"', '\\' or "
                  "control characters");
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  out += buf;
}

}  // namespace

bench_result const* report::find(std::string const& name) const {
  for (auto const& b : benchmarks)
    if (b.name == name) return &b;
  return nullptr;
}

std::string report::to_json() const {
  std::string out;
  out.reserve(256 + benchmarks.size() * 512);
  out += "{\"schema\":\"";
  out += schema;
  out += "\",\"run_seed\":";
  out += std::to_string(run_seed);
  out += ",\"reps\":";
  out += std::to_string(reps);
  out += ",\"benchmarks\":[";
  bool first_b = true;
  for (auto const& b : benchmarks) {
    validate_literal(b.name);
    if (!first_b) out += ',';
    first_b = false;
    out += "\n{\"name\":\"";
    out += b.name;
    out += "\",\"params\":{";
    bool first_p = true;
    for (auto const& [k, v] : b.params) {
      validate_literal(k);
      validate_literal(v);
      if (!first_p) out += ',';
      first_p = false;
      out += '"';
      out += k;
      out += "\":\"";
      out += v;
      out += '"';
    }
    out += "},\"iterations\":";
    out += std::to_string(b.iterations);
    out += ",\"reps\":";
    out += std::to_string(b.reps);
    out += ",\"ns_per_op_median\":";
    append_double(out, b.ns_per_op_median);
    out += ",\"ns_per_op_mad\":";
    append_double(out, b.ns_per_op_mad);
    out += ",\"counters\":{";
    bool first_c = true;
    for (auto const& [path, value] : b.counters) {
      validate_literal(path);
      if (!first_c) out += ',';
      first_c = false;
      out += '"';
      out += path;
      out += "\":";
      out += std::to_string(value);
    }
    out += '}';
    if (!b.gauges.empty()) {
      out += ",\"gauges\":{";
      bool first_g = true;
      for (auto const& [path, value] : b.gauges) {
        validate_literal(path);
        if (!first_g) out += ',';
        first_g = false;
        out += '"';
        out += path;
        out += "\":";
        out += std::to_string(value);
      }
      out += '}';
    }
    out += '}';
  }
  out += "\n]}";
  return out;
}

// ---- JSON parsing --------------------------------------------------------

namespace {

// Minimal cursor-based parser for the px-bench/1 schema: objects, arrays,
// strings without escapes, and numbers. Anything else is malformed input.
class json_cursor {
 public:
  explicit json_cursor(std::string const& text) : s_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  [[nodiscard]] bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      char const c = s_[pos_++];
      if (c == '\\') fail("escape sequences are not part of the schema");
      out += c;
    }
    if (pos_ >= s_.size()) fail("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  [[nodiscard]] double parse_number() {
    skip_ws();
    char const* begin = s_.data() + pos_;
    char* end = nullptr;
    double const v = std::strtod(begin, &end);
    if (end == begin) fail("expected a number");
    // strtod also takes nan/inf, which are not JSON numbers (and a nan
    // median compares as +0.0%, passing any gate).
    if (!std::isfinite(v)) fail("expected a finite number");
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  [[nodiscard]] std::uint64_t parse_u64() {
    double const v = parse_number();
    if (v < 0) fail("expected a non-negative integer");
    return static_cast<std::uint64_t>(v);
  }

  // Iterates "key": <value> pairs of an object; `on_key` must consume the
  // value. Handles the empty object.
  template <typename Fn>
  void parse_object(Fn&& on_key) {
    expect('{');
    if (consume('}')) return;
    do {
      std::string key = parse_string();
      expect(':');
      on_key(key);
    } while (consume(','));
    expect('}');
  }

  template <typename Fn>
  void parse_array(Fn&& on_element) {
    expect('[');
    if (consume(']')) return;
    do {
      on_element();
    } while (consume(','));
    expect(']');
  }

  void finish() {
    skip_ws();
    if (pos_ != s_.size()) fail("trailing characters after document");
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0)
      ++pos_;
  }

  [[noreturn]] void fail(std::string const& what) const {
    throw std::runtime_error("px::bench: malformed report JSON at byte " +
                             std::to_string(pos_) + ": " + what);
  }

  std::string const& s_;
  std::size_t pos_ = 0;
};

}  // namespace

report parse_report_json(std::string const& text) {
  report r;
  r.schema.clear();
  json_cursor c(text);
  c.parse_object([&](std::string const& key) {
    if (key == "schema") {
      r.schema = c.parse_string();
    } else if (key == "run_seed") {
      r.run_seed = c.parse_u64();
    } else if (key == "reps") {
      r.reps = c.parse_u64();
    } else if (key == "benchmarks") {
      c.parse_array([&] {
        bench_result b;
        c.parse_object([&](std::string const& bkey) {
          if (bkey == "name") {
            b.name = c.parse_string();
          } else if (bkey == "params") {
            c.parse_object([&](std::string const& pkey) {
              b.params.emplace_back(pkey, c.parse_string());
            });
          } else if (bkey == "iterations") {
            b.iterations = c.parse_u64();
          } else if (bkey == "reps") {
            b.reps = c.parse_u64();
          } else if (bkey == "ns_per_op_median") {
            b.ns_per_op_median = c.parse_number();
          } else if (bkey == "ns_per_op_mad") {
            b.ns_per_op_mad = c.parse_number();
          } else if (bkey == "counters") {
            c.parse_object([&](std::string const& path) {
              b.counters.emplace_back(path, c.parse_u64());
            });
          } else if (bkey == "gauges") {
            // Optional (emitted only when non-empty; absent in documents
            // predating gauge recording).
            c.parse_object([&](std::string const& path) {
              b.gauges.emplace_back(path, c.parse_u64());
            });
          } else {
            throw std::runtime_error(
                "px::bench: unknown benchmark key '" + bkey + "'");
          }
        });
        r.benchmarks.push_back(std::move(b));
      });
    } else {
      throw std::runtime_error("px::bench: unknown report key '" + key +
                               "'");
    }
  });
  c.finish();
  if (r.schema != report_schema)
    throw std::runtime_error("px::bench: unsupported schema '" + r.schema +
                             "' (expected " + std::string(report_schema) +
                             ")");
  return r;
}

bool write_report_file(report const& r, std::string const& path) {
  std::ofstream f(path);
  if (!f) return false;
  f << r.to_json() << '\n';
  return static_cast<bool>(f);
}

report load_report_file(std::string const& path) {
  std::ifstream f(path);
  if (!f)
    throw std::runtime_error("px::bench: cannot read report file '" + path +
                             "'");
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_report_json(buf.str());
}

// ---- baseline comparison -------------------------------------------------

compare_result compare(report const& baseline, report const& current,
                       double threshold_pct) {
  compare_result out;
  out.threshold_pct = threshold_pct;
  for (auto const& base : baseline.benchmarks) {
    bench_result const* cur = current.find(base.name);
    if (cur == nullptr) {
      out.missing_in_current.push_back(base.name);
      continue;
    }
    compare_row row;
    row.name = base.name;
    row.baseline_ns = base.ns_per_op_median;
    row.current_ns = cur->ns_per_op_median;
    row.delta_pct = base.ns_per_op_median > 0.0
                        ? 100.0 * (cur->ns_per_op_median /
                                       base.ns_per_op_median -
                                   1.0)
                        : 0.0;
    row.regressed = row.delta_pct > threshold_pct;
    if (row.regressed) out.passed = false;
    out.rows.push_back(std::move(row));
  }
  for (auto const& cur : current.benchmarks)
    if (baseline.find(cur.name) == nullptr)
      out.missing_in_baseline.push_back(cur.name);
  return out;
}

std::string compare_result::to_text() const {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%-40s %12s %12s %9s\n", "benchmark",
                "baseline", "current", "delta");
  out += buf;
  for (auto const& row : rows) {
    std::snprintf(buf, sizeof buf, "%-40s %10.1fns %10.1fns %+8.1f%% %s\n",
                  row.name.c_str(), row.baseline_ns, row.current_ns,
                  row.delta_pct,
                  row.regressed ? "REGRESSION" : "");
    out += buf;
  }
  for (auto const& name : missing_in_current)
    out += "  (baseline only: " + name + ")\n";
  for (auto const& name : missing_in_baseline)
    out += "  (new, no baseline: " + name + ")\n";
  std::snprintf(buf, sizeof buf, "threshold %+.1f%%: %s\n", threshold_pct,
                passed ? "PASS" : "FAIL");
  out += buf;
  return out;
}

// ---- harness -------------------------------------------------------------

runner_options runner_options::from_env() {
  runner_options opts;
  if (auto v = env_u64("PX_BENCH_REPS")) opts.reps = std::max<std::uint64_t>(*v, 1);
  if (auto v = env_u64("PX_BENCH_WARMUP")) opts.warmup = *v;
  if (auto v = env_u64("PX_SEED")) opts.run_seed = *v;
  return opts;
}

runner::runner(runner_options opts) : opts_(opts) {
  report_.run_seed = opts_.run_seed;
  report_.reps = opts_.reps;
}

double runner::time_once(std::function<void()> const& body) {
  auto const begin = std::chrono::steady_clock::now();
  body();
  auto const end = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::duration<double>>(end -
                                                                   begin)
      .count();
}

void runner::finish_case(
    std::string name, std::vector<std::pair<std::string, std::string>> params,
    std::uint64_t iters, std::vector<double> ns_per_op,
    counters::snapshot const& before) {
  counters::snapshot const after =
      counters::registry::instance().take_snapshot();
  bench_result b;
  b.name = std::move(name);
  b.params = std::move(params);
  b.iterations = iters;
  b.reps = ns_per_op.size();
  b.ns_per_op_median = median(ns_per_op);
  b.ns_per_op_mad = mad(ns_per_op, b.ns_per_op_median);
  // Monotone deltas only: gauges (queue depths, cached stacks) are
  // point-in-time levels, meaningless as per-benchmark activity.
  for (auto const& s : counters::delta(before, after).samples)
    if (s.k == counters::kind::monotone && s.value != 0)
      b.counters.emplace_back(s.path, s.value);
  // Watched gauges are recorded as end-of-case levels (not deltas): a
  // tenant's p99_ns at the end of a load sweep IS the measurement.
  for (auto const& s : after.samples) {
    if (s.k != counters::kind::gauge || s.value == 0) continue;
    for (auto const& prefix : opts_.gauge_prefixes) {
      if (s.path.compare(0, prefix.size(), prefix) == 0) {
        b.gauges.emplace_back(s.path, s.value);
        break;
      }
    }
  }
  if (opts_.verbose)
    std::printf("  %-44s %12.1f ns/op  (mad %.1f, %llu reps x %llu iters)\n",
                b.name.c_str(), b.ns_per_op_median, b.ns_per_op_mad,
                static_cast<unsigned long long>(b.reps),
                static_cast<unsigned long long>(b.iterations));
  report_.benchmarks.push_back(std::move(b));
}

}  // namespace px::bench
