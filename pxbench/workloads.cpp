// pxbench/workloads.cpp
// The benchmark's workload program. It runs one workload closed-loop (the
// next solve starts when the previous one returned and its output was
// checked) against the public API of px::dist, px::stencil, px::simd and
// px::runtime, and prints the raw samples as one JSON document on stdout.
// pxbench/run.py builds this program, runs it and turns the samples into the
// named metrics; all percentile and ratio arithmetic lives there.
//
//   pxbench_workloads --workload heat1d_dist|heat1d_skewed|jacobi2d_vns
//                     --seed N --seconds S --trace 0|1 --out DIR
//                     [--llc-bytes B]
//
// A run is: the oracle (once, untimed), several set-ups (the last one's
// state is kept), and the untraced solve loop the end-to-end metrics come
// from. With --trace 1 a second, traced loop follows: it records the
// benchmark's own spans around each call into the program, the px::trace
// task slices and the counter registry's deltas, and writes both kinds of
// span to DIR as one Chrome trace file. --llc-bytes sizes the STREAM arrays
// of jacobi2d_vns at 4x the last-level cache.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "px/arch/stream_bench.hpp"
#include "px/counters/counters.hpp"
#include "px/dist/distributed_domain.hpp"
#include "px/lcos/async.hpp"
#include "px/parallel/execution.hpp"
#include "px/runtime/runtime.hpp"
#include "px/runtime/trace.hpp"
#include "px/stencil/heat1d_distributed.hpp"
#include "px/stencil/heat1d_rebalance.hpp"
#include "px/stencil/jacobi2d_vns.hpp"
#include "px/stencil/reference.hpp"

namespace {

using steady = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             steady::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) * 1e-9;
}

// Counter-based generator: element i of a seed's input is a pure function
// of (seed, i), so inputs repeat exactly for a seed and need no state.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double unit_value(std::uint64_t seed, std::uint64_t i) {
  return static_cast<double>(mix64(mix64(seed) ^ i) >> 11) * 0x1p-53;
}

std::vector<double> random_heat_field(std::uint64_t seed, std::size_t nx) {
  std::vector<double> v(nx);
  for (std::size_t i = 0; i < nx; ++i) v[i] = unit_value(seed, i);
  return v;
}

// ---- spans -----------------------------------------------------------------

// The benchmark's own spans: one per call into a layer, kept in memory and
// written out at the end. `parent` indexes this log (-1 for a root).
struct span {
  char const* name;
  std::int64_t begin_ns;
  std::int64_t end_ns;
  int parent;
  long solve;  // solve index, -1 for set-up spans
};

class span_log {
 public:
  void enable(bool on) { on_ = on; }

  int open(char const* name, int parent, long solve) {
    if (!on_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, solve});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }
  [[nodiscard]] std::vector<span> const& spans() const { return spans_; }

 private:
  bool on_ = false;
  std::vector<span> spans_;
};

class scoped_span {
 public:
  scoped_span(span_log& log, char const* name, int parent, long solve)
      : log_(log), id_(log.open(name, parent, solve)) {}
  ~scoped_span() { log_.close(id_); }
  scoped_span(scoped_span const&) = delete;
  scoped_span& operator=(scoped_span const&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  span_log& log_;
  int id_;
};

// ---- small JSON writer -------------------------------------------------------

std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string str(std::string const& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string list(std::vector<double> const& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += num(v[i]);
  }
  return out + "]";
}

// ---- workloads ---------------------------------------------------------------

// One solve's outcome as the loop sees it: wall seconds (call until the
// program is quiescent again) and whether the output matched the oracle.
struct solve_outcome {
  double seconds = 0.0;
  bool correct = false;
};

class workload {
 public:
  virtual ~workload() = default;
  workload() = default;
  workload(workload const&) = delete;
  workload& operator=(workload const&) = delete;

  // {"name": value, ...} — the parameters the program sees.
  [[nodiscard]] virtual std::string params() const = 0;
  [[nodiscard]] virtual std::uint64_t lattice_updates_per_solve() const = 0;
  [[nodiscard]] virtual std::uint64_t steps_per_solve() const = 0;
  [[nodiscard]] virtual std::size_t setups() const = 0;
  [[nodiscard]] virtual std::size_t min_solves() const = 0;
  [[nodiscard]] virtual std::size_t traced_solves() const = 0;

  // Reference output, computed once per run outside every timed region.
  virtual void compute_oracle() = 0;
  // Builds the solve state (domain or runtime, generated input) and runs
  // one warm-up solve. Replaces any previous state; the previous state's
  // destruction is timed separately by teardown().
  virtual void setup(span_log& log) = 0;
  virtual void teardown(span_log& log) = 0;
  virtual solve_outcome solve(span_log& log, long id) = 0;
  // Workload-specific per-solve gauges (name -> samples of the traced loop).
  virtual void extra_json(std::string& /*out*/) const {}
  // Layer figures measured once after the traced loop (name -> value).
  virtual void after_traced(std::map<std::string, double>& /*out*/) {}
  void set_traced(bool on) { traced_ = on; }

 protected:
  bool traced_ = false;

  // Runs f inside a set-up span and returns its wall seconds.
  template <typename F>
  static double timed(span_log& log, char const* name, int parent, F&& f) {
    scoped_span s(log, name, parent, -1);
    std::int64_t const t0 = now_ns();
    f();
    return seconds_since(t0);
  }
};

// The shape both heat workloads share: a 3-locality domain of one worker
// each, a generated 1D field, and per solve one solver call followed by
// wait_all_quiescent. Subclasses supply the domain, the call and the check.
class heat_workload : public workload {
 public:
  heat_workload(std::uint64_t seed, std::size_t nx, std::uint64_t steps)
      : seed_(seed), nx_(nx), steps_(steps) {}

  [[nodiscard]] std::uint64_t lattice_updates_per_solve() const override {
    return nx_ * steps_;
  }
  [[nodiscard]] std::uint64_t steps_per_solve() const override {
    return steps_;
  }
  // Set-ups and solves take tens of milliseconds, so a run makes many.
  [[nodiscard]] std::size_t setups() const override { return 15; }
  [[nodiscard]] std::size_t min_solves() const override { return 100; }
  [[nodiscard]] std::size_t traced_solves() const override { return 20; }

  void setup(span_log& log) override {
    scoped_span root(log, "setup", -1, -1);
    ctor_ms_.push_back(1e3 * timed(log, "dist.domain_ctor", root.id(), [&] {
      dom_ = std::make_unique<px::dist::distributed_domain>(domain_cfg());
    }));
    timed(log, "input", root.id(),
          [&] { initial_ = random_heat_field(seed_, nx_); });
    timed(log, "warmup", root.id(), [&] {
      (void)call(*dom_, initial_);
      dom_->wait_all_quiescent();
    });
  }

  void teardown(span_log& log) override {
    if (!dom_) return;
    dtor_ms_.push_back(1e3 * timed(log, "dist.domain_dtor", -1,
                                   [&] { dom_.reset(); }));
  }

  solve_outcome solve(span_log& log, long id) override {
    solve_outcome o;
    std::vector<double> values;
    {
      scoped_span root(log, "solve", -1, id);
      std::int64_t const t0 = now_ns();
      {
        scoped_span s(log, call_name(), root.id(), id);
        values = call(*dom_, initial_);
      }
      {
        scoped_span s(log, "dist.quiesce", root.id(), id);
        dom_->wait_all_quiescent();
      }
      o.seconds = seconds_since(t0);
    }
    o.correct = values.size() == reference_.size() && matches(values);
    return o;
  }

  void extra_json(std::string& out) const override {
    out += ",\"domain_ctor_ms\":" + list(ctor_ms_) +
           ",\"domain_dtor_ms\":" + list(dtor_ms_);
  }

 protected:
  virtual px::dist::domain_config domain_cfg() const {
    px::dist::domain_config c;
    c.num_localities = 3;
    c.locality_cfg.num_workers = 1;
    c.locality_cfg.seed = mix64(seed_ ^ 0x5eedull);
    c.fabric = px::net::infiniband_edr();
    c.injection_scale = 0.0;
    return c;
  }
  [[nodiscard]] virtual char const* call_name() const = 0;
  // One solve of `initial` on `dom`; returns the final field.
  virtual std::vector<double> call(px::dist::distributed_domain& dom,
                                   std::vector<double> const& initial) = 0;
  [[nodiscard]] virtual bool matches(std::vector<double> const& v) const = 0;

  std::uint64_t const seed_;
  std::size_t const nx_;
  std::uint64_t const steps_;
  std::vector<double> reference_;

 private:
  std::vector<double> initial_;
  std::unique_ptr<px::dist::distributed_domain> dom_;
  std::vector<double> ctor_ms_, dtor_ms_;
};

// Fully distributed 1D heat (Fig 3): halo parcels over the reliable,
// coalescing transport with buddy checkpoints.
class heat1d_dist final : public heat_workload {
 public:
  explicit heat1d_dist(std::uint64_t seed) : heat_workload(seed, 49152, 500) {
    cfg_.nx_total = nx_;
    cfg_.steps = steps_;
    cfg_.checkpoint_interval = 50;
  }

  [[nodiscard]] std::string params() const override {
    return "{\"localities\":3,\"workers_per_locality\":1,"
           "\"fabric\":\"infiniband_edr\",\"injection_scale\":0,"
           "\"reliability\":\"on\",\"coalescing\":\"on\","
           "\"checkpoint_interval\":50,\"nx\":49152,\"steps\":500,"
           "\"k\":0.25,\"input\":\"uniform [0,1) from seed\"}";
  }

  void compute_oracle() override {
    reference_ = px::stencil::reference_heat1d(random_heat_field(seed_, nx_),
                                               steps_, cfg_.k);
  }

 private:
  px::dist::domain_config domain_cfg() const override {
    px::dist::domain_config c = heat_workload::domain_cfg();
    c.reliability.activation = px::net::reliability_config::mode::on;
    c.coalescing.enabled = true;
    return c;
  }
  [[nodiscard]] char const* call_name() const override {
    return "dist.run_distributed_heat1d";
  }
  std::vector<double> call(px::dist::distributed_domain& dom,
                           std::vector<double> const& initial) override {
    return px::stencil::run_distributed_heat1d(dom, initial, cfg_).values;
  }
  // The tests' bound against the serial reference.
  [[nodiscard]] bool matches(std::vector<double> const& v) const override {
    return px::stencil::max_abs_diff(v, reference_) < 1e-13;
  }

  px::stencil::dist_heat_config cfg_;
};

// Zipf-skewed 1D heat over migratable AGAS partitions on the plain
// transport: GID-addressed calls, a barrier per round, live migration.
class heat1d_skewed final : public heat_workload {
 public:
  explicit heat1d_skewed(std::uint64_t seed)
      : heat_workload(seed, 1u << 14, 48) {
    cfg_.partitions = 32;
    cfg_.steps = steps_;
    cfg_.steps_per_round = 8;
    cfg_.zipf_s = 1.1;
    cfg_.compute_cost = 50;
    cfg_.rebalance = true;
  }

  [[nodiscard]] std::string params() const override {
    return "{\"localities\":3,\"workers_per_locality\":1,"
           "\"fabric\":\"infiniband_edr\",\"injection_scale\":0,"
           "\"reliability\":\"off\",\"coalescing\":\"off\",\"nx\":16384,"
           "\"partitions\":32,\"zipf_s\":1.1,\"compute_cost\":50,"
           "\"steps\":48,\"steps_per_round\":8,\"rebalance\":\"on\","
           "\"k\":0.25,\"input\":\"uniform [0,1) from seed\"}";
  }

  // The repository's rebalance oracle: a static-placement solve of the
  // same input must be bitwise identical to the rebalanced one.
  void compute_oracle() override {
    px::dist::distributed_domain dom(domain_cfg());
    auto c = cfg_;
    c.rebalance = false;
    reference_ =
        px::stencil::run_skewed_heat1d(dom, random_heat_field(seed_, nx_), c)
            .values;
    dom.wait_all_quiescent();
  }

  void extra_json(std::string& out) const override {
    heat_workload::extra_json(out);
    out += ",\"imbalance_initial\":" + list(imbalance_initial_) +
           ",\"imbalance_final\":" + list(imbalance_final_);
  }

 private:
  [[nodiscard]] char const* call_name() const override {
    return "dist.run_skewed_heat1d";
  }
  std::vector<double> call(px::dist::distributed_domain& dom,
                           std::vector<double> const& initial) override {
    auto r = px::stencil::run_skewed_heat1d(dom, initial, cfg_);
    if (traced_) {
      imbalance_initial_.push_back(r.imbalance_initial);
      imbalance_final_.push_back(r.imbalance_final);
    }
    return std::move(r.values);
  }
  [[nodiscard]] bool matches(std::vector<double> const& v) const override {
    return std::memcmp(v.data(), reference_.data(),
                       v.size() * sizeof(double)) == 0;
  }

  px::stencil::skewed_heat_config cfg_;
  std::vector<double> imbalance_initial_, imbalance_final_;
};

// 2D Jacobi in f32 with explicit native-width packs on a DRAM-resident
// grid (Fig 4-9): the layout encode, the sweeps and the decode.
class jacobi2d_vns final : public workload {
 public:
  using field = px::stencil::field2d<float>;
  static constexpr std::size_t nx = 10240, ny = 10752, steps = 100,
                               workers = 4;

  // STREAM arrays hold at least 4x the last-level cache (3 arrays of
  // doubles), and never less than the STREAM default.
  jacobi2d_vns(std::uint64_t seed, std::size_t llc_bytes)
      : seed_(seed),
        stream_elements_(
            std::max<std::size_t>(std::size_t{1} << 24, 4 * llc_bytes / 8)) {}

  [[nodiscard]] std::string params() const override {
    return "{\"workers\":4,\"cell\":\"float\",\"cell_bytes\":4,"
           "\"abi\":\"native\","
           "\"native_vector_bits\":" +
           std::to_string(px::stencil::vns_abi_vector_bits(
               px::stencil::vns_abi::native)) +
           ",\"policy\":\"par\",\"nx\":10240,\"ny\":10752,\"steps\":100,"
           "\"array_mib\":" +
           num(static_cast<double>((nx + 2) * (ny + 2) * sizeof(float)) /
               (1 << 20)) +
           ",\"input\":\"uniform [0,1) interior and boundaries from seed\"}";
  }
  [[nodiscard]] std::uint64_t lattice_updates_per_solve() const override {
    return std::uint64_t{nx} * ny * steps;
  }
  [[nodiscard]] std::uint64_t steps_per_solve() const override {
    return steps;
  }
  [[nodiscard]] std::size_t setups() const override { return 2; }
  [[nodiscard]] std::size_t min_solves() const override { return 2; }
  [[nodiscard]] std::size_t traced_solves() const override { return 3; }

  void compute_oracle() override {
    px::runtime rt(runtime_cfg());
    auto const initial = make_input();
    reference_ = px::sync_wait(rt, [&] {
                   return px::stencil::run_jacobi2d_auto<float>(
                       px::execution::par, *initial, steps);
                 }).interior;
  }

  void setup(span_log& log) override {
    scoped_span root(log, "setup", -1, -1);
    timed(log, "runtime_ctor", root.id(),
          [&] { rt_ = std::make_unique<px::runtime>(runtime_cfg()); });
    timed(log, "input", root.id(), [&] { initial_ = make_input(); });
    timed(log, "warmup", root.id(), [&] { (void)run_library(); });
  }

  void teardown(span_log& log) override {
    if (!rt_) return;
    timed(log, "teardown", -1, [&] {
      initial_.reset();
      rt_.reset();
    });
  }

  solve_outcome solve(span_log& log, long id) override {
    solve_outcome o;
    std::vector<float> interior;
    {
      scoped_span root(log, "solve", -1, id);
      std::int64_t const t0 = now_ns();
      // Untraced solves call the library's composed entry point; traced
      // ones compose its public pieces themselves, one span each.
      interior = traced_ ? run_pieces(log, root.id(), id) : run_library();
      o.seconds = seconds_since(t0);
    }
    o.correct = matches_reference(interior);
    return o;
  }

  // Single-thread sweep baseline and the same-run STREAM copy bandwidth.
  void after_traced(std::map<std::string, double>& out) override {
    constexpr std::size_t seq_sweeps = 4;
    out["stencil.sweep_glups.seq"] = px::sync_wait(*rt_, [&] {
      return px::stencil::with_vns_pack<float>(
          px::stencil::vns_abi::native, [&](auto tag) {
            using P = typename decltype(tag)::type;
            px::stencil::field2d<P> u0(nx, ny), u1(nx, ny);
            px::stencil::copy_problem(u0, *initial_);
            px::stencil::copy_problem(u1, *initial_);
            return px::stencil::run_jacobi2d(px::execution::seq, u0, u1,
                                             seq_sweeps)
                .glups;
          });
    });
    px::arch::stream_config sc;
    sc.array_elements = stream_elements_;
    sc.repetitions = 5;
    out["arch.stream_copy_gbs"] =
        px::arch::measure_copy_bandwidth_gbs(*rt_, sc);
    out["arch.stream_array_mib"] =
        static_cast<double>(stream_elements_ * sizeof(double)) / (1 << 20);
  }

 private:
  px::scheduler_config runtime_cfg() const {
    px::scheduler_config c;
    c.num_workers = workers;
    c.seed = mix64(seed_ ^ 0x5eedull);
    return c;
  }

  std::unique_ptr<field> make_input() const {
    auto f = std::make_unique<field>(nx, ny);
    std::uint64_t i = 0;
    for (std::size_t y = 0; y < ny; ++y)
      for (std::size_t x = 0; x < nx; ++x)
        f->set(x, y, static_cast<float>(unit_value(seed_, i++)));
    for (std::size_t y = 0; y < ny; ++y) {
      f->set_left_boundary(y, static_cast<float>(unit_value(seed_, i++)));
      f->set_right_boundary(y, static_cast<float>(unit_value(seed_, i++)));
    }
    for (std::size_t x = 0; x < nx; ++x) {
      f->set_top_boundary(x, static_cast<float>(unit_value(seed_, i++)));
      f->set_bottom_boundary(x, static_cast<float>(unit_value(seed_, i++)));
    }
    f->refresh_all_halos();
    return f;
  }

  std::vector<float> run_library() {
    return px::sync_wait(*rt_, [&] {
             return px::stencil::run_jacobi2d_vns<float>(
                 px::execution::par, px::stencil::vns_abi::native, *initial_,
                 steps);
           })
        .interior;
  }

  // The body of run_jacobi2d_vns, one span per public piece.
  std::vector<float> run_pieces(span_log& log, int parent, long id) {
    return px::sync_wait(*rt_, [&] {
      return px::stencil::with_vns_pack<float>(
          px::stencil::vns_abi::native, [&](auto tag) {
            using P = typename decltype(tag)::type;
            std::optional<px::stencil::field2d<P>> u0, u1;
            {
              scoped_span s(log, "stencil.alloc", parent, id);
              u0.emplace(nx, ny);
              u1.emplace(nx, ny);
            }
            {
              scoped_span s(log, "simd.encode", parent, id);
              px::stencil::copy_problem(*u0, *initial_);
              px::stencil::copy_problem(*u1, *initial_);
            }
            px::stencil::jacobi2d_result t;
            {
              scoped_span s(log, "stencil.sweep", parent, id);
              t = px::stencil::run_jacobi2d(px::execution::par, *u0, *u1,
                                            steps);
            }
            scoped_span s(log, "simd.decode", parent, id);
            return px::stencil::interior_snapshot(t.final_index == 0 ? *u0
                                                                     : *u1);
          });
    });
  }

  // The float bound of test_simd_kernels.
  bool matches_reference(std::vector<float> const& v) const {
    if (v.size() != reference_.size()) return false;
    for (std::size_t i = 0; i < v.size(); ++i)
      if (!(std::fabs(static_cast<double>(v[i]) -
                      static_cast<double>(reference_[i])) <= 2e-5))
        return false;
    return true;
  }

  std::uint64_t seed_;
  std::size_t stream_elements_;
  std::vector<float> reference_;
  std::unique_ptr<px::runtime> rt_;
  std::unique_ptr<field> initial_;
};

// ---- process-level readings --------------------------------------------------

// Resets the kernel's peak-RSS mark so that the figure covers set-up and
// solves, not the oracle. Best effort: without it the peak includes the
// oracle's buffers.
bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}

double peak_rss_kib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr);
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](timeval t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

// Chrome trace: the px::trace document with the benchmark's spans appended
// as a second process (pid 1). Span timestamps are mapped onto the
// px::trace epoch. Also returns the histogram of px::trace slice durations
// (microseconds -> count), read back from that document.
std::map<std::uint64_t, std::uint64_t> write_chrome_trace(
    std::string const& path, std::vector<span> const& spans,
    std::int64_t epoch_offset_us) {
  std::string doc = px::trace::to_json();
  std::map<std::uint64_t, std::uint64_t> hist;
  static constexpr char key[] = "\"dur\":";
  for (std::size_t p = doc.find(key); p != std::string::npos;
       p = doc.find(key, p + 1))
    ++hist[std::strtoull(doc.c_str() + p + sizeof key - 1, nullptr, 10)];

  std::string extra =
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":"
      "\"pxbench spans\"}}";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    span const& s = spans[i];
    std::int64_t const ts = s.begin_ns / 1000 + epoch_offset_us;
    extra += ",{\"name\":" + str(s.name) +
             ",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":" + std::to_string(ts) +
             ",\"dur\":" + num(static_cast<double>(s.end_ns - s.begin_ns) / 1e3) +
             ",\"args\":{\"id\":" + std::to_string(i) +
             ",\"parent\":" + std::to_string(s.parent) +
             ",\"solve\":" + std::to_string(s.solve) + "}}";
  }
  // to_json() always ends in "]}"; splice the spans into its event list.
  doc.resize(doc.size() - 2);
  if (doc.back() != '[') doc += ',';
  doc += extra + "]}";
  std::ofstream f(path);
  f << doc;
  if (!f) throw std::runtime_error("cannot write " + path);
  return hist;
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::size_t llc_bytes = 0;
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string const k = argv[i], v = argv[i + 1];
    if (k == "--workload") o.workload = v;
    else if (k == "--seed") o.seed = std::stoull(v);
    else if (k == "--seconds") o.seconds = std::stod(v);
    else if (k == "--trace") o.trace = v == "1";
    else if (k == "--out") o.out_dir = v;
    else if (k == "--llc-bytes") o.llc_bytes = std::stoull(v);
    else throw std::invalid_argument("unknown option " + k);
  }
  if (o.seconds <= 0) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::unique_ptr<workload> make_workload(options const& o) {
  if (o.workload == "heat1d_dist") return std::make_unique<heat1d_dist>(o.seed);
  if (o.workload == "heat1d_skewed")
    return std::make_unique<heat1d_skewed>(o.seed);
  if (o.workload == "jacobi2d_vns")
    return std::make_unique<jacobi2d_vns>(o.seed, o.llc_bytes);
  throw std::invalid_argument("unknown workload " + o.workload);
}

// A closed solve loop: runs until `seconds` have passed and at least
// `min_solves` were made (or `max_solves`), and at most `cap_s` seconds.
struct loop_result {
  std::vector<double> solve_s;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double wall_s = 0.0;
};

loop_result solve_loop(workload& w, span_log& log, double seconds,
                       std::size_t min_solves, std::size_t max_solves,
                       double cap_s, long& next_id) {
  loop_result r;
  std::int64_t const t0 = now_ns();
  while (r.attempted < max_solves) {
    double const elapsed = seconds_since(t0);
    if (r.attempted >= min_solves && elapsed >= seconds) break;
    if (elapsed >= cap_s) break;
    ++r.attempted;
    try {
      solve_outcome const o = w.solve(log, next_id++);
      r.solve_s.push_back(o.seconds);
      if (!o.correct) {
        ++r.failed;
        std::fprintf(stderr, "pxbench: solve %ld output differs from oracle\n",
                     next_id - 1);
      }
    } catch (std::exception const& e) {
      ++r.failed;
      std::fprintf(stderr, "pxbench: solve %ld threw: %s\n", next_id - 1,
                   e.what());
    }
  }
  r.wall_s = seconds_since(t0);
  return r;
}

std::string counters_json(px::counters::snapshot const& d) {
  std::string out = "{";
  bool first = true;
  for (auto const& s : d.samples) {
    if (s.k != px::counters::kind::monotone) continue;
    if (!first) out += ',';
    out += str(s.path) + ":" + std::to_string(s.value);
    first = false;
  }
  return out + "}";
}

int run(options const& o) {
  std::int64_t const process_t0 = now_ns();
  // The first now_us() call fixes the px::trace epoch; anchoring it here
  // keeps the set-up spans at non-negative trace timestamps.
  std::int64_t const epoch_offset_us =
      static_cast<std::int64_t>(px::trace::now_us()) - process_t0 / 1000;
  auto w = make_workload(o);
  span_log log;

  std::fprintf(stderr, "pxbench: %s oracle\n", o.workload.c_str());
  std::int64_t t = now_ns();
  w->compute_oracle();
  double const oracle_s = seconds_since(t);
  bool const rss_reset = reset_peak_rss();

  std::vector<double> setup_s;
  log.enable(o.trace);
  for (std::size_t k = 0; k < w->setups(); ++k) {
    w->teardown(log);
    t = now_ns();
    w->setup(log);
    setup_s.push_back(seconds_since(t));
  }
  log.enable(false);

  std::fprintf(stderr, "pxbench: %s solve loop\n", o.workload.c_str());
  // Bounded so that a slow host still ends the run well inside 180 s.
  double const cap_s = std::max(o.seconds, 100.0 - seconds_since(process_t0));
  long next_id = 0;
  loop_result const main_loop =
      solve_loop(*w, log, o.seconds, w->min_solves(), SIZE_MAX,
                 o.trace ? std::min(cap_s, 45.0) : cap_s, next_id);

  std::string out = "{\"workload\":" + str(o.workload) +
                    ",\"params\":" + w->params() +
                    ",\"lattice_updates_per_solve\":" +
                    std::to_string(w->lattice_updates_per_solve()) +
                    ",\"steps_per_solve\":" +
                    std::to_string(w->steps_per_solve()) +
                    ",\"oracle_s\":" + num(oracle_s) +
                    ",\"setup_s\":" + list(setup_s) +
                    ",\"solve_s\":" + list(main_loop.solve_s) +
                    ",\"attempted\":" + std::to_string(main_loop.attempted) +
                    ",\"failed\":" + std::to_string(main_loop.failed) +
                    ",\"loop_wall_s\":" + num(main_loop.wall_s);
  std::size_t attempted = main_loop.attempted, failed = main_loop.failed;

  if (o.trace) {
    std::fprintf(stderr, "pxbench: %s traced loop\n", o.workload.c_str());
    // Size every trace ring for the whole traced loop: the busiest lane
    // records at most every task the untraced loop ran per solve.
    px::counters::interval_sampler probe;
    loop_result const probe_solve =
        solve_loop(*w, log, 0.0, 1, 1, cap_s, next_id);
    attempted += probe_solve.attempted;
    failed += probe_solve.failed;
    std::uint64_t tasks = 0;
    for (auto const& s : probe.delta().samples)
      if (s.path.rfind("/px/scheduler{", 0) == 0 &&
          s.path.size() > 15 &&
          s.path.compare(s.path.size() - 15, 15, "/tasks_executed") == 0)
        tasks += s.value;
    std::size_t const ring =
        static_cast<std::size_t>(tasks) * (w->traced_solves() + 1) * 2 + 4096;
    px::trace::set_ring_capacity(ring);

    w->set_traced(true);
    std::uint64_t const dropped0 = px::trace::dropped_count();
    log.enable(true);
    px::trace::enable();
    px::counters::interval_sampler sampler;
    double const cpu0 = cpu_seconds();
    loop_result const traced =
        solve_loop(*w, log, 0.0, w->traced_solves(), w->traced_solves(),
                   cap_s, next_id);
    double const cpu_s = cpu_seconds() - cpu0;
    auto const delta = sampler.delta();
    px::trace::disable();
    log.enable(false);
    std::uint64_t const dropped = px::trace::dropped_count() - dropped0;
    attempted += traced.attempted;
    failed += traced.failed;

    std::map<std::string, double> after;
    w->after_traced(after);

    std::string const trace_path =
        o.out_dir + "/trace-" + o.workload + ".json";
    auto const hist = write_chrome_trace(trace_path, log.spans(),
                                         epoch_offset_us);

    out += ",\"traced\":{\"solve_s\":" + list(traced.solve_s) +
           ",\"attempted\":" + std::to_string(traced.attempted) +
           ",\"failed\":" + std::to_string(traced.failed) +
           ",\"wall_s\":" + num(traced.wall_s) +
           ",\"cpu_s\":" + num(cpu_s) +
           ",\"ring_capacity\":" + std::to_string(ring) +
           ",\"trace_dropped\":" + std::to_string(dropped) +
           ",\"trace_file\":" + str(trace_path) +
           ",\"counters\":" + counters_json(delta) + ",\"slice_us_hist\":{";
    bool first = true;
    for (auto const& [us, n] : hist) {
      if (!first) out += ',';
      out += "\"" + std::to_string(us) + "\":" + std::to_string(n);
      first = false;
    }
    out += "},\"spans\":[";
    for (std::size_t i = 0; i < log.spans().size(); ++i) {
      span const& s = log.spans()[i];
      if (i != 0) out += ',';
      out += "[" + str(s.name) + "," +
             std::to_string(s.begin_ns) + "," + std::to_string(s.end_ns) +
             "," + std::to_string(s.parent) + "," + std::to_string(s.solve) +
             "]";
    }
    out += "],\"after\":{";
    first = true;
    for (auto const& [k, v] : after) {
      if (!first) out += ',';
      out += str(k) + ":" + num(v);
      first = false;
    }
    out += "}}";
  }
  w->extra_json(out);
  out += ",\"peak_rss_kib\":" + num(peak_rss_kib()) +
         ",\"peak_rss_excludes_oracle\":" + (rss_reset ? "true" : "false") +
         ",\"total_attempted\":" + std::to_string(attempted) +
         ",\"total_failed\":" + std::to_string(failed) + "}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (std::exception const& e) {
    std::fprintf(stderr, "pxbench: %s\n", e.what());
    return 2;
  }
}
