// Pipeline benchmark: the compress → multiply, factorize → solve, and serve
// pipelines measured end to end on four workloads, one process per run.
//
//   bench_pipeline --workload <fmm-kernel|fmm-dense|ulv-regression|serve>
//                  --seed S --seconds T [--trace 0|1] [--trace-out FILE]
//   bench_pipeline --warm-cache
//
// A run builds its inputs from the seed, warms up untimed, then measures
// for T seconds of wall clock. Every output is checked: ε₂ ceilings, solve
// and eigen-residuals, positive definiteness of every λ, bitwise agreement
// of concurrent queries with a solo reference, the served p99 latency
// limit, and the service invariants.
// Each check counts as one attempted operation and each miss as one
// failure. The last line of stdout is one JSON object with the raw
// end-to-end samples (bench/pipeline/run.py reduces them to medians), the
// check tally, and a fingerprint of deterministic outputs.
//
// The untimed warm-up wraps the entry oracle in a counting forwarder; timed
// work uses the bare oracle. With --trace 1 the run also records spans
// around every library call it makes, runs the per-layer probes, and
// reports the per-layer metrics; --trace-out writes the spans as Chrome
// trace-event JSON (open it in Perfetto). Spans are recorded here, around
// the public calls, not inside the library.
//
// --warm-cache fills the zoo disk cache ($GOFMM_CACHE_DIR) with the dense
// matrices the workloads load, so that no timed run pays to generate them.
//
// bench/pipeline/README.md documents the workloads and every metric.
#include <sys/resource.h>
#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "core/gofmm.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/id.hpp"
#include "la/lapack.hpp"
#include "la/ldlt.hpp"
#include "la/qr.hpp"
#include "matrices/kernels.hpp"
#include "matrices/pointcloud.hpp"
#include "matrices/zoo.hpp"
#include "service/solve_service.hpp"
#include "spectral/eigs.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace {

using namespace gofmm;
using Mat = la::Matrix<double>;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------ workloads --
// Sizes are chosen so that one run (set-up, warm-up and the measured
// window) stays near 25 s on a 4-core machine; README.md gives the reasons.

constexpr index_t kKernelN = 16384;  // fmm-kernel
constexpr index_t kDenseN = 8192;    // fmm-dense: K02 rounds it to 90², 8100
constexpr index_t kUlvN = 8192;      // ulv-regression
constexpr index_t kServeN = 4096;    // serve, per operator
constexpr index_t kFmmRhs = 64;      // right-hand sides of one fmm multiply
constexpr int kAppliesPerIteration = 3;
constexpr int kSetupRepeats = 3;  // set-ups per run (fmm-dense, serve)
constexpr int kCallers = 4;       // closed-loop query threads
constexpr int kRateWindows = 10;  // throughput samples per closed loop
constexpr double kLoopShare = 0.75;  // of the window; the rest is the closed loop
constexpr double kUlvLambda0 = 16;  // λ grid 16·2^i, i = 0..7
constexpr int kUlvGrid = 8;
constexpr double kResidualCeiling = 1e-8;
// ε₂ ceilings: the Gaussian and K02 compressions sit near 4e-4 and 1e-5
// (worst seen 5e-4 and 2.2e-4); the IMQ kernel saturates the rank cap of
// 128 and sits near 2e-2.
constexpr double kFmmEps2Ceiling = 1e-3;
constexpr double kImqEps2Ceiling = 1e-1;
// 60 req/s is about a sixth of the closed-loop capacity measured on 4 cores
// (about 370 req/s), so latency shows service time and batching, not a
// growing backlog. The latency limit applies to the open loop's tail: the
// highest percentile with at least ten samples beyond it (p98.3 for the
// ~580 requests of a 15 s window; p99 would rest on six).
constexpr double kServeRate = 60;           // open-loop requests per second
constexpr double kServeTailLimitMs = 500;
constexpr double kServeOpenShare = 0.65;    // of the window; rest is closed
constexpr int kServeOutstanding = 32;       // closed-loop requests in flight
constexpr std::array<double, 2> kServeLambdas = {10, 100};  // before, after the switch

// Every per-layer metric, in the order BENCHMARK.json lists them. A layer
// a workload does not exercise reports 0.
constexpr std::array<const char*, 60> kLayerNames = {
    "la.gemm_peak_gflops",     "la.gemm_leaf_gflops",
    "la.gemm_leaf_frac",       "la.id_gflops",
    "la.id_frac",              "la.geqrt_gflops",
    "la.geqrt_frac",           "la.ormqr_r1_gflops",
    "la.ormqr_r1_frac",        "la.sytrf_gflops",
    "la.sytrf_frac",           "la.potrf_gflops",
    "la.potrf_frac",           "la.larft_calls",
    "matrices.entries",        "matrices.oracle_s",
    "matrices.ns_per_entry",   "matrices.matvec_entries",
    "tree.ann_s",              "tree.ann_iterations",
    "tree.ann_recall",         "tree.build_s",
    "core.compress.lists_s",   "core.compress.skel_s",
    "core.compress.skel_gflops", "core.compress.cache_s",
    "core.compress.avg_rank",  "core.compress.near_fraction",
    "core.compress.eps2",      "core.compress.nlogn_slope",
    "core.evaluate.flops",
    "core.evaluate.gflops",    "core.evaluate.r1_s",
    "core.evaluate.parallel_eff", "core.evaluate.n_slope",
    "runtime.levels_over_heft", "runtime.omp_over_heft",
    "core.factorize.s",        "core.factorize.gflops",
    "core.factorize.parallel_eff", "core.factorize.memory_mb",
    "core.refactorize.s",      "core.solve.r1_s",
    "core.solve.r16_s",        "core.solve.batch_gain",
    "core.solve.r1_gbs",       "core.solve.max_residual",
    "spectral.lanczos_steps",  "spectral.retune_s",
    "spectral.lanczos_s",      "spectral.max_rel_residual",
    "service.queue_ms_p50",    "service.sweep_ms_p50",
    "service.avg_batch_cols",  "service.retunes",
    "service.builds",          "service.evictions",
    "service.rejected",        "service.refine_iterations",
    "service.gen_lag_ms_p99",
};

const Clock::time_point kEpoch = Clock::now();
double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

// Independent, reproducible stream seeds derived from the run's seed.
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t stream) {
  Prng rng(seed * 0x9E3779B97F4A7C15ull + stream);
  return rng();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Least-squares slope of log y against log x.
double loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  const double n = double(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

bool same_bits(const Mat& a, const Mat& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * std::size_t(a.size())) == 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

// OpenMP team size of the calling thread: the P of parallel_eff.
int omp_threads() {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// Sets the OpenMP team size of the calling thread for one scope: the
// single-threaded la probes and the one-thread baselines of parallel_eff.
class OmpThreads {
 public:
  explicit OmpThreads(int n) {
#ifdef _OPENMP
    prev_ = omp_get_max_threads();
    omp_set_num_threads(n);
#else
    (void)n;
#endif
  }
  ~OmpThreads() {
#ifdef _OPENMP
    omp_set_num_threads(prev_);
#endif
  }
  OmpThreads(const OmpThreads&) = delete;
  OmpThreads& operator=(const OmpThreads&) = delete;

 private:
  int prev_ = 1;
};

// A workload whose own inputs break a precondition (for example a λ that
// is not positive definite) — reported with the seed, not as a failure.
struct InvalidWorkload : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// ---------------------------------------------------------------- spans --

class Tracer {
 public:
  struct Span {
    std::string name;
    double t0 = 0, t1 = 0;
    int parent = -1;
    std::int64_t request = -1;
    int thread = 0;
  };

  bool on = false;

  int open(const char* name, std::int64_t request) {
    std::vector<int>& stack = thread_stack();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, now_s(), 0.0, stack.empty() ? -1 : stack.back(),
                      request, thread_id()});
    stack.push_back(int(spans_.size()) - 1);
    return stack.back();
  }
  void close(int id) {
    const double t = now_s();
    thread_stack().pop_back();
    std::lock_guard<std::mutex> lk(mu_);
    spans_[std::size_t(id)].t1 = t;
  }
  // A span timed by the caller, such as a service request from its due
  // time to the moment its future resolved.
  void record(const char* name, double t0, double t1, std::int64_t request) {
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, t0, t1, -1, request, thread_id()});
  }

  void write_chrome(const std::string& path) const;

  // Per span name: count, total seconds, and self seconds (total minus
  // the time its child spans cover).
  struct Summary {
    std::uint64_t count = 0;
    double total_s = 0, self_s = 0;
  };
  std::map<std::string, Summary> summary() const {
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0) child[std::size_t(s.parent)] += s.t1 - s.t0;
    std::map<std::string, Summary> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      Summary& e = out[spans_[i].name];
      e.count += 1;
      e.total_s += spans_[i].t1 - spans_[i].t0;
      e.self_s += spans_[i].t1 - spans_[i].t0 - child[i];
    }
    return out;
  }

 private:
  static std::vector<int>& thread_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }
  static int thread_id() {
    static std::atomic<int> next{0};
    thread_local const int id = next.fetch_add(1);
    return id;
  }

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

Tracer g_tracer;

// Records one span for its scope when tracing is on; a no-op otherwise.
class SpanScope {
 public:
  explicit SpanScope(const char* name, std::int64_t request = -1)
      : id_(g_tracer.on ? g_tracer.open(name, request) : -1) {}
  ~SpanScope() {
    if (id_ >= 0) g_tracer.close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  int id_;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::lock_guard<std::mutex> lk(mu_);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"name\": " << json_string(s.name)
        << ", \"cat\": \"pipeline\", \"ph\": \"X\", \"pid\": 1, \"tid\": "
        << s.thread << ", \"ts\": " << json_number(s.t0 * 1e6)
        << ", \"dur\": " << json_number((s.t1 - s.t0) * 1e6)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << "}}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

// ------------------------------------------------------- counting oracle --

// Forwards every oracle call, points() included, and counts the entries
// served. Block calls (submatrix) are also timed; single entry() calls —
// the tree's distance queries — are counted only, because two clock reads
// cost more than one kernel entry. Counters are sharded per thread so that
// the compression's parallel tasks do not contend on one line. Only the
// untimed warm-up goes through this wrapper.
class CountingSPD final : public SPDMatrix<double> {
 public:
  explicit CountingSPD(std::shared_ptr<const SPDMatrix<double>> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] index_t size() const override { return inner_->size(); }
  [[nodiscard]] double entry(index_t i, index_t j) const override {
    shard().entries.fetch_add(1, std::memory_order_relaxed);
    return inner_->entry(i, j);
  }
  [[nodiscard]] Mat submatrix(std::span<const index_t> I,
                              std::span<const index_t> J) const override {
    const auto t0 = Clock::now();
    Mat out = inner_->submatrix(I, J);
    const auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    const std::uint64_t n = std::uint64_t(I.size()) * std::uint64_t(J.size());
    Shard& s = shard();
    s.entries.fetch_add(n, std::memory_order_relaxed);
    s.block_entries.fetch_add(n, std::memory_order_relaxed);
    s.block_ns.fetch_add(std::uint64_t(ns), std::memory_order_relaxed);
    return out;
  }
  [[nodiscard]] const Mat* points() const override { return inner_->points(); }

  [[nodiscard]] std::uint64_t entries() const { return total(&Shard::entries); }
  [[nodiscard]] std::uint64_t block_entries() const {
    return total(&Shard::block_entries);
  }
  [[nodiscard]] double block_seconds() const {
    return double(total(&Shard::block_ns)) * 1e-9;
  }
  void reset() {
    for (Shard& s : shards_) {
      s.entries.store(0, std::memory_order_relaxed);
      s.block_entries.store(0, std::memory_order_relaxed);
      s.block_ns.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> entries{0};
    std::atomic<std::uint64_t> block_entries{0};
    std::atomic<std::uint64_t> block_ns{0};
  };
  static constexpr std::size_t kShards = 16;

  Shard& shard() const {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t slot = next.fetch_add(1) % kShards;
    return shards_[slot];
  }
  std::uint64_t total(std::atomic<std::uint64_t> Shard::*field) const {
    std::uint64_t n = 0;
    for (const Shard& s : shards_) n += (s.*field).load(std::memory_order_relaxed);
    return n;
  }

  std::shared_ptr<const SPDMatrix<double>> inner_;
  mutable std::array<Shard, kShards> shards_;
};

// --------------------------------------------------------------- report --

// Outputs that must repeat bit for bit: between the counted warm-up and
// the first timed iteration of the same input, and between the untraced
// and the traced run of one seed.
struct Fingerprint {
  double eps2 = 0;
  std::uint64_t memory_bytes = 0;
  std::uint64_t eval_flops = 0;
  std::uint64_t entries = 0;
};

struct Report {
  std::map<std::string, std::vector<double>> samples;  // end-to-end
  std::map<std::string, std::vector<double>> layers;   // median reported
  Fingerprint fingerprint;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  std::mutex mu;

  bool check(bool ok, const std::string& what) {
    std::lock_guard<std::mutex> lk(mu);
    attempted += 1;
    if (!ok) {
      failed += 1;
      if (failures.size() < 20) failures.push_back(what);
    }
    return ok;
  }
  void sample(const std::string& metric, double v) {
    std::lock_guard<std::mutex> lk(mu);
    samples[metric].push_back(v);
  }
  void layer(const std::string& metric, double v) {
    std::lock_guard<std::mutex> lk(mu);
    layers[metric].push_back(v);
  }
  // Keeps one sample, the largest seen: the max_* layers.
  void layer_max(const std::string& metric, double v) {
    std::lock_guard<std::mutex> lk(mu);
    std::vector<double>& s = layers[metric];
    if (s.empty()) s.push_back(v);
    s[0] = std::max(s[0], v);
  }
  double layer_median(const std::string& metric) {
    std::lock_guard<std::mutex> lk(mu);
    return median(layers[metric]);
  }
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
  bool warm_cache = false;
};

// ------------------------------------------------------------- helpers --

std::shared_ptr<const SPDMatrix<double>> kernel_cloud(index_t n,
                                                      zoo::KernelKind kind,
                                                      double bandwidth,
                                                      std::uint64_t seed) {
  zoo::KernelParams p;
  p.kind = kind;
  p.bandwidth = bandwidth;
  return std::make_shared<zoo::KernelSPD<double>>(
      zoo::uniform_cloud<double>(6, n, seed), p);
}

Config base_config(double budget, double tolerance, std::uint64_t seed) {
  return Config::defaults()
      .with_leaf_size(128)
      .with_max_rank(128)
      .with_kappa(32)
      .with_tolerance(tolerance)
      .with_budget(budget)
      .with_seed(seed);
}

// Max over columns of ‖(K̃+λI)x_j − b_j‖ / ‖b_j‖.
double relative_residual(const CompressedOperator<double>& op, double lambda,
                         const Mat& x, const Mat& b, EvalWorkspace<double>& ws) {
  Mat ax;
  {
    SpanScope span("core.evaluate");
    ax = op.apply(x, ws);
  }
  double worst = 0;
  for (index_t j = 0; j < x.cols(); ++j) {
    double num = 0, den = 0;
    for (index_t i = 0; i < x.rows(); ++i) {
      const double d = ax(i, j) + lambda * x(i, j) - b(i, j);
      num += d * d;
      den += b(i, j) * b(i, j);
    }
    worst = std::max(worst, std::sqrt(num / std::max(den, 1e-300)));
  }
  return worst;
}

// ε₂ must stay under the workload's ceiling; its value is a per-layer
// metric, not an end-to-end one, because it moves 15-95% between seeds.
void check_eps2(Report& rep, double eps2, double ceiling) {
  rep.layer("core.compress.eps2", eps2);
  rep.check(std::isfinite(eps2) && eps2 <= ceiling,
            "eps2 " + json_number(eps2) + " above the ceiling " + json_number(ceiling));
}

// Compression-phase layers of one timed compress, made on the bare oracle
// (traced runs only).
void record_compress_layers(Report& rep, const CompressedMatrix<double>& kc) {
  const CompressionStats& st = kc.stats();
  rep.layer("tree.ann_s", st.ann_seconds);
  rep.layer("tree.ann_iterations", double(st.ann_iterations));
  rep.layer("tree.ann_recall", st.ann_recall);
  rep.layer("tree.build_s", st.tree_seconds);
  rep.layer("core.compress.lists_s", st.lists_seconds);
  rep.layer("core.compress.skel_s", st.skel_seconds);
  rep.layer("core.compress.skel_gflops",
            double(st.skel_flops) * 1e-9 / std::max(st.skel_seconds, 1e-12));
  rep.layer("core.compress.cache_s", st.cache_seconds);
  rep.layer("core.compress.avg_rank", st.avg_rank);
  rep.layer("core.compress.near_fraction", st.near_fraction);
}

// Oracle layers of the counted warm-up compress (traced runs only).
void record_oracle_layers(Report& rep, const CountingSPD& counter) {
  rep.layer("matrices.entries", double(counter.entries()));
  rep.layer("matrices.oracle_s", counter.block_seconds());
  rep.layer("matrices.ns_per_entry",
            counter.block_seconds() * 1e9 /
                std::max(double(counter.block_entries()), 1.0));
}

// Splits [t0, t0 + seconds) into kRateWindows equal windows and records
// one throughput sample per window: completions after the window's first,
// over the time from its first completion to its last. Timing from
// completions, not from the window edges, keeps the rate unquantized.
void record_rate(Report& rep, std::vector<double> completions, double t0,
                 double seconds) {
  std::sort(completions.begin(), completions.end());
  const double width = seconds / kRateWindows;
  std::vector<std::vector<double>> windows(kRateWindows);
  for (double t : completions) {
    const int w = int((t - t0) / width);
    if (w >= 0 && w < kRateWindows) windows[std::size_t(w)].push_back(t);
  }
  for (const std::vector<double>& w : windows) {
    if (w.size() < 2 || w.back() <= w.front()) {
      rep.check(false, "a throughput window completed fewer than two requests");
      continue;
    }
    rep.sample("throughput_per_s", double(w.size() - 1) / (w.back() - w.front()));
  }
}

// Closed-loop capacity: kCallers threads issue r=1 queries back to back
// for `seconds`. Every answer must equal, bit for bit, the answer to the
// same right-hand side computed alone before the loop — the library's
// contract for concurrent const calls.
void closed_loop_rate(Report& rep, double seconds, index_t n,
                      std::uint64_t seed, const char* span_name,
                      const std::function<Mat(const Mat&)>& query) {
  std::vector<Mat> rhs, ref;
  for (int t = 0; t < kCallers; ++t) {
    rhs.push_back(Mat::random_normal(n, 1, sub_seed(seed, 3000 + t)));
    ref.push_back(query(rhs.back()));
  }
  std::vector<std::vector<double>> done(kCallers);
  const double t0 = now_s(), end = t0 + seconds;
  {
    std::vector<std::jthread> callers;
    for (int t = 0; t < kCallers; ++t)
      callers.emplace_back([&, t] {
        try {
          while (now_s() < end) {
            Mat x;
            {
              SpanScope span(span_name);
              x = query(rhs[std::size_t(t)]);
            }
            done[std::size_t(t)].push_back(now_s());
            rep.check(same_bits(x, ref[std::size_t(t)]),
                      "concurrent query differs from its solo answer");
          }
        } catch (const std::exception& e) {
          rep.check(false, std::string("closed loop: ") + e.what());
        }
      });
  }
  std::vector<double> completions;
  for (const auto& d : done) completions.insert(completions.end(), d.begin(), d.end());
  record_rate(rep, completions, t0, seconds);
}

// ------------------------------------------------------------- la probes --

// Median seconds of one call to `kernel(input)` over ~60 ms of calls, with
// a fresh `prepare()` input per call made outside the timed region.
template <typename Prepare, typename Kernel>
double seconds_per_call(Prepare prepare, Kernel kernel) {
  auto warm = prepare();
  kernel(warm);
  std::vector<double> times;
  const double stop = now_s() + 0.06;
  while (now_s() < stop || times.size() < 5) {
    auto in = prepare();
    Timer t;
    kernel(in);
    times.push_back(t.seconds());
  }
  return median(times);
}

// Single-threaded rates of the la kernels at the shapes the workloads run.
void run_la_probes(Report& rep) {
  SpanScope span("la.probes");
  OmpThreads one(1);
  auto gflops = [](std::uint64_t flops, double s) { return double(flops) * 1e-9 / s; };
  using la::Op;

  const Mat a512 = Mat::random_normal(512, 512, 1), b512 = Mat::random_normal(512, 512, 2);
  Mat c512(512, 512);
  const double peak = gflops(
      la::FlopCounter::gemm_flops(512, 512, 512),
      seconds_per_call([] { return 0; }, [&](int) {
        la::gemm(Op::None, Op::None, 1.0, a512, b512, 0.0, c512);
      }));

  const Mat a128 = Mat::random_normal(128, 128, 3), b64 = Mat::random_normal(128, 64, 4);
  Mat c64(128, 64);
  const double leaf = gflops(
      la::FlopCounter::gemm_flops(128, 64, 128),
      seconds_per_call([] { return 0; }, [&](int) {
        la::gemm(Op::None, Op::None, 1.0, a128, b64, 0.0, c64);
      }));

  // An ID of the shape an internal node skeletonizes: 2·256 + 32 sampled
  // rows of a Gaussian kernel against the 256 children's skeleton columns.
  const auto k = kernel_cloud(800, zoo::KernelKind::Gaussian, 1.0, 5);
  std::vector<index_t> rows(544), cols(256);
  for (index_t i = 0; i < 544; ++i) rows[std::size_t(i)] = i;
  for (index_t j = 0; j < 256; ++j) cols[std::size_t(j)] = 544 + j;
  const Mat block = k->submatrix(rows, cols);
  const index_t rank = la::interp_decomp(block, 1e-5, index_t(128)).rank;
  const double id = gflops(
      la::FlopCounter::qr_flops(544, 256, rank) + la::FlopCounter::trsm_flops(rank, 256),
      seconds_per_call([] { return 0; },
                       [&](int) { (void)la::interp_decomp(block, 1e-5, index_t(128)); }));

  const Mat q = Mat::random_normal(256, 128, 6);
  const double geqrt = gflops(
      la::geqrt_flops(256, 128),
      seconds_per_call([&] { return q; },
                       [](Mat& m) { (void)la::qr_factorize(std::move(m)); }));

  const la::QrFactors<double> qf = la::qr_factorize(Mat(q));
  const Mat r1 = Mat::random_normal(256, 1, 7);
  const double ormqr = gflops(
      la::ormqr_flops(256, 128, 1),
      seconds_per_call([&] { return r1; },
                       [&](Mat& c) { la::ormqr_left(Op::Trans, qf, c); }));

  Mat spd = Mat::random_normal(256, 256, 8);
  Mat sym(256, 256);
  la::gemm(Op::None, Op::Trans, 1.0, spd, spd, 0.0, sym);
  for (index_t i = 0; i < 256; ++i) sym(i, i) += 256.0;
  const std::uint64_t chol_flops = 256ull * 256ull * 256ull / 3;
  const double sytrf = gflops(
      chol_flops, seconds_per_call([&] { return sym; }, [](Mat& m) {
        std::vector<index_t> ipiv;
        (void)la::sytrf_lower(m, ipiv);
      }));
  const double potrf = gflops(
      chol_flops,
      seconds_per_call([&] { return sym; }, [](Mat& m) { (void)la::potrf_lower(m); }));

  rep.layer("la.gemm_peak_gflops", peak);
  const std::pair<const char*, double> rates[] = {
      {"la.gemm_leaf", leaf}, {"la.id", id},       {"la.geqrt", geqrt},
      {"la.ormqr_r1", ormqr}, {"la.sytrf", sytrf}, {"la.potrf", potrf}};
  for (const auto& [name, rate] : rates) {
    rep.layer(std::string(name) + "_gflops", rate);
    rep.layer(std::string(name) + "_frac", rate / peak);
  }
}

// ---------------------------------------------------------- fmm-kernel/dense

struct FmmInput {
  std::shared_ptr<const SPDMatrix<double>> k;
  Config config;
  Mat w;
};

struct FmmIteration {
  std::unique_ptr<CompressedMatrix<double>> kc;
  Fingerprint fp;
  double compress_s = 0;
  std::vector<double> apply_s;
};

// One compress, kAppliesPerIteration r=64 multiplies and the sampled ε₂.
// `counted` (the untimed warm-up) routes the oracle through CountingSPD;
// timed iterations use the bare oracle.
FmmIteration fmm_iteration(Report& rep, const FmmInput& in, bool counted) {
  auto counter = counted ? std::make_shared<CountingSPD>(in.k) : nullptr;
  FmmIteration it;
  Timer t;
  {
    SpanScope span("core.compress");
    it.kc = CompressedMatrix<double>::compress_unique(
        counter ? counter : in.k, in.config);
  }
  it.compress_s = t.seconds();
  if (counter) {
    it.fp.entries = counter->entries();
    if (g_tracer.on) record_oracle_layers(rep, *counter);
    counter->reset();
  } else if (g_tracer.on) {
    record_compress_layers(rep, *it.kc);
  }
  EvalWorkspace<double> ws;
  Mat u;
  for (int a = 0; a < kAppliesPerIteration; ++a) {
    SpanScope span("core.evaluate");
    Timer ta;
    u = it.kc->apply(in.w, ws);
    it.apply_s.push_back(ta.seconds());
  }
  it.fp.eval_flops = ws.last.flops;
  if (g_tracer.on && counter) {
    rep.layer("matrices.matvec_entries",
              double(counter->entries()) / kAppliesPerIteration);
  } else if (g_tracer.on) {
    rep.layer("core.evaluate.flops", double(ws.last.flops));
    rep.layer("core.evaluate.gflops",
              double(ws.last.flops) * 1e-9 / median(it.apply_s));
  }
  {
    SpanScope span("core.estimate_error");
    it.fp.eps2 = it.kc->estimate_error(in.w, u, 100, in.config.seed);
  }
  it.fp.memory_bytes = it.kc->memory_bytes();
  check_eps2(rep, it.fp.eps2, kFmmEps2Ceiling);
  return it;
}

bool same_fingerprint(const Fingerprint& a, const Fingerprint& b) {
  return a.eps2 == b.eps2 && a.memory_bytes == b.memory_bytes &&
         a.eval_flops == b.eval_flops;
}

// Median seconds of three r=64 multiplies (traced-run probes).
double apply_median(const CompressedMatrix<double>& kc, const Mat& w) {
  EvalWorkspace<double> ws;
  std::vector<double> s;
  for (int a = 0; a < 3; ++a) {
    SpanScope span("core.evaluate");
    Timer t;
    (void)kc.apply(w, ws);
    s.push_back(t.seconds());
  }
  return median(s);
}

void run_fmm(Report& rep, const Args& args, bool dense) {
  // fmm-dense loads one stored matrix, kSetupRepeats times; fmm-kernel
  // builds a fresh seeded cloud per iteration, and that is its set-up.
  std::shared_ptr<const SPDMatrix<double>> stored;
  for (int s = 0; dense && s < kSetupRepeats; ++s) {
    stored.reset();  // one copy resident at a time
    SpanScope span("pipeline.setup");
    Timer t;
    stored = std::shared_ptr<const SPDMatrix<double>>(
        zoo::make_matrix<double>("K02", kDenseN));
    rep.sample("setup_s", t.seconds());
  }
  const index_t n = dense ? stored->size() : kKernelN;
  auto make_input = [&](std::uint64_t i) {
    SpanScope span("pipeline.setup");
    Timer t;
    FmmInput in;
    in.k = dense ? stored
                 : kernel_cloud(n, zoo::KernelKind::Gaussian, 1.0,
                                sub_seed(args.seed, i));
    in.config = base_config(0.03, 1e-5, sub_seed(args.seed, 1000 + i));
    in.w = Mat::random_normal(n, kFmmRhs, sub_seed(args.seed, 2000 + i));
    if (!dense) rep.sample("setup_s", t.seconds());
    return in;
  };

  const FmmInput first = make_input(0);
  rep.fingerprint = fmm_iteration(rep, first, true).fp;  // warm-up

  const double start = now_s();
  std::unique_ptr<CompressedMatrix<double>> last;
  FmmInput last_in;
  for (std::uint64_t i = 0; i == 0 || now_s() < start + kLoopShare * args.seconds; ++i) {
    last.reset();
    FmmInput in = i == 0 ? first : make_input(i);
    FmmIteration it = fmm_iteration(rep, in, false);
    if (i == 0)
      rep.check(same_fingerprint(it.fp, rep.fingerprint),
                "counting oracle changed the compression's output");
    rep.sample("build_s", it.compress_s);
    for (double s : it.apply_s) rep.sample("op_ms", 1e3 * s);
    rep.sample("memory_mb", double(it.fp.memory_bytes) * 1e-6);
    last = std::move(it.kc);
    last_in = std::move(in);
  }
  closed_loop_rate(rep, std::max((1 - kLoopShare) * args.seconds, start + args.seconds - now_s()),
                   n, args.seed, "core.evaluate",
                   [&](const Mat& b) { return last->evaluate(b); });
  if (!args.trace) return;

  // ---- per-layer probes on the last input ----
  {
    const Mat b = Mat::random_normal(n, 1, sub_seed(args.seed, 4000));
    EvalWorkspace<double> ws;
    for (int a = 0; a < 5; ++a) {
      SpanScope span("core.evaluate");
      Timer t;
      (void)last->apply(b, ws);
      rep.layer("core.evaluate.r1_s", t.seconds());
    }
  }
  const double heft = apply_median(*last, last_in.w);
  last.reset();
  std::unique_ptr<CompressedMatrix<double>> levels, omp;
  {
    SpanScope span("core.compress");
    levels = CompressedMatrix<double>::compress_unique(
        last_in.k, Config(last_in.config).with_engine(rt::Engine::LevelByLevel));
  }
  const double levels_s = apply_median(*levels, last_in.w);
  rep.layer("runtime.levels_over_heft", levels_s / heft);
  {
    // The level engine runs its OpenMP loops on this thread, so its team
    // size, nested GEMMs included, is set here: the one-thread baseline.
    const int p = omp_threads();
    OmpThreads one(1);
    rep.layer("core.evaluate.parallel_eff",
              apply_median(*levels, last_in.w) / (p * levels_s));
  }
  levels.reset();
  {
    SpanScope span("core.compress");
    omp = CompressedMatrix<double>::compress_unique(
        last_in.k, Config(last_in.config).with_engine(rt::Engine::OmpTask));
  }
  rep.layer("runtime.omp_over_heft", apply_median(*omp, last_in.w) / heft);
  omp.reset();

  if (dense) return;
  // Scaling: compress and multiply seconds at N/4, N/2 and N, each point
  // made the same way (a fresh cloud, the median of three compresses on
  // the bare oracle), fitted against N·log N and N.
  std::vector<double> ns, nlogn, cs, as;
  for (index_t m : {kKernelN / 4, kKernelN / 2, kKernelN}) {
    const auto k = kernel_cloud(m, zoo::KernelKind::Gaussian, 1.0,
                                sub_seed(args.seed, 5000 + std::uint64_t(m)));
    const Config config = base_config(0.03, 1e-5, sub_seed(args.seed, 6000 + std::uint64_t(m)));
    std::vector<double> times;
    std::unique_ptr<CompressedMatrix<double>> kc;
    for (int c = 0; c < 3; ++c) {
      kc.reset();
      SpanScope span("core.compress");
      Timer t;
      kc = CompressedMatrix<double>::compress_unique(k, config);
      times.push_back(t.seconds());
    }
    cs.push_back(median(times));
    as.push_back(apply_median(
        *kc, Mat::random_normal(m, kFmmRhs, sub_seed(args.seed, 7000 + std::uint64_t(m)))));
    ns.push_back(double(m));
  }
  for (double v : ns) nlogn.push_back(v * std::log2(v));
  rep.layer("core.compress.nlogn_slope", loglog_slope(nlogn, cs));
  rep.layer("core.evaluate.n_slope", loglog_slope(ns, as));
}

// --------------------------------------------------------- ulv-regression

struct UlvInput {
  std::shared_ptr<const SPDMatrix<double>> k;
  Config config;
  Mat y;  // regression targets
  Mat w;  // random block for ε₂
};

struct UlvRound {
  std::unique_ptr<CompressedMatrix<double>> kc;
  Fingerprint fp;
  double answer_s = 0;
  std::vector<double> step_s;
};

// The regression answer — compress, factorize at λ0, solve y, and the ten
// eigenpairs of K̃ nearest 0 by shift-invert — then λ steps (refactorize,
// logdet, solve y) over the whole grid in the warm-up, and over every other
// grid point in a timed round (`parity` picks which half), so that a window
// holds more rounds. Every solve and eigensolve is checked. The warm-up
// routes the oracle through CountingSPD; timed rounds use the bare oracle.
UlvRound ulv_round(Report& rep, const UlvInput& in, bool warm_up, int parity) {
  auto counter = warm_up ? std::make_shared<CountingSPD>(in.k) : nullptr;
  const bool timed_layers = g_tracer.on && !warm_up;
  UlvRound r;
  EvalWorkspace<double> ws;
  // Each round's cloud comes from the seed, so a λ that is not positive
  // definite on it makes the seed's inputs invalid, in any round.
  auto require_pd = [&](double lambda) {
    const std::string what = "lambda " + json_number(lambda) +
                             " is not positive definite for this seed's cloud";
    if (!rep.check(r.kc->factorization_stats().positive_definite, what))
      throw InvalidWorkload(what);
  };
  auto check_solve = [&](double lambda, const Mat& x) {
    const std::uint64_t entries0 = counter ? counter->entries() : 0;
    Timer t;
    const double res = relative_residual(*r.kc, lambda, x, in.y, ws);
    rep.check(res <= kResidualCeiling, "residual " + json_number(res) + " above 1e-8");
    if (timed_layers) {
      rep.layer("core.evaluate.r1_s", t.seconds());
      rep.layer_max("core.solve.max_residual", res);
    } else if (g_tracer.on && counter) {
      rep.layer("matrices.matvec_entries", double(counter->entries() - entries0));
    }
  };

  Timer t;
  {
    SpanScope span("core.compress");
    r.kc = CompressedMatrix<double>::compress_unique(counter ? counter : in.k,
                                                     in.config);
  }
  if (counter) {
    r.fp.entries = counter->entries();
    if (g_tracer.on) record_oracle_layers(rep, *counter);
  }
  {
    SpanScope span("core.factorize");
    r.kc->factorize(kUlvLambda0);
  }
  Mat x;
  {
    SpanScope span("core.solve");
    x = r.kc->solve(in.y);
  }
  const FactorizationStats fs = r.kc->factorization_stats();
  require_pd(kUlvLambda0);
  Timer te;
  {
    SpanScope span("core.refactorize");
    r.kc->refactorize(0.0);
  }
  const double eig_retune_s = te.seconds();
  te.reset();
  spectral::EigsResult<double> eig;
  {
    SpanScope span("spectral.eigs");
    eig = spectral::eigs_at<double>(
        *r.kc, spectral::EigsOptions::defaults().with_k(10).with_sigma(0.0));
  }
  r.answer_s = t.seconds();
  const double lanczos_s = te.seconds();

  check_solve(kUlvLambda0, x);
  // ‖K̃‖₂ ≥ ‖K̃·1‖/‖1‖, so dividing by this bound over-states the relative
  // eigen-residual, never under-states it.
  Mat ones(kUlvN, 1);
  for (index_t i = 0; i < kUlvN; ++i) ones(i, 0) = 1.0;
  const double norm_bound = la::norm_fro(r.kc->apply(ones, ws)) / std::sqrt(double(kUlvN));
  double worst = 0;
  for (double res : eig.residuals) worst = std::max(worst, res / norm_bound);
  rep.check(eig.converged && eig.residuals.size() == 10 && worst <= kResidualCeiling,
            "eigs did not converge to relative residual 1e-8");

  Mat u;
  {
    SpanScope span("core.evaluate");
    u = r.kc->apply(in.w, ws);
  }
  r.fp.eval_flops = ws.last.flops;
  r.fp.eps2 = r.kc->estimate_error(in.w, u, 100, in.config.seed);
  check_eps2(rep, r.fp.eps2, kImqEps2Ceiling);
  r.fp.memory_bytes = r.kc->memory_bytes();
  if (timed_layers) {
    record_compress_layers(rep, *r.kc);
    rep.layer("core.evaluate.flops", double(ws.last.flops));
    rep.layer("core.evaluate.gflops", ws.last.gflops());
    rep.layer("core.factorize.s", fs.seconds);
    rep.layer("core.factorize.gflops", double(fs.flops) * 1e-9 / fs.seconds);
    rep.layer("core.factorize.memory_mb", double(fs.memory_bytes) * 1e-6);
    rep.layer("spectral.retune_s", eig_retune_s);
    rep.layer("spectral.lanczos_s", lanczos_s);
    rep.layer("spectral.lanczos_steps", double(eig.iterations));
    rep.layer_max("spectral.max_rel_residual", worst);
  }

  la::larft_calls_reset();
  for (int g = warm_up ? 0 : parity; g < kUlvGrid; g += warm_up ? 1 : 2) {
    const double lambda = kUlvLambda0 * std::ldexp(1.0, g);
    Timer ts;
    {
      SpanScope span("core.refactorize");
      r.kc->refactorize(lambda);
    }
    const double retune_s = ts.seconds();
    require_pd(lambda);
    double logdet = 0;
    {
      SpanScope span("core.logdet");
      logdet = r.kc->logdet();
    }
    Timer tsol;
    {
      SpanScope span("core.solve");
      x = r.kc->solve(in.y);
    }
    r.step_s.push_back(ts.seconds());
    if (timed_layers) {
      rep.layer("core.refactorize.s", retune_s);
      rep.layer("core.solve.r1_s", tsol.seconds());
    }
    rep.check(std::isfinite(logdet), "logdet not finite");
    check_solve(lambda, x);
  }
  if (timed_layers) rep.layer("la.larft_calls", double(la::larft_calls()));
  return r;
}

void run_ulv(Report& rep, const Args& args) {
  auto make_input = [&](std::uint64_t i) {
    SpanScope span("pipeline.setup");
    Timer t;
    UlvInput in;
    in.k = kernel_cloud(kUlvN, zoo::KernelKind::InverseMultiquadric, 0.5,
                        sub_seed(args.seed, i));
    in.config = base_config(0.0, 1e-7, sub_seed(args.seed, 1000 + i));
    // Targets of a planted model: a kernel expansion over 256 random
    // centres plus 1% noise, y = K(:, C) c + 0.01 e.
    Prng rng(sub_seed(args.seed, 2500 + i));
    std::vector<index_t> rows(static_cast<std::size_t>(kUlvN)), centres(256);
    std::iota(rows.begin(), rows.end(), index_t(0));
    for (index_t& c : centres) c = rng.below(kUlvN);
    in.y = Mat::random_normal(kUlvN, 1, sub_seed(args.seed, 2000 + i));
    la::gemm(la::Op::None, la::Op::None, 1.0, in.k->submatrix(rows, centres),
             Mat::random_normal(256, 1, rng()), 0.01, in.y);
    in.w = Mat::random_normal(kUlvN, 4, sub_seed(args.seed, 2600 + i));
    rep.sample("setup_s", t.seconds());
    return in;
  };

  const UlvInput first = make_input(0);
  rep.fingerprint = ulv_round(rep, first, true, 0).fp;  // warm-up

  const double start = now_s();
  std::unique_ptr<CompressedMatrix<double>> last;
  for (std::uint64_t i = 0; i == 0 || now_s() < start + kLoopShare * args.seconds; ++i) {
    last.reset();
    UlvRound r = ulv_round(rep, i == 0 ? first : make_input(i), false, int(i % 2));
    if (i == 0)
      rep.check(same_fingerprint(r.fp, rep.fingerprint),
                "counting oracle changed the regression's output");
    rep.sample("build_s", r.answer_s);
    for (double s : r.step_s) rep.sample("op_ms", 1e3 * s);
    rep.sample("memory_mb", double(r.fp.memory_bytes) * 1e-6);
    last = std::move(r.kc);
  }
  const std::uint64_t larft_before = la::larft_calls();
  closed_loop_rate(rep, std::max((1 - kLoopShare) * args.seconds, start + args.seconds - now_s()),
                   kUlvN, args.seed, "core.solve",
                   [&](const Mat& b) { return last->solve(b); });
  if (!args.trace) return;
  rep.layer("la.larft_calls", double(la::larft_calls() - larft_before));

  // ---- per-layer probes on the last operator ----
  const double r1 = rep.layer_median("core.solve.r1_s");
  const Mat b16 = Mat::random_normal(kUlvN, 16, sub_seed(args.seed, 4000));
  std::vector<double> r16;
  for (int a = 0; a < 5; ++a) {
    SpanScope span("core.solve");
    Timer t;
    (void)last->solve(b16);
    r16.push_back(t.seconds());
  }
  rep.layer("core.solve.r16_s", median(r16));
  rep.layer("core.solve.batch_gain", 16.0 * r1 / median(r16));
  rep.layer("core.solve.r1_gbs",
            double(last->factorization_stats().memory_bytes) * 1e-9 / r1);
  const int p = omp_threads();
  OmpThreads one(1);
  SpanScope span("core.factorize");
  Timer t;
  last->factorize(kUlvLambda0);
  rep.layer("core.factorize.parallel_eff",
            t.seconds() / (p * rep.layer_median("core.factorize.s")));
}

// ----------------------------------------------------------------- serve

const std::array<const char*, 4> kServeOperators = {"gauss", "imq", "K02",
                                                    "gauss-f32"};

void run_serve(Report& rep, const Args& args) {
  using Service = service::SolveService<double>;

  // One thread per sweep. The level engine runs it on the calling worker;
  // the HEFT engine would start a one-worker rt::Scheduler per call, and
  // that scheduler can lose its only wake-up and hang: its dispatch bumps
  // the queued count and notifies without holding the workers' mutex.
  auto spec_of = [&](std::size_t j, double lambda) {
    service::OperatorSpec spec;
    spec.dataset = kServeOperators[j];
    spec.config = base_config(0.0, 1e-5, sub_seed(args.seed, 20 + j))
                      .with_num_workers(1)
                      .with_engine(rt::Engine::LevelByLevel);
    spec.lambda = lambda;
    if (spec.dataset == "gauss-f32")
      spec.factorize = FactorizeOptions::defaults().with_precision(Precision::MixedF32);
    return spec;
  };
  auto oracle_of = [&](std::size_t j) -> std::shared_ptr<const SPDMatrix<double>> {
    const std::string name = kServeOperators[j];
    if (name == "K02")
      return std::shared_ptr<const SPDMatrix<double>>(
          zoo::make_matrix<double>("K02", kServeN));
    if (name == "imq")
      return kernel_cloud(kServeN, zoo::KernelKind::InverseMultiquadric, 0.5,
                          sub_seed(args.seed, 10 + j));
    return kernel_cloud(kServeN, zoo::KernelKind::Gaussian, 1.0,
                        sub_seed(args.seed, 10 + j));
  };
  auto index_of = [](const std::string& dataset) {
    for (std::size_t j = 0; j < kServeOperators.size(); ++j)
      if (dataset == kServeOperators[j]) return j;
    throw std::invalid_argument("unknown dataset " + dataset);
  };

  // Warm-up, untimed: the four operators built directly through counted
  // oracles — the fingerprint, ε₂, and the check that every operator is
  // positive definite at the first λ.
  {
    std::array<Fingerprint, 4> fps;
    std::array<std::string, 4> invalid;
    std::vector<std::jthread> builders;
    for (std::size_t j = 0; j < 4; ++j)
      builders.emplace_back([&, j] {
        try {
          const service::OperatorSpec spec = spec_of(j, kServeLambdas[0]);
          auto counter = std::make_shared<CountingSPD>(oracle_of(j));
          std::unique_ptr<CompressedMatrix<double>> kc;
          {
            SpanScope span("core.compress");
            kc = CompressedMatrix<double>::compress_unique(counter, spec.config);
          }
          fps[j].entries = counter->entries();
          if (g_tracer.on) record_oracle_layers(rep, *counter);
          fps[j].memory_bytes = kc->memory_bytes();
          {
            SpanScope span("core.factorize");
            kc->factorize(spec.lambda, spec.factorize);
          }
          fps[j].memory_bytes += kc->factorization_stats().memory_bytes;
          if (!kc->factorization_stats().positive_definite)
            invalid[j] = std::string(kServeOperators[j]) + " is not positive definite at lambda " +
                         json_number(spec.lambda);
          const Mat w = Mat::random_normal(kServeN, 4, sub_seed(args.seed, 30 + j));
          EvalWorkspace<double> ws;
          Mat u;
          {
            SpanScope span("core.evaluate");
            u = kc->apply(w, ws);
          }
          fps[j].eval_flops = ws.last.flops;
          fps[j].eps2 = sampled_relative_error(*counter, w, u, 100, spec.config.seed);
        } catch (const std::exception& e) {
          invalid[j] = e.what();
        }
      });
    builders.clear();  // joins
    double log_eps2 = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      if (!invalid[j].empty()) throw InvalidWorkload(invalid[j]);
      check_eps2(rep, fps[j].eps2,
                 kServeOperators[j] == std::string("imq") ? kImqEps2Ceiling : kFmmEps2Ceiling);
      log_eps2 += std::log(fps[j].eps2) / 4.0;
      rep.fingerprint.memory_bytes += fps[j].memory_bytes;
      rep.fingerprint.eval_flops += fps[j].eval_flops;
      rep.fingerprint.entries += fps[j].entries;
    }
    rep.fingerprint.eps2 = std::exp(log_eps2);
  }

  auto builder = [&](const service::OperatorSpec& spec)
      -> std::shared_ptr<CompressedOperator<double>> {
    return CompressedMatrix<double>::compress_unique(oracle_of(index_of(spec.dataset)),
                                                     spec.config);
  };
  Service::Options opts;
  opts.num_workers = 2;
  std::unique_ptr<Service> svc;
  for (int s = 0; s < kSetupRepeats; ++s) {
    svc.reset();
#ifdef __GLIBC__
    // Hand the freed service back to the system, so that the repeated
    // set-ups, which exist to sample setup_s, do not add their heap
    // fragmentation to peak_rss_mb.
    malloc_trim(0);
#endif
    SpanScope span("pipeline.setup");
    Timer t;
    svc = std::make_unique<Service>(builder, opts);
    std::vector<std::jthread> builders;
    for (std::size_t j = 0; j < 4; ++j)
      builders.emplace_back([&, j] {
        SpanScope build_span("service.build");
        Timer tb;
        try {
          (void)svc->cache().acquire(spec_of(j, kServeLambdas[0]));
          rep.sample("build_s", tb.seconds());
        } catch (const std::exception& e) {
          rep.check(false, std::string("build: ") + e.what());
        }
      });
    builders.clear();
    rep.sample("setup_s", t.seconds());
  }
  rep.check(svc->stats().cache.resident_bytes == rep.fingerprint.memory_bytes,
            "counting oracle changed the served operators");
  rep.sample("memory_mb", double(svc->stats().cache.resident_bytes) * 1e-6);

  // Request stream, the traffic bench/bench_service.cpp drives: r=1 solves
  // against a uniformly chosen operator, and one λ switch per operator, from
  // the first value to the second. Operator j switches at (2j+1)/8 of the
  // open loop: four retunes at once would queue behind each other on the two
  // workers, and the p99 would measure that queue instead of one retune
  // beside live traffic.
  std::array<std::vector<Mat>, 4> pool;
  for (std::size_t j = 0; j < 4; ++j)
    for (int v = 0; v < 8; ++v)
      pool[j].push_back(Mat::random_normal(kServeN, 1, sub_seed(args.seed, 40 + 8 * j + v)));
  struct Pending {
    std::future<service::ServiceResult<double>> fut;
    double due = 0;
    std::int64_t id = 0;
  };
  const double open_s = kServeOpenShare * args.seconds;
  std::array<double, 4> switch_at{};
  auto submit = [&](Prng& rng, double due, std::int64_t id) -> std::optional<Pending> {
    const std::size_t j = std::size_t(rng.below(4));
    const Mat& rhs = pool[j][std::size_t(rng.below(8))];
    const service::OperatorSpec spec = spec_of(j, kServeLambdas[due < switch_at[j] ? 0 : 1]);
    SpanScope span("service.submit", id);
    try {
      return Pending{svc->submit_solve(spec, rhs), due, id};
    } catch (const std::exception& e) {
      rep.check(false, std::string("submit: ") + e.what());
      return std::nullopt;
    }
  };
  auto finish = [&](Pending& p, double done, bool open_loop) {
    try {
      const service::ServiceResult<double> res = p.fut.get();
      const double worst = res.residuals.empty()
                               ? INFINITY
                               : *std::max_element(res.residuals.begin(), res.residuals.end());
      rep.check(worst <= kResidualCeiling, "served solve residual above 1e-8");
      if (g_tracer.on) rep.layer_max("core.solve.max_residual", worst);
      if (open_loop && g_tracer.on) {
        rep.layer("service.queue_ms_p50", 1e3 * res.queue_seconds);
        rep.layer("service.sweep_ms_p50", 1e3 * res.sweep_seconds);
      }
    } catch (const std::exception& e) {
      rep.check(false, std::string("request: ") + e.what());
    }
    if (g_tracer.on) g_tracer.record("service.request", p.due, done, p.id);
  };

  // Open loop: Poisson arrivals at kServeRate, latency from the due time.
  const double clock0 = now_s();
  for (std::size_t j = 0; j < 4; ++j) switch_at[j] = clock0 + open_s * double(2 * j + 1) / 8;
  std::vector<double> lag_ms;
  {
    std::mutex mu;
    std::vector<Pending> inflight;
    std::atomic<bool> generating{true};
    std::jthread collector([&] {
      std::vector<Pending> ready;
      for (;;) {
        const bool last_pass = !generating.load();
        {
          std::lock_guard<std::mutex> lk(mu);
          for (auto it = inflight.begin(); it != inflight.end();) {
            if (it->fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
              ready.push_back(std::move(*it));
              it = inflight.erase(it);
            } else {
              ++it;
            }
          }
          if (last_pass && inflight.empty() && ready.empty()) return;
        }
        const double done = now_s();
        for (Pending& p : ready) {
          rep.sample("op_ms", 1e3 * (done - p.due));
          finish(p, done, true);
        }
        ready.clear();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    Prng rng(sub_seed(args.seed, 90));
    std::int64_t id = 0;
    try {
      for (double due = clock0; due < clock0 + open_s;
           due += -std::log(1.0 - rng.uniform()) / kServeRate) {
        std::this_thread::sleep_until(
            kEpoch + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(due)));
        lag_ms.push_back(1e3 * (now_s() - due));
        if (auto p = submit(rng, due, id++)) {
          std::lock_guard<std::mutex> lk(mu);
          inflight.push_back(std::move(*p));
        }
      }
    } catch (const std::exception& e) {
      rep.check(false, std::string("generator: ") + e.what());
    }
    generating.store(false);  // the collector drains what is in flight
  }
  std::vector<double> latency = rep.samples["op_ms"];
  std::sort(latency.begin(), latency.end());
  const double tail = latency.size() > 10 ? latency[latency.size() - 11]
                                          : (latency.empty() ? INFINITY : latency.back());
  rep.check(tail <= kServeTailLimitMs,
            "open-loop tail latency " + json_number(tail) + " ms above the limit");

  // Closed loop: kServeOutstanding requests in flight, the oldest awaited.
  {
    Prng rng(sub_seed(args.seed, 91));
    std::deque<Pending> queue;
    std::vector<double> completions;
    const double t0 = now_s(), end = t0 + (1.0 - kServeOpenShare) * args.seconds;
    std::int64_t id = 1 << 30;
    for (int k = 0; k < kServeOutstanding; ++k)
      if (auto p = submit(rng, now_s(), id++)) queue.push_back(std::move(*p));
    while (!queue.empty()) {
      Pending p = std::move(queue.front());
      queue.pop_front();
      p.fut.wait();
      const double done = now_s();
      finish(p, done, false);
      if (done < end) {
        completions.push_back(done);
        if (auto q = submit(rng, done, id++)) queue.push_back(std::move(*q));
      }
    }
    record_rate(rep, completions, t0, end - t0);
  }

  svc->drain();
  const service::ServiceStats st = svc->stats();
  rep.check(st.cache.builds == 4, "service built " + std::to_string(st.cache.builds) + " operators, not 4");
  rep.check(st.cache.evictions == 0, "service evicted an operator");
  if (!g_tracer.on) return;
  rep.layer("service.avg_batch_cols", st.avg_batch_cols());
  rep.layer("service.retunes", double(st.cache.retunes));
  rep.layer("service.builds", double(st.cache.builds));
  rep.layer("service.evictions", double(st.cache.evictions));
  rep.layer("service.rejected", double(st.rejected));
  rep.layer("service.refine_iterations", double(st.refine_iterations));
  rep.layer("service.gen_lag_ms_p99", percentile(lag_ms, 99));
}

// --------------------------------------------------------------- output --

void print_report(Report& rep, const Args& args) {
  rep.sample("peak_rss_mb", peak_rss_mb());
  std::string out = "{\"workload\": " + json_string(args.workload) +
                    ", \"seed\": " + std::to_string(args.seed) +
                    ", \"trace\": " + (args.trace ? "1" : "0") +
                    ", \"attempted\": " + std::to_string(rep.attempted) +
                    ", \"failed\": " + std::to_string(rep.failed) + ", \"failures\": [";
  for (std::size_t i = 0; i < rep.failures.size(); ++i)
    out += (i ? ", " : "") + json_string(rep.failures[i]);
  out += "], \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : rep.samples) {
    out += (first ? "" : ", ") + json_string(name) + ": [";
    for (std::size_t i = 0; i < values.size(); ++i)
      out += (i ? ", " : "") + json_number(values[i]);
    out += "]";
    first = false;
  }
  const Fingerprint& fp = rep.fingerprint;
  out += "}, \"fingerprint\": {\"eps2\": " + json_number(fp.eps2) +
         ", \"memory_bytes\": " + std::to_string(fp.memory_bytes) +
         ", \"eval_flops\": " + std::to_string(fp.eval_flops) +
         ", \"entries\": " + std::to_string(fp.entries) + "}, \"layers\": {";
  if (args.trace)
    for (std::size_t i = 0; i < kLayerNames.size(); ++i)
      out += (i ? ", " : "") + json_string(kLayerNames[i]) + ": " +
             json_number(median(rep.layers[kLayerNames[i]]));
  out += "}, \"spans\": {";
  first = true;
  for (const auto& [name, s] : g_tracer.summary()) {
    out += (first ? "" : ", ") + json_string(name) + ": {\"count\": " +
           std::to_string(s.count) + ", \"total_s\": " + json_number(s.total_s) +
           ", \"self_s\": " + json_number(s.self_s) + "}";
    first = false;
  }
  out += "}, \"gemm_kernel\": " + json_string(la::gemm_kernel_name()) + "}";
  std::printf("%s\n", out.c_str());
}

int usage(const char* why) {
  std::fprintf(stderr,
               "bench_pipeline: %s\n"
               "usage: bench_pipeline --workload NAME --seed S --seconds T "
               "[--trace 0|1] [--trace-out FILE]\n"
               "       bench_pipeline --warm-cache\n",
               why);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--warm-cache") {
      args.warm_cache = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") args.workload = value;
      else if (flag == "--seed") args.seed = std::stoull(value);
      else if (flag == "--seconds") args.seconds = std::stod(value);
      else if (flag == "--trace") args.trace = std::stoi(value) != 0;
      else if (flag == "--trace-out") args.trace_out = value;
      else return usage(("unknown flag " + flag).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  try {
    if (args.warm_cache) {
      (void)zoo::make_matrix<double>("K02", kDenseN);
      (void)zoo::make_matrix<double>("K02", kServeN);
      return 0;
    }
    if (!(args.seconds > 0)) return usage("--seconds must be positive");
    g_tracer.on = args.trace;
    Report rep;
    // The la probes do not depend on the workload: one traced run has them.
    if (args.trace && args.workload == "fmm-kernel") run_la_probes(rep);
    if (args.workload == "fmm-kernel") run_fmm(rep, args, false);
    else if (args.workload == "fmm-dense") run_fmm(rep, args, true);
    else if (args.workload == "ulv-regression") run_ulv(rep, args);
    else if (args.workload == "serve") run_serve(rep, args);
    else return usage(("unknown workload " + args.workload).c_str());
    if (!args.trace_out.empty()) g_tracer.write_chrome(args.trace_out);
    print_report(rep, args);
  } catch (const InvalidWorkload& e) {
    std::fprintf(stderr, "invalid workload %s at seed %llu: %s\n", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_pipeline: %s\n", e.what());
    return 1;
  }
  return 0;
}
