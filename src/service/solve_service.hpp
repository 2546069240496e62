// The solve service: a long-lived, in-process front end that turns GOFMM's
// batch-friendly primitives into a request/response runtime.
//
// Three layers, each mapping a service concern onto a library strength:
//
//  1. OperatorCache (operator_cache.hpp) — compress once, retune λ for
//     ~free: a (dataset, config, factorization-policy) structure is built
//     on first touch and every later λ goes through refactorize(), never a
//     rebuild. Mixed-precision (MixedF32) entries hold float factors, so
//     they charge ~half the factor bytes against the LRU budget.
//  2. Cross-request batching — the ULV engine solves an N-by-r block 7-9×
//     faster than r sequential solves, so concurrent requests against the
//     same (structure, λ) coalesce into ONE blocked sweep. A request waits
//     at most `batch_window` for company; a batch reaching `max_batch_cols`
//     flushes immediately. Results are bit-identical to solo solves:
//     blocked solves are column-independent (la/-level GEMMs never mix
//     columns), so coalescing changes throughput, not bits.
//  3. Executor — `num_workers` service threads each take the due batch
//     with the earliest deadline and run it as one job: build (on a cold
//     structure), retune and sweep inside ONE with_operator() call, so a
//     retune and the sweep it serves share one write lock. While batching
//     is on, at most one batch per structure runs at a time, so a
//     compression of a cold operator overlaps sweeps against warm ones,
//     and callers only ever block on their own future.
//
// Backpressure: admission is bounded by `max_pending` in-flight requests;
// submissions beyond it throw OverloadedError (typed, catchable) rather
// than queueing without bound. Shutdown drains: every accepted request's
// future completes before the destructor returns.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <exception>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/error.hpp"
#include "core/operator.hpp"
#include "core/solvers.hpp"
#include "la/blas.hpp"
#include "service/operator_cache.hpp"
#include "service/service_stats.hpp"
#include "spectral/eigs.hpp"
#include "spectral/trace.hpp"

namespace gofmm::service {

/// Admission-control rejection: the service's bounded queue is full. Shed
/// load by retrying later (the queue drains at sweep speed) — catch this
/// type specifically; it never signals a fault in the request itself.
class OverloadedError : public Error {
 public:
  /// Carries the queue state (pending vs bound) in the message.
  explicit OverloadedError(const std::string& msg);
};

/// What a request asks of the operator.
enum class RequestKind {
  Solve,   ///< x = (K̃+λI)⁻¹ b through the cached factorization
  Matvec,  ///< u = K̃ w through the compressed operator (λ unused)
  Logdet,  ///< log det(K̃+λI) of the cached factorization
  /// Stochastic trace estimate of K̃ (or of (K̃+λI)⁻¹ via
  /// TraceTarget::Inverse) with a variance-tracked confidence interval.
  Trace,
  /// Extreme eigenpairs: shift-invert Lanczos at σ = −spec.lambda through
  /// the cached factorization (Which::Smallest), plain Lanczos otherwise.
  Eigs,
};

/// Kinds that carry no right-hand side — their batch width is the request
/// count, not a column count, and identical coalesced requests share one
/// computed result.
[[nodiscard]] constexpr bool rhs_free(RequestKind kind) {
  return kind == RequestKind::Logdet || kind == RequestKind::Trace ||
         kind == RequestKind::Eigs;
}

/// What a request's future resolves to.
template <typename T>
struct ServiceResult {
  /// Solution block (Solve) or product block (Matvec) in the caller's
  /// column order; orthonormal Ritz vectors (Eigs); empty otherwise.
  la::Matrix<T> values;
  /// Per-column relative residuals ‖(K̃+λI)x_j − b_j‖/‖b_j‖, measured with
  /// one extra blocked matvec per batch (Solve, when the service's
  /// `report_residuals` option is on); per-pair eigenresiduals ‖K̃v−λv‖
  /// for Eigs.
  std::vector<double> residuals;
  /// log det(K̃+λI) (Logdet only; NaN otherwise).
  double logdet = std::numeric_limits<double>::quiet_NaN();
  /// Stochastic trace estimate with its confidence interval (Trace only;
  /// a zero-probe default otherwise).
  spectral::TraceEstimate trace;
  /// Eigenvalues, most extreme first (Eigs only); the paired Ritz vectors
  /// land in `values` and the true residuals ‖K̃v−λv‖ in `residuals`.
  std::vector<double> eigenvalues;
  /// Whether every requested eigenpair met the residual bound (Eigs only).
  bool eigs_converged = false;
  /// Width of the sweep this request rode in (1 = no coalescing): total
  /// rhs columns for Solve/Matvec, coalesced request count for the
  /// rhs-free kinds (Logdet/Trace/Eigs) — matching the batch histogram.
  index_t batch_cols = 0;
  /// Iterative-refinement sweeps the batch ran to reach the requested
  /// residual (Solve against a MixedF32 factorization with refine on;
  /// 0 everywhere else).
  index_t refine_iterations = 0;
  /// Submit → sweep-start wait (batching window + queueing + build and
  /// retune time).
  double queue_seconds = 0;
  /// Sweep wall-clock (shared by every request of the batch).
  double sweep_seconds = 0;
};

/// Pool of EvalWorkspace scratch blocks, leased RAII-style by sweeps.
/// A returned workspace is reset() — counters cleared, buffer CAPACITY
/// kept — so steady-state sweeps of a stable shape run with zero scratch
/// (re)allocation (asserted in tests/test_service.cpp).
template <typename T>
class WorkspacePool {
 public:
  /// Move-only handle; returns the workspace to the pool on destruction.
  class Lease {
   public:
    /// Moves ownership of the leased workspace; the source goes empty.
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {
      other.pool_ = nullptr;
    }
    /// Move-assign: returns any currently held workspace first.
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        ws_ = std::move(other.ws_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;             ///< a lease has one holder
    Lease& operator=(const Lease&) = delete;  ///< a lease has one holder
    /// Returns the workspace to the pool (reset, capacity kept).
    ~Lease() { release(); }

    EvalWorkspace<T>& operator*() { return *ws_; }     ///< leased workspace
    EvalWorkspace<T>* operator->() { return ws_.get(); }  ///< leased workspace

   private:
    friend class WorkspacePool;
    Lease(WorkspacePool* pool, std::unique_ptr<EvalWorkspace<T>> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    void release() {
      if (pool_ != nullptr && ws_ != nullptr) pool_->put(std::move(ws_));
      pool_ = nullptr;
    }
    WorkspacePool* pool_;
    std::unique_ptr<EvalWorkspace<T>> ws_;
  };

  /// Hands out an idle workspace, or grows the pool when all are leased.
  Lease lease() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (!free_.empty()) {
        auto ws = std::move(free_.back());
        free_.pop_back();
        return Lease(this, std::move(ws));
      }
      created_ += 1;
    }
    return Lease(this, std::make_unique<EvalWorkspace<T>>());
  }

  /// Workspaces idle in the pool right now.
  [[nodiscard]] std::size_t idle() const {
    std::lock_guard<std::mutex> lk(mu_);
    return free_.size();
  }
  /// Workspaces ever constructed (steady state: stops growing).
  [[nodiscard]] std::size_t created() const {
    std::lock_guard<std::mutex> lk(mu_);
    return created_;
  }

 private:
  void put(std::unique_ptr<EvalWorkspace<T>> ws) {
    ws->reset();  // clear counters, keep buffer capacity
    std::lock_guard<std::mutex> lk(mu_);
    free_.push_back(std::move(ws));
  }

  mutable std::mutex mu_;
  std::vector<std::unique_ptr<EvalWorkspace<T>>> free_;
  std::size_t created_ = 0;
};

/// The long-lived solve service. Construct once with a builder that maps
/// dataset ids to compressed operators, then submit from any number of
/// threads; each submit returns a future. `T` is the scalar type.
template <typename T>
class SolveService {
 public:
  /// Maps an OperatorSpec to a compressed operator (see OperatorCache).
  using Builder = typename OperatorCache<T>::Builder;
  /// Monotonic clock for batch windows and latency metrics.
  using Clock = std::chrono::steady_clock;

  /// Service tunables (defaults suit test/bench-sized problems).
  struct Options {
    /// Resident-byte budget of the operator cache (compression + factors).
    std::uint64_t cache_byte_budget = std::uint64_t(512) << 20;
    /// A batch reaching this many rhs columns flushes without waiting out
    /// the window (one oversized request may overshoot it).
    index_t max_batch_cols = 64;
    /// How long the first request of a batch waits for company. The knob
    /// trades latency for coalescing; 0 still coalesces whatever arrived
    /// while a sweep of the same structure was running.
    std::chrono::microseconds batch_window{250};
    /// Admission bound: in-flight requests beyond this throw
    /// OverloadedError at submit.
    std::size_t max_pending = 4096;
    /// Service worker threads, each running one batch at a time
    /// (0 = hardware concurrency).
    int num_workers = 0;
    /// Measure per-column solve residuals (one extra blocked matvec per
    /// solve batch). Off = solves return without residuals.
    bool report_residuals = true;
  };

  /// Starts the worker threads immediately; operators build lazily on
  /// first request (or warm via cache()).
  explicit SolveService(Builder builder, Options options = {})
      : opts_(options),
        cache_(std::move(builder), options.cache_byte_budget),
        workers_(start_workers()) {}

  SolveService(const SolveService&) = delete;             ///< owns threads
  SolveService& operator=(const SolveService&) = delete;  ///< owns threads

  /// Drains: flushes open batches, completes every accepted request's
  /// future, then joins the workers.
  ~SolveService() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();  // each exits once no batch is left
  }

  /// Enqueues a request; the future resolves when its batch's sweep
  /// completes (or faults). Throws OverloadedError beyond `max_pending`
  /// in-flight requests, StateError after shutdown, DimensionError for an
  /// empty rhs on Solve/Matvec. The rhs is moved in; concurrent submits
  /// against the same (structure, λ, kind, solve-options) coalesce into
  /// one sweep. `solve_options` shapes Solve requests only (refinement
  /// policy against mixed-precision factorizations); it is part of the
  /// batch key, so requests with different policies never share a sweep.
  std::future<ServiceResult<T>> submit(
      RequestKind kind, OperatorSpec spec,
      la::Matrix<T> rhs = la::Matrix<T>(),
      SolveOptions solve_options = SolveOptions::defaults(),
      spectral::TraceOptions trace_options = spectral::TraceOptions::defaults(),
      spectral::EigsOptions eigs_options = spectral::EigsOptions::defaults()) {
    check<DimensionError>(rhs_free(kind) || !rhs.empty(),
                          "SolveService: empty right-hand side");
    // The cache pins the factorization at spec.lambda, so that IS the
    // shift-invert tuning: σ = −λ (factorize(λ) factors K̃+λI).
    if (kind == RequestKind::Eigs) eigs_options.sigma = -spec.lambda;
    auto req = std::make_unique<Request>();
    req->rhs = std::move(rhs);
    req->enqueued = Clock::now();
    std::future<ServiceResult<T>> fut = req->promise.get_future();
    const std::string key =
        batch_key(spec, kind, solve_options, trace_options, eigs_options);
    {
      std::lock_guard<std::mutex> lk(mu_);
      check<StateError>(!stop_, "SolveService: submit after shutdown");
      if (pending_ >= opts_.max_pending) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        throw OverloadedError(
            "SolveService: overloaded — " + std::to_string(pending_) +
            " requests in flight (max_pending = " +
            std::to_string(opts_.max_pending) + "); retry after the queue drains");
      }
      pending_ += 1;
      requests_.fetch_add(1, std::memory_order_relaxed);
      if (kind == RequestKind::Trace)
        trace_requests_.fetch_add(1, std::memory_order_relaxed);
      if (kind == RequestKind::Eigs)
        eigs_requests_.fetch_add(1, std::memory_order_relaxed);
      std::unique_ptr<Batch>& slot = open_[key];
      if (slot == nullptr) {
        slot = std::make_unique<Batch>();
        slot->spec = spec;
        slot->skey = spec.structure_key();
        slot->kind = kind;
        slot->solve = solve_options;
        slot->trace = trace_options;
        slot->eigs = eigs_options;
        slot->key = key;
        slot->deadline = req->enqueued + opts_.batch_window;
      }
      slot->cols += req->rhs.cols();
      slot->requests.push_back(std::move(req));
      // A full batch closes at submit time: later requests open a fresh
      // one, so max_batch_cols truly caps a sweep's width (one oversized
      // request may still overshoot) and max_batch_cols = 1 degenerates
      // to honest per-request sweeps (the bench's unbatched baseline).
      if (slot->cols >= opts_.max_batch_cols) {
        ready_.push_back(std::move(slot));
        open_.erase(key);
      }
    }
    cv_.notify_all();
    return fut;
  }

  /// submit(Solve) sugar.
  std::future<ServiceResult<T>> submit_solve(
      OperatorSpec spec, la::Matrix<T> rhs,
      SolveOptions solve_options = SolveOptions::defaults()) {
    return submit(RequestKind::Solve, std::move(spec), std::move(rhs),
                  solve_options);
  }
  /// submit(Matvec) sugar.
  std::future<ServiceResult<T>> submit_matvec(OperatorSpec spec,
                                              la::Matrix<T> rhs) {
    return submit(RequestKind::Matvec, std::move(spec), std::move(rhs));
  }
  /// submit(Logdet) sugar.
  std::future<ServiceResult<T>> submit_logdet(OperatorSpec spec) {
    return submit(RequestKind::Logdet, std::move(spec));
  }
  /// submit(Trace) sugar: stochastic trace of K̃ (or (K̃+λI)⁻¹ with
  /// TraceTarget::Inverse), estimator chosen by options.method. Identical
  /// coalesced requests (same spec + options, hence same seed) share one
  /// estimate — bit-reproducible, so sharing is exact.
  std::future<ServiceResult<T>> submit_trace(
      OperatorSpec spec,
      spectral::TraceOptions options = spectral::TraceOptions::defaults()) {
    return submit(RequestKind::Trace, std::move(spec), la::Matrix<T>(),
                  SolveOptions::defaults(), options);
  }
  /// submit(Eigs) sugar: extreme eigenpairs of K̃. Which::Smallest
  /// shift-inverts at σ = −spec.lambda — the factorization the cache pins
  /// for this spec — so a shift sweep is a λ sweep: one build, one retune
  /// per distinct shift (options.sigma is overwritten accordingly).
  std::future<ServiceResult<T>> submit_eigs(
      OperatorSpec spec,
      spectral::EigsOptions options = spectral::EigsOptions::defaults()) {
    return submit(RequestKind::Eigs, std::move(spec), la::Matrix<T>(),
                  SolveOptions::defaults(), spectral::TraceOptions::defaults(),
                  options);
  }

  /// Blocking convenience: submit + wait.
  ServiceResult<T> solve(OperatorSpec spec, la::Matrix<T> rhs) {
    return submit_solve(std::move(spec), std::move(rhs)).get();
  }

  /// Blocks until every accepted request has completed and no batch is
  /// open. New submits may land while draining; they are waited for too.
  void drain() {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [this] { return pending_ == 0 && open_.empty(); });
  }

  /// Point-in-time metrics snapshot (thread-safe, non-quiescing).
  [[nodiscard]] ServiceStats stats() const {
    ServiceStats s;
    s.cache = cache_.counters();
    s.requests = requests_.load(std::memory_order_relaxed);
    s.rejected = rejected_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.failed = failed_.load(std::memory_order_relaxed);
    s.batches = batches_.load(std::memory_order_relaxed);
    s.batched_columns = batched_cols_.load(std::memory_order_relaxed);
    s.trace_requests = trace_requests_.load(std::memory_order_relaxed);
    s.eigs_requests = eigs_requests_.load(std::memory_order_relaxed);
    s.refine_iterations = refine_iters_.load(std::memory_order_relaxed);
    for (std::size_t i = 0; i < s.batch_size_log2.size(); ++i)
      s.batch_size_log2[i] = batch_hist_[i].load(std::memory_order_relaxed);
    s.latency_p50_s = latency_.percentile(50);
    s.latency_p99_s = latency_.percentile(99);
    s.latency_samples = latency_.count();
    {
      std::lock_guard<std::mutex> lk(mu_);
      s.queue_depth = pending_;
    }
    return s;
  }

  /// The operator cache (e.g. to pre-warm structures or read counters).
  [[nodiscard]] OperatorCache<T>& cache() { return cache_; }
  /// The sweep scratch pool (its `created()` plateaus at steady state).
  [[nodiscard]] WorkspacePool<T>& workspaces() { return pool_; }

 private:
  struct Request {
    la::Matrix<T> rhs;
    std::promise<ServiceResult<T>> promise;
    typename Clock::time_point enqueued;
  };

  // One coalesced sweep: the requests of a (structure, λ, kind) key that
  // arrived within a window.
  struct Batch {
    OperatorSpec spec;
    RequestKind kind;
    SolveOptions solve;            // refinement policy (Solve batches)
    spectral::TraceOptions trace;  // estimator shape (Trace batches)
    spectral::EigsOptions eigs;    // eigensolver shape (Eigs batches)
    std::string key;   // batch key (structure | λ | kind | kind options)
    std::string skey;  // structure key: the coalescing gate
    std::vector<std::unique_ptr<Request>> requests;
    index_t cols = 0;
    typename Clock::time_point deadline;
  };

  static std::string batch_key(const OperatorSpec& spec, RequestKind kind,
                               const SolveOptions& so,
                               const spectral::TraceOptions& to,
                               const spectral::EigsOptions& eo) {
    char lam[40];
    std::snprintf(lam, sizeof lam, "%la", spec.lambda);  // exact λ image
    const char* tag = kind == RequestKind::Solve    ? "solve"
                      : kind == RequestKind::Matvec ? "matvec"
                      : kind == RequestKind::Logdet ? "logdet"
                      : kind == RequestKind::Trace  ? "trace"
                                                    : "eigs";
    std::string key = spec.structure_key() + '|' + lam + '|' + tag;
    if (kind == RequestKind::Solve) {
      // Solve options change what a sweep computes (refinement target and
      // budget), so batches with different policies must not coalesce.
      // Matvec/Logdet ignore them — keying would only fragment batches.
      char opt[64];
      std::snprintf(opt, sizeof opt, "|r%d;t%la;i%lld", int(so.refine),
                    so.target_residual, (long long)so.max_refine_iters);
      key += opt;
    } else if (kind == RequestKind::Trace) {
      // Every TraceOptions field changes the estimate's bits (seed, probe
      // count, estimator, target, CI level) or its blocking; coalescing
      // across any of them would hand a caller someone else's estimate.
      char opt[96];
      std::snprintf(opt, sizeof opt, "|m%d;p%lld;s%llx;g%d;c%la;b%lld",
                    int(to.method), (long long)to.probes,
                    (unsigned long long)to.seed, int(to.target), to.confidence,
                    (long long)to.block);
      key += opt;
    } else if (kind == RequestKind::Eigs) {
      // σ is deliberately absent: it is forced to −spec.lambda at submit,
      // and λ already keys the batch.
      char opt[96];
      std::snprintf(opt, sizeof opt, "|k%lld;w%d;m%lld;t%la;s%llx",
                    (long long)eo.k, int(eo.which), (long long)eo.max_subspace,
                    eo.tolerance, (unsigned long long)eo.seed);
      key += opt;
    }
    return key;
  }

  // Starts num_workers threads (0 = hardware concurrency). Runs last in
  // the constructor, so every member a worker touches already exists.
  std::vector<std::thread> start_workers() {
    const int n = opts_.num_workers > 0
                      ? opts_.num_workers
                      : int(std::max(1u, std::thread::hardware_concurrency()));
    std::vector<std::thread> workers;
    workers.reserve(std::size_t(n));
    for (int w = 0; w < n; ++w) workers.emplace_back([this] { worker(); });
    return workers;
  }

  // One service thread. Each pass takes the due batch with the earliest
  // deadline — a closed batch in ready_, an open one past its window, or
  // any batch on shutdown — runs it, reopens its gate and loops at once.
  //
  // Coalescing gate: with batching enabled (max_batch_cols > 1) at most
  // ONE batch per structure runs at a time; a due batch whose structure is
  // busy stays queued (an open one keeps absorbing arrivals) until the
  // running batch completes. Under load the batch width therefore tracks
  // the arrival rate × sweep time naturally — the window only bounds the
  // wait when the service is idle — and batches of one structure at
  // different λs run one after another instead of fighting over the
  // entry's lock. With batching disabled every request runs independently
  // at full worker parallelism.
  void worker() {
    const bool gated = opts_.max_batch_cols > 1;
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      if (stop_ && open_.empty() && ready_.empty()) return;
      const auto now = Clock::now();
      auto runnable = [&](const Batch& b) {
        return !gated || !busy_.contains(b.skey);
      };
      Batch* best = nullptr;
      for (const auto& b : ready_)
        if (runnable(*b) && (best == nullptr || b->deadline < best->deadline))
          best = b.get();
      auto until = Clock::time_point::max();  // next open window to close
      for (const auto& [key, b] : open_) {
        if (!stop_ && now < b->deadline) {
          until = std::min(until, b->deadline);
        } else if (runnable(*b) &&
                   (best == nullptr || b->deadline < best->deadline)) {
          best = b.get();
        }
      }
      if (best == nullptr) {
        // Nothing runnable: sleep to the next window, or until a submit or
        // a finished batch (which reopens a gate) notifies.
        if (until != Clock::time_point::max()) {
          cv_.wait_until(lk, until);
        } else {
          cv_.wait(lk);
        }
        continue;
      }
      std::unique_ptr<Batch> owned = take(best);
      if (gated) busy_.insert(owned->skey);
      lk.unlock();
      execute(*owned);
      lk.lock();
      if (gated) busy_.erase(owned->skey);  // reopen the coalescing gate
      owned.reset();
      cv_.notify_all();  // a gate-blocked batch, or shutdown, may be due now
    }
  }

  // Removes `b` from ready_ or open_ and hands over its ownership. Caller
  // holds mu_.
  std::unique_ptr<Batch> take(Batch* b) {
    std::unique_ptr<Batch> owned;
    auto it = std::find_if(ready_.begin(), ready_.end(),
                           [b](const auto& r) { return r.get() == b; });
    if (it != ready_.end()) {
      owned = std::move(*it);
      ready_.erase(it);
    } else {
      auto node = open_.extract(b->key);
      owned = std::move(node.mapped());
    }
    return owned;
  }

  // Runs on a service thread: builds the operator if cold, then — under
  // one with_operator() call, so a retune keeps its write lock through the
  // sweep — the coalesced gather → blocked sweep → scatter at the batch's
  // λ. A build failure fails every request of the batch.
  void execute(Batch& b) {
    try {
      cache_.with_operator(b.spec, [&](typename OperatorCache<T>::Entry& e) {
        sweep(b, *e.op, Clock::now());
      });
    } catch (...) {
      // Failed batches count in the histogram too (before the promises
      // fail, for the same stats-visibility reason as the success path).
      record_batch(b);
      const auto err = std::current_exception();
      for (auto& r : b.requests)
        if (r != nullptr) fail(std::move(r), err);
    }
    notify_done();
  }

  void sweep(Batch& b, const CompressedOperator<T>& op,
             typename Clock::time_point start) {
    const index_t n = op.size();
    // Shed shape-mismatched requests individually; the rest still batch.
    for (auto& r : b.requests) {
      if (!rhs_free(b.kind) && r->rhs.rows() != n) {
        fail(std::move(r),
             std::make_exception_ptr(DimensionError(
                 "SolveService: rhs has " + std::to_string(r->rhs.rows()) +
                 " rows; operator order is " + std::to_string(n))));
      }
    }
    std::erase_if(b.requests,
                  [](const std::unique_ptr<Request>& r) { return r == nullptr; });
    if (b.requests.empty()) {
      record_batch(b);  // every batch run lands in the histogram
      return;
    }

    const auto* fact = op.factorizable();
    if (b.kind == RequestKind::Solve || b.kind == RequestKind::Logdet) {
      check<StateError>(fact != nullptr,
                        op.name() + ": backend has no factorization; " +
                            "Solve/Logdet unavailable");
    }  // Trace/Eigs enforce their own needs inside src/spectral/

    double logdet = std::numeric_limits<double>::quiet_NaN();
    spectral::TraceEstimate trace;       // shared Trace result
    spectral::EigsResult<T> eig;         // shared Eigs result
    la::Matrix<T> out;                   // coalesced result block
    std::vector<double> residuals;       // per coalesced column (Solve)
    index_t cols = 0;
    index_t refine_iters = 0;            // refinement sweeps (Solve, mixed)
    if (b.kind == RequestKind::Logdet) {
      logdet = fact->logdet();
    } else if (b.kind == RequestKind::Trace) {
      // Computed ONCE per batch: the key pins every option including the
      // seed, so coalesced requests asked for bit-identical estimates.
      auto ws = pool_.lease();
      trace = spectral::estimate_trace(op, b.trace, &*ws);
    } else if (b.kind == RequestKind::Eigs) {
      // eigs_at is const (solves only) — the entry's shared lock already
      // holds the factorization at λ = −σ, exactly what eigs_at demands.
      auto ws = pool_.lease();
      eig = spectral::eigs_at(op, b.eigs, &*ws);
    } else {
      // Gather the batch's right-hand sides into one N-by-cols block.
      for (const auto& r : b.requests) cols += r->rhs.cols();
      la::Matrix<T> rhs(n, cols);
      index_t at = 0;
      for (const auto& r : b.requests)
        for (index_t j = 0; j < r->rhs.cols(); ++j, ++at)
          std::copy_n(r->rhs.col(j), n, rhs.col(at));

      if (b.kind == RequestKind::Solve) {
        const bool mixed = fact->factorization_stats().precision ==
                           Precision::MixedF32;
        if (mixed && b.solve.refine) {
          // Refinement runs here (not inside fact->solve) so the service
          // can report the iteration count and reuse the refinement's own
          // double-accumulated residual measurements — no second blocked
          // matvec for report_residuals.
          auto ws = pool_.lease();
          const SolveReport rep = refined_solve(
              op, *fact, T(b.spec.lambda), rhs, out, b.solve, &*ws);
          refine_iters = rep.iterations;
          refine_iters_.fetch_add(std::uint64_t(rep.iterations),
                                  std::memory_order_relaxed);
          if (opts_.report_residuals) residuals = rep.column_residuals;
        } else {
          out = fact->solve(rhs, b.solve);  // ONE blocked r-wide sweep
          if (opts_.report_residuals)
            residuals = solve_residuals(op, T(b.spec.lambda), out, rhs);
        }
      } else {
        auto ws = pool_.lease();
        out = op.apply(rhs, *ws);
      }
    }

    // Record batch metrics BEFORE fulfilling any promise: a client that
    // reads stats() right after future.get() must see its own batch.
    record_batch(b);

    // Scatter column ranges back to their requests and fulfil promises.
    const auto end = Clock::now();
    const double sweep_s = std::chrono::duration<double>(end - start).count();
    index_t at = 0;
    for (auto& r : b.requests) {
      ServiceResult<T> res;
      res.logdet = logdet;
      res.batch_cols = rhs_free(b.kind) ? index_t(b.requests.size()) : cols;
      res.refine_iterations = refine_iters;
      res.queue_seconds =
          std::chrono::duration<double>(start - r->enqueued).count();
      res.sweep_seconds = sweep_s;
      if (b.kind == RequestKind::Trace) {
        res.trace = trace;
      } else if (b.kind == RequestKind::Eigs) {
        res.values = eig.vectors;
        res.eigenvalues = eig.values;
        res.residuals = eig.residuals;
        res.eigs_converged = eig.converged;
      } else if (b.kind != RequestKind::Logdet) {
        const index_t w = r->rhs.cols();
        res.values = out.block(0, at, n, w);
        if (!residuals.empty())
          res.residuals.assign(residuals.begin() + at,
                               residuals.begin() + at + w);
        at += w;
      }
      fulfil(std::move(r), std::move(res));
    }
  }

  // ‖(K̃+λI)x_j − b_j‖/‖b_j‖ per column, one blocked matvec for the batch.
  std::vector<double> solve_residuals(const CompressedOperator<T>& op,
                                      T lambda, const la::Matrix<T>& x,
                                      const la::Matrix<T>& rhs) {
    auto ws = pool_.lease();
    la::Matrix<T> ax = op.apply(x, *ws);
    std::vector<double> out(std::size_t(x.cols()));
    const index_t n = x.rows();
    for (index_t j = 0; j < x.cols(); ++j) {
      la::axpy(n, lambda, x.col(j), ax.col(j));
      double num = 0;
      for (index_t i = 0; i < n; ++i) {
        const double d = double(ax(i, j)) - double(rhs(i, j));
        num += d * d;
      }
      const double den = la::nrm2(n, rhs.col(j));
      out[std::size_t(j)] = std::sqrt(num) / std::max(den, 1e-300);
    }
    return out;
  }

  // --- completion plumbing -------------------------------------------------

  // Accounting happens before the promise fires: a client that reads
  // stats() right after future.get() sees its own request finished.
  void fulfil(std::unique_ptr<Request> r, ServiceResult<T> res) {
    latency_.record(std::chrono::duration<double>(Clock::now() - r->enqueued)
                        .count());
    completed_.fetch_add(1, std::memory_order_relaxed);
    finish_one();
    r->promise.set_value(std::move(res));
  }

  void fail(std::unique_ptr<Request> r, std::exception_ptr err) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    finish_one();
    r->promise.set_exception(std::move(err));
  }

  void finish_one() {
    std::lock_guard<std::mutex> lk(mu_);
    pending_ -= 1;
  }

  void notify_done() { done_cv_.notify_all(); }

  void record_batch(const Batch& b) {
    batches_.fetch_add(1, std::memory_order_relaxed);
    const index_t size =
        rhs_free(b.kind) ? index_t(b.requests.size()) : b.cols;
    batched_cols_.fetch_add(std::uint64_t(size), std::memory_order_relaxed);
    std::size_t bucket = 0;
    for (index_t s = size; s > 1 && bucket + 1 < batch_hist_.size(); s >>= 1)
      ++bucket;
    batch_hist_[bucket].fetch_add(1, std::memory_order_relaxed);
  }

  const Options opts_;
  OperatorCache<T> cache_;
  WorkspacePool<T> pool_;

  mutable std::mutex mu_;  // guards open_/ready_/busy_/pending_/stop_
  std::condition_variable cv_;       // wakes idle workers
  std::condition_variable done_cv_;  // wakes drain()
  std::unordered_map<std::string, std::unique_ptr<Batch>> open_;
  std::vector<std::unique_ptr<Batch>> ready_;  // closed, awaiting a worker
  std::unordered_set<std::string> busy_;  // structures with a batch running
  std::size_t pending_ = 0;
  bool stop_ = false;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_cols_{0};
  std::atomic<std::uint64_t> refine_iters_{0};
  std::atomic<std::uint64_t> trace_requests_{0};
  std::atomic<std::uint64_t> eigs_requests_{0};
  std::array<std::atomic<std::uint64_t>, 8> batch_hist_{};
  LatencyHistogram latency_;

  std::vector<std::thread> workers_;  // last member: started last
};

}  // namespace gofmm::service
