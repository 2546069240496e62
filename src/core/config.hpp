// User-facing configuration of GOFMM compression (paper §3 "Parameter
// selection": m, s, τ, κ, budget, distance, plus engineering switches).
#pragma once

#include <cstdint>

#include "runtime/engines.hpp"
#include "tree/metric.hpp"
#include "util/common.hpp"

namespace gofmm {

/// All tunables of Compress/Evaluate. Defaults follow the paper's standard
/// setting (m = 256-512, s = m, τ = 1e-5, κ = 32, 3% budget, Angle
/// distance) scaled to the laptop-sized problems of this reproduction.
struct Config {
  /// Leaf node size m: the tree splits until every leaf holds <= m indices.
  index_t leaf_size = 128;

  /// Maximum skeleton rank s per node.
  index_t max_rank = 128;

  /// Adaptive-rank tolerance τ: the ID truncates once the pivoted-QR
  /// diagonal drops below τ relative to the largest. <= 0 disables
  /// adaptivity (fixed rank = max_rank).
  double tolerance = 1e-5;

  /// Number of nearest neighbors κ per index (near/far pruning and
  /// importance sampling).
  index_t kappa = 32;

  /// Direct-evaluation budget (Eq. 6): each leaf keeps at most
  /// round(budget * num_leaves) near leaves besides itself.
  /// budget = 0 forces the HSS structure (S = 0); larger budgets move the
  /// approximation toward FMM with more exact off-diagonal blocks.
  double budget = 0.03;

  /// Index-ordering / distance choice (paper Fig. 7).
  tree::DistanceKind distance = tree::DistanceKind::Angle;

  /// Traversal engine (paper Fig. 4): HEFT runtime, level-by-level, or
  /// recursive OpenMP tasks.
  rt::Engine engine = rt::Engine::Heft;

  /// Number of scheduler workers; 0 = hardware concurrency.
  int num_workers = 0;

  /// Cache K_{βα} and K_{β̃α̃} blocks at compression time (paper's
  /// Kba/SKba tasks). Each unordered pair {β, α} listed from both sides is
  /// stored once, by the node with the lower id; the other side multiplies
  /// its transpose. Off = evaluate entries on the fly during matvecs.
  bool cache_blocks = true;

  /// Enforce symmetric near lists (paper requires this for a symmetric
  /// K̃; the ASKIT baseline switches it off). A pair listed by one side
  /// only is cached by that side.
  bool symmetric_near = true;

  /// Neighbor-based importance sampling of ID rows (paper §2.2); when off,
  /// rows are drawn uniformly at random (the STRUMPACK/HODLR-style
  /// geometry-free sampling used as an ablation).
  bool neighbor_sampling = true;

  /// Number of sampled rows for each ID, as a multiple of the column count
  /// of the block being skeletonized.
  double sample_factor = 2.0;
  /// Additive extra rows on top of sample_factor * ncols.
  index_t sample_extra = 32;

  /// PRNG seed for every stochastic component.
  std::uint64_t seed = 7;

  /// ANN iteration cap and target recall (paper: 10 iterations / 80%).
  index_t ann_max_iterations = 10;
  double ann_target_recall = 0.8;

  /// Throws ConfigError describing the first invalid field, if any.
  /// compress() calls this; call it yourself to fail fast at config time.
  void validate() const;

  // --- fluent builder -----------------------------------------------------
  //
  //   Config cfg = Config::defaults()
  //                    .with_leaf_size(128)
  //                    .with_budget(0.0)
  //                    .with_engine(rt::Engine::Heft);
  //
  // Each setter returns *this, so the chain works on both lvalues and the
  // temporary defaults() produces.

  [[nodiscard]] static Config defaults() { return Config{}; }

  Config& with_leaf_size(index_t v) { leaf_size = v; return *this; }
  Config& with_max_rank(index_t v) { max_rank = v; return *this; }
  Config& with_tolerance(double v) { tolerance = v; return *this; }
  Config& with_kappa(index_t v) { kappa = v; return *this; }
  Config& with_budget(double v) { budget = v; return *this; }
  Config& with_distance(tree::DistanceKind v) { distance = v; return *this; }
  Config& with_engine(rt::Engine v) { engine = v; return *this; }
  Config& with_num_workers(int v) { num_workers = v; return *this; }
  Config& with_cache_blocks(bool v) { cache_blocks = v; return *this; }
  Config& with_symmetric_near(bool v) { symmetric_near = v; return *this; }
  Config& with_neighbor_sampling(bool v) { neighbor_sampling = v; return *this; }
  Config& with_sample_factor(double v) { sample_factor = v; return *this; }
  Config& with_sample_extra(index_t v) { sample_extra = v; return *this; }
  Config& with_seed(std::uint64_t v) { seed = v; return *this; }
};

}  // namespace gofmm
