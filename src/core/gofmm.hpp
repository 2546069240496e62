// GOFMM: geometry-oblivious FMM compression of SPD matrices.
//
// This is the public entry point of the library. Typical use:
//
//   auto k = std::make_shared<zoo::KernelSPD<float>>(...);
//   gofmm::Config cfg = gofmm::Config::defaults()
//                           .with_leaf_size(128)
//                           .with_budget(0.03);      // m, s, τ, κ, ...
//   auto kc = gofmm::CompressedMatrix<float>::compress(k, cfg);
//   gofmm::EvalWorkspace<float> ws;                  // reusable scratch
//   la::Matrix<float> u = kc.apply(w, ws);           // u ≈ K w, N-by-r
//   double eps2 = kc.estimate_error(w, u);           // sampled ‖·‖_F error
//
// Compression implements Algorithm 2.2 of the paper: iterative randomized
// neighbor search, metric-tree partitioning, near/far interaction lists
// with budget-capped direct evaluations, nested adaptive-rank interpolative
// decompositions, and optional caching of the direct/skeleton blocks.
// Evaluation implements Algorithm 2.7 (N2S, S2S, S2N, L2L) under any of the
// three traversal engines. apply()/evaluate() are const and thread-safe:
// any number of threads can run matvecs on one compressed matrix at once,
// each against its own EvalWorkspace (see core/operator.hpp).
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "core/config.hpp"
#include "core/error.hpp"
#include "core/operator.hpp"
#include "core/spd_matrix.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "runtime/scheduler.hpp"
#include "tree/ann.hpp"
#include "tree/cluster_tree.hpp"

namespace gofmm {

/// Phase timings and work counters for one compressed matrix — everything
/// the paper's tables report (Comp/Eval seconds, GFs, average rank, ...).
struct CompressionStats {
  double ann_seconds = 0;       ///< neighbor search (steps 1-3 of Alg. 2.2)
  double tree_seconds = 0;      ///< metric-tree build (step 4)
  double lists_seconds = 0;     ///< near/far lists (steps 5-7)
  double skel_seconds = 0;      ///< skeletonization + coefficients (8-9)
  double cache_seconds = 0;     ///< Kba / SKba caching (10-11)
  double total_seconds = 0;     ///< whole Compress() wall-clock

  std::uint64_t skel_flops = 0;   ///< QR + TRSM work
  std::uint64_t cached_bytes = 0; ///< memory held by cached blocks

  double avg_rank = 0;          ///< mean skeleton rank over all nodes
  index_t max_rank = 0;         ///< largest skeleton rank
  index_t num_near_pairs = 0;   ///< |{(β,α) : α ∈ Near(β)}| (leaf pairs)
  index_t num_far_pairs = 0;    ///< |{(β,α) : α ∈ Far(β)}|
  double near_fraction = 0;     ///< fraction of K evaluated exactly
  double ann_recall = 0;        ///< estimated neighbor recall at stop
  index_t ann_iterations = 0;
};

template <typename T>
class UlvFactorization;  // core/factorization.hpp
template <typename T>
class GofmmHssView;  // core/factorization.cpp (HssView over a compression)

/// A hierarchically compressed SPD matrix: K̃ = D + S + UV (Eq. 1).
template <typename T>
class CompressedMatrix final : public CompressedOperator<T>,
                               public Factorizable<T> {
 public:
  // Out-of-line: the ULV factors are an incomplete type here.
  ~CompressedMatrix() override;
  /// Compresses `k` under `config`, sharing ownership of the oracle: the
  /// compressed matrix keeps the matrix alive for uncached evaluation and
  /// estimate_error, so the handle may go out of scope freely.
  static CompressedMatrix compress(std::shared_ptr<const SPDMatrix<T>> k,
                                   const Config& config);

  /// Heap-allocating variant for polymorphic use behind
  /// CompressedOperator<T> (the class itself is neither movable nor
  /// copyable — it owns mutexes and atomics).
  static std::unique_ptr<CompressedMatrix> compress_unique(
      std::shared_ptr<const SPDMatrix<T>> k, const Config& config);

  /// u = K̃ * w for an N-by-r block of right-hand sides (paper Alg. 2.7).
  /// Const and thread-safe: scratch comes from an internal workspace pool.
  /// Equivalent to apply(w) with pooled instead of throwaway workspaces;
  /// apply(w, ws) with a caller-owned workspace skips the pool lock.
  la::Matrix<T> evaluate(const la::Matrix<T>& w) const;

  /// Relative error ε₂ = ‖K̃w − Kw‖_F / ‖Kw‖_F estimated on a row sample,
  /// clamped at N (paper Eq. 11; default 100 rows as in §3).
  double estimate_error(const la::Matrix<T>& w, const la::Matrix<T>& u,
                        index_t sample_rows = 100,
                        std::uint64_t seed = 1234) const;

  // --- CompressedOperator interface ---
  [[nodiscard]] index_t size() const override { return n_; }
  [[nodiscard]] std::string name() const override { return "gofmm"; }
  [[nodiscard]] std::uint64_t memory_bytes() const override;
  [[nodiscard]] OperatorStats operator_stats() const override;
  [[nodiscard]] Factorizable<T>* factorizable() override { return this; }
  [[nodiscard]] const Factorizable<T>* factorizable() const override {
    return this;
  }

  // --- Factorizable capability (core/factorization.cpp) ---
  //
  // factorize() builds a symmetric ULV-style factorization of the NESTED
  // (HSS) part of the compression — leaf diagonal blocks plus the
  // skeleton-basis sibling couplings — through the shared ULV engine
  // (UlvFactorization over a GofmmHssView): bottom-up block elimination
  // with Woodbury capacitance updates at every tree level. For a pure HSS
  // compression (budget 0) this factors K̃ + λI exactly; with a direct
  // budget > 0 the dropped near/far corrections make solve() a
  // preconditioner-quality approximate inverse (see preconditioned_solve
  // in core/solvers.hpp). Mutating setup step; solve()/logdet() are const
  // and thread-safe afterwards. solve() takes an N-by-r block and runs one
  // level-parallel sweep with r-wide GEMMs (see core/factorization.hpp).
  // Indefinite shifts eliminate through the pivoted-LDLᵀ leaf path per
  // `options`; refactorize(λ) re-eliminates with a new shift reusing the
  // engine's payload snapshot — no oracle traffic, bit-identical to a
  // fresh factorize(λ).
  void factorize(T regularization = T(0),
                 FactorizeOptions options = {}) override;
  void refactorize(T regularization) override;
  [[nodiscard]] bool factorized() const override { return fact_ != nullptr; }
  [[nodiscard]] la::Matrix<T> solve(
      const la::Matrix<T>& b,
      const SolveOptions& options = SolveOptions::defaults()) const override;
  [[nodiscard]] double logdet() const override;
  [[nodiscard]] FactorizationStats factorization_stats() const override;

  /// The ULV factors built by factorize() — exposed for sweep-mode
  /// verification and advanced use. Throws StateError before factorize().
  [[nodiscard]] const UlvFactorization<T>& factorization() const;

  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] const CompressionStats& stats() const { return stats_; }

  /// Stats of the most recent evaluate() on this object (guarded copy;
  /// concurrent evaluations overwrite it last-writer-wins). apply() does
  /// not touch it — its stats land in the caller's workspace instead.
  [[nodiscard]] EvaluationStats last_eval_stats() const {
    std::lock_guard<std::mutex> lock(eval_stats_mutex_);
    return eval_stats_;
  }

  /// The input oracle (alive as long as this object per shared ownership).
  [[nodiscard]] const SPDMatrix<T>& matrix() const { return *k_; }

  [[nodiscard]] const tree::ClusterTree& cluster_tree() const { return *tree_; }
  [[nodiscard]] const tree::NeighborLists& neighbors() const {
    return neighbors_;
  }

  /// Per-node skeleton ranks (by node id); rank 0 = not skeletonized.
  [[nodiscard]] std::vector<index_t> skeleton_ranks() const;

  /// Skeleton indices α̃ of a node (original matrix ids); empty when the
  /// node was not skeletonized. Exposed for the nesting invariant tests.
  [[nodiscard]] const std::vector<index_t>& skeleton(
      const tree::Node* node) const {
    return data_[std::size_t(node->id)].skel;
  }

  /// Near/far lists of a node, exposed for tests of the partition
  /// invariants (coverage, symmetry, HSS reduction at budget 0).
  [[nodiscard]] const std::vector<const tree::Node*>& near_list(
      const tree::Node* node) const {
    return data_[std::size_t(node->id)].near;
  }
  [[nodiscard]] const std::vector<const tree::Node*>& far_list(
      const tree::Node* node) const {
    return data_[std::size_t(node->id)].far;
  }

 protected:
  la::Matrix<T> do_apply(const la::Matrix<T>& w,
                         EvalWorkspace<T>& ws) const override;

 private:
  friend class GofmmHssView<T>;

  CompressedMatrix(std::shared_ptr<const SPDMatrix<T>> k,
                   const Config& config);

  /// Where the cached block of one list slot lives: block `slot` of node
  /// `owner`'s near_blocks/far_blocks. A slot whose owner is another node
  /// reads that node's mirror block K(α, β) and multiplies its transpose.
  struct BlockRef {
    index_t owner = 0;
    index_t slot = 0;
  };

  /// Per-node payload, indexed by tree::Node::id. Immutable once
  /// compression finishes — evaluation scratch lives in EvalWorkspace.
  struct NodeData {
    // --- compression products ---
    std::vector<index_t> skel;  ///< skeleton indices α̃ (original ids)
    la::Matrix<T> proj;  ///< P_{α̃α} (leaf) or P_{α̃[l̃r̃]} (internal)
    bool needs_skeleton = false;

    // --- interaction lists ---
    std::vector<const tree::Node*> near;  ///< leaves only (incl. self)
    std::vector<const tree::Node*> far;
    std::vector<index_t> near_leaf_ordinals;  ///< sorted, for FindFar

    // --- cached blocks (empty when cache_blocks is off) ---
    // Each unordered pair {β, α} is stored once, by the node with the lower
    // id; a pair that α does not list back is stored by β alone. The self
    // block K(β, β) always stays with its leaf.
    std::vector<la::Matrix<T>> near_blocks;  ///< owned K(β, α), α ∈ near
    std::vector<la::Matrix<T>> far_blocks;   ///< owned K(β̃, α̃), α ∈ far
    std::vector<BlockRef> near_refs;         ///< one per near slot
    std::vector<BlockRef> far_refs;          ///< one per far slot
  };

  // Pipeline stages (defined across the core/*.cpp files).
  void run_neighbor_search();
  void build_partition_tree();
  void build_interaction_lists();
  void skeletonize_all();
  void cache_interaction_blocks();

  // Skeletonization helpers.
  void skeletonize_node(const tree::Node* node);
  std::vector<index_t> sample_rows_for(const tree::Node* node,
                                       std::span<const index_t> columns,
                                       index_t want, Prng& rng) const;

  // Evaluation helpers (evaluator.cpp). All const: per-call state lives in
  // the workspace (ws.x/ws.y = tree-ordered rhs/outputs, ws.up/ws.down =
  // per-node skeleton weights/potentials).
  void eval_prepare(const la::Matrix<T>& w, EvalWorkspace<T>& ws) const;
  void task_n2s(const tree::Node* node, EvalWorkspace<T>& ws) const;
  void task_s2s(const tree::Node* node, EvalWorkspace<T>& ws) const;
  void task_s2n(const tree::Node* node, EvalWorkspace<T>& ws) const;
  void task_l2l(const tree::Node* node, EvalWorkspace<T>& ws) const;
  void eval_with_heft(EvalWorkspace<T>& ws) const;
  void eval_with_levels(EvalWorkspace<T>& ws) const;
  void eval_with_omp_tasks(EvalWorkspace<T>& ws) const;

  // Block access for slot t of β's near/far list: the cached block, with
  // op = Trans when β reads its owner's mirror; without a cache, K(β, α)
  // (K(β̃, α̃)) evaluated from the oracle into `scratch` with op = None.
  const la::Matrix<T>& near_block(const tree::Node* beta, std::size_t t,
                                  la::Op& op, la::Matrix<T>& scratch) const;
  const la::Matrix<T>& far_block(const tree::Node* beta, std::size_t t,
                                 la::Op& op, la::Matrix<T>& scratch) const;

  // Workspace pool backing the evaluate() convenience path.
  [[nodiscard]] std::unique_ptr<EvalWorkspace<T>> acquire_workspace() const;
  void release_workspace(std::unique_ptr<EvalWorkspace<T>> ws) const;

  std::shared_ptr<const SPDMatrix<T>> k_;
  Config config_;
  index_t n_;
  index_t num_leaves_ = 0;

  std::unique_ptr<tree::Metric<T>> metric_;
  std::unique_ptr<tree::ClusterTree> tree_;
  tree::NeighborLists neighbors_;
  std::vector<NodeData> data_;

  std::atomic<std::uint64_t> skel_flops_{0};

  CompressionStats stats_;
  mutable std::mutex eval_stats_mutex_;
  mutable EvaluationStats eval_stats_;

  mutable std::mutex pool_mutex_;
  mutable std::vector<std::unique_ptr<EvalWorkspace<T>>> pool_;

  // ULV factors (null until factorize(); immutable afterwards, so const
  // solve()/logdet() are thread-safe).
  std::unique_ptr<UlvFactorization<T>> fact_;
};

extern template class CompressedMatrix<float>;
extern template class CompressedMatrix<double>;

}  // namespace gofmm
