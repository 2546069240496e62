// Evaluation phase u = K̃ w (paper Algorithm 2.7 and Figure 3).
//
// Four task families over the tree:
//   N2S (postorder): skeleton weights   w̃_α = P_α̃α w_α, nested upward.
//   S2S (any order): skeleton potential ũ_β = Σ_{α∈Far(β)} K_β̃α̃ w̃_α.
//   S2N (preorder):  interpolate back   [ũ_l; ũ_r] += P^T ũ_β; at leaves
//                    u_β += P^T ũ_β.
//   L2L (any order): direct blocks      u_β += Σ_{α∈Near(β)} K_βα w_α.
// Three engines execute them: level-synchronous loops, recursive OpenMP
// tasks, or the HEFT DAG runtime with the dependency structure of Fig. 3.
//
// Everything here is const on the compressed matrix: the per-call state
// (tree-ordered rhs/outputs in ws.x/ws.y, per-node skeleton weights and
// potentials in ws.up/ws.down, the flop counter) lives in the caller's
// EvalWorkspace, so concurrent evaluations never touch shared storage.
#include "core/gofmm.hpp"

#include "la/blas.hpp"
#include "la/flops.hpp"
#include "runtime/engines.hpp"
#include "util/timer.hpp"

namespace gofmm {

template <typename T>
void CompressedMatrix<T>::eval_prepare(const la::Matrix<T>& w,
                                       EvalWorkspace<T>& ws) const {
  const index_t r = w.cols();
  // Permute the right-hand sides into tree order once; every task then
  // reads/writes contiguous row blocks.
  ws.x.resize(n_, r);
  const auto& perm = tree_->perm();
  for (index_t j = 0; j < r; ++j) {
    const T* src = w.col(j);
    T* dst = ws.x.col(j);
    for (index_t pos = 0; pos < n_; ++pos)
      dst[pos] = src[perm[std::size_t(pos)]];
  }
  ws.y.resize(n_, r);

  const std::size_t nn = std::size_t(tree_->num_nodes());
  if (ws.up.size() < nn) ws.up.resize(nn);
  if (ws.down.size() < nn) ws.down.resize(nn);
  for (const tree::Node* node : tree_->nodes()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    const index_t s = index_t(nd.skel.size());
    ws.up[std::size_t(node->id)].resize(s, s > 0 ? r : 0);
    ws.down[std::size_t(node->id)].resize(s, s > 0 ? r : 0);
  }
}

template <typename T>
void CompressedMatrix<T>::task_n2s(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  if (nd.skel.empty()) return;
  const index_t r = ws.x.cols();
  la::Matrix<T>& w_skel = ws.up[std::size_t(node->id)];
  if (node->is_leaf()) {
    // w̃ = P_α̃α w_α over the leaf's contiguous rows.
    const la::Matrix<T> wloc = ws.x.block(node->begin, 0, node->count, r);
    la::gemm(la::Op::None, la::Op::None, T(1), nd.proj, wloc, T(0), w_skel);
    ws.flops.fetch_add(
        la::FlopCounter::gemm_flops(nd.proj.rows(), r, nd.proj.cols()),
        std::memory_order_relaxed);
  } else {
    // w̃ = P_α̃[l̃r̃] [w̃_l; w̃_r].
    const la::Matrix<T>& wl = ws.up[std::size_t(node->left()->id)];
    const la::Matrix<T>& wr = ws.up[std::size_t(node->right()->id)];
    la::Matrix<T> stacked(wl.rows() + wr.rows(), r);
    for (index_t j = 0; j < r; ++j) {
      std::copy_n(wl.col(j), wl.rows(), stacked.col(j));
      std::copy_n(wr.col(j), wr.rows(), stacked.col(j) + wl.rows());
    }
    la::gemm(la::Op::None, la::Op::None, T(1), nd.proj, stacked, T(0),
             w_skel);
    ws.flops.fetch_add(
        la::FlopCounter::gemm_flops(nd.proj.rows(), r, nd.proj.cols()),
        std::memory_order_relaxed);
  }
}

template <typename T>
void CompressedMatrix<T>::task_s2s(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  if (nd.skel.empty()) return;
  la::Matrix<T>& u_skel = ws.down[std::size_t(node->id)];
  u_skel.fill(T(0));
  if (nd.far.empty()) return;
  const index_t r = ws.x.cols();
  la::Matrix<T> scratch;
  for (std::size_t t = 0; t < nd.far.size(); ++t) {
    const tree::Node* alpha = nd.far[t];
    const la::Matrix<T>& w_alpha = ws.up[std::size_t(alpha->id)];
    la::Op op;
    const la::Matrix<T>& kba = far_block(node, t, op, scratch);
    la::gemm(op, la::Op::None, T(1), kba, w_alpha, T(1), u_skel);
    ws.flops.fetch_add(
        la::FlopCounter::gemm_flops(kba.rows(), r, kba.cols()),
        std::memory_order_relaxed);
  }
}

template <typename T>
void CompressedMatrix<T>::task_s2n(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  if (nd.skel.empty()) return;
  const index_t r = ws.x.cols();
  const la::Matrix<T>& u_skel = ws.down[std::size_t(node->id)];
  // tmp = P^T ũ_β.
  la::Matrix<T> tmp(nd.proj.cols(), r);
  la::gemm(la::Op::Trans, la::Op::None, T(1), nd.proj, u_skel, T(0), tmp);
  ws.flops.fetch_add(
      la::FlopCounter::gemm_flops(nd.proj.cols(), r, nd.proj.rows()),
      std::memory_order_relaxed);
  if (node->is_leaf()) {
    // Accumulate into the leaf's output rows.
    for (index_t j = 0; j < r; ++j) {
      T* dst = ws.y.col(j) + node->begin;
      const T* src = tmp.col(j);
      for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
    }
  } else {
    // Split into the children's skeleton potentials.
    la::Matrix<T>& ul = ws.down[std::size_t(node->left()->id)];
    la::Matrix<T>& ur = ws.down[std::size_t(node->right()->id)];
    for (index_t j = 0; j < r; ++j) {
      const T* src = tmp.col(j);
      T* dl = ul.col(j);
      for (index_t i = 0; i < ul.rows(); ++i) dl[i] += src[i];
      T* dr = ur.col(j);
      for (index_t i = 0; i < ur.rows(); ++i) dr[i] += src[ul.rows() + i];
    }
  }
}

template <typename T>
void CompressedMatrix<T>::task_l2l(const tree::Node* node,
                                   EvalWorkspace<T>& ws) const {
  const NodeData& nd = data_[std::size_t(node->id)];
  const index_t r = ws.x.cols();
  la::Matrix<T> acc(node->count, r);
  la::Matrix<T> scratch;
  for (std::size_t t = 0; t < nd.near.size(); ++t) {
    const tree::Node* alpha = nd.near[t];
    la::Op op;
    const la::Matrix<T>& kba = near_block(node, t, op, scratch);
    const la::Matrix<T> wloc = ws.x.block(alpha->begin, 0, alpha->count, r);
    la::gemm(op, la::Op::None, T(1), kba, wloc, T(1), acc);
    ws.flops.fetch_add(
        la::FlopCounter::gemm_flops(kba.rows(), r, kba.cols()),
        std::memory_order_relaxed);
  }
  for (index_t j = 0; j < r; ++j) {
    T* dst = ws.y.col(j) + node->begin;
    const T* src = acc.col(j);
    for (index_t i = 0; i < node->count; ++i) dst[i] += src[i];
  }
}

template <typename T>
void CompressedMatrix<T>::eval_with_levels(EvalWorkspace<T>& ws) const {
  // Level-synchronous engine: barriers between phases and between levels.
  rt::level_bottom_up(tree_->levels(),
                      [&](const tree::Node* n) { task_n2s(n, ws); });
  rt::any_order(tree_->nodes(), [&](const tree::Node* n) { task_s2s(n, ws); });
  rt::level_top_down(tree_->levels(),
                     [&](const tree::Node* n) { task_s2n(n, ws); });
  rt::any_order(tree_->leaves(),
                [&](const tree::Node* n) { task_l2l(n, ws); });
}

template <typename T>
void CompressedMatrix<T>::eval_with_omp_tasks(EvalWorkspace<T>& ws) const {
  // The paper's `omp task` scheme: recursive task traversals with
  // taskwait barriers; cross-phase dependencies (N2S→S2S) cannot be
  // expressed, so a barrier separates the phases.
  auto n2s = [&](const tree::Node* n) { task_n2s(n, ws); };
  rt::omp_postorder(tree_->root(), n2s);
  rt::any_order(tree_->nodes(), [&](const tree::Node* n) { task_s2s(n, ws); });
  auto s2n = [&](const tree::Node* n) { task_s2n(n, ws); };
  rt::omp_preorder(tree_->root(), s2n);
  rt::any_order(tree_->leaves(),
                [&](const tree::Node* n) { task_l2l(n, ws); });
}

template <typename T>
void CompressedMatrix<T>::eval_with_heft(EvalWorkspace<T>& ws) const {
  // Out-of-order engine: the full dependency DAG of Figure 3. RAW edges:
  //   N2S(α) ← N2S(l), N2S(r)                  (nested weights)
  //   S2S(β) ← N2S(α) for every α ∈ Far(β)     (reads w̃_α)
  //   S2N(β) ← S2S(β)                          (reads ũ_β)
  //   S2N(β) ← S2N(parent β)                   (parent adds into ũ_β)
  //   S2N(parent β) ← S2S(β)                   (orders the two writers)
  //   S2N(leaf β) ← L2L(β)                     (both write u rows of β)
  const index_t r = ws.x.cols();
  rt::TaskGraph graph;
  const std::size_t nn = std::size_t(tree_->num_nodes());
  std::vector<rt::Task*> n2s_of(nn, nullptr);
  std::vector<rt::Task*> s2s_of(nn, nullptr);
  std::vector<rt::Task*> s2n_of(nn, nullptr);
  std::vector<rt::Task*> l2l_of(nn, nullptr);

  for (const tree::Node* node : tree_->postorder()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    if (nd.skel.empty()) continue;
    const double s = double(nd.skel.size());
    rt::Task* t = graph.emplace([this, node, &ws](int) { task_n2s(node, ws); },
                                2.0 * s * double(nd.proj.cols()) * double(r),
                                "N2S#" + std::to_string(node->id));
    n2s_of[std::size_t(node->id)] = t;
    if (!node->is_leaf()) {
      if (auto* c = n2s_of[std::size_t(node->left()->id)])
        graph.add_edge(c, t);
      if (auto* c = n2s_of[std::size_t(node->right()->id)])
        graph.add_edge(c, t);
    }
  }

  for (const tree::Node* node : tree_->nodes()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    if (nd.skel.empty()) continue;
    double cost = 0;
    for (const tree::Node* alpha : nd.far)
      cost += 2.0 * double(nd.skel.size()) *
              double(data_[std::size_t(alpha->id)].skel.size()) * double(r);
    rt::Task* t = graph.emplace([this, node, &ws](int) { task_s2s(node, ws); },
                                std::max(1.0, cost),
                                "S2S#" + std::to_string(node->id));
    s2s_of[std::size_t(node->id)] = t;
    for (const tree::Node* alpha : nd.far)
      if (auto* dep = n2s_of[std::size_t(alpha->id)]) graph.add_edge(dep, t);
  }

  for (const tree::Node* node : tree_->leaves()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    double cost = 0;
    for (const tree::Node* alpha : nd.near)
      cost += 2.0 * double(node->count) * double(alpha->count) * double(r);
    l2l_of[std::size_t(node->id)] =
        graph.emplace([this, node, &ws](int) { task_l2l(node, ws); },
                      std::max(1.0, cost), "L2L#" + std::to_string(node->id));
  }

  // Preorder so the parent's S2N task exists before the children's.
  for (const tree::Node* node : tree_->nodes()) {
    const NodeData& nd = data_[std::size_t(node->id)];
    if (nd.skel.empty()) continue;
    rt::Task* t = graph.emplace(
        [this, node, &ws](int) { task_s2n(node, ws); },
        2.0 * double(nd.skel.size()) * double(nd.proj.cols()) * double(r),
        "S2N#" + std::to_string(node->id));
    s2n_of[std::size_t(node->id)] = t;
    if (auto* own_s2s = s2s_of[std::size_t(node->id)])
      graph.add_edge(own_s2s, t);
    if (node->parent != nullptr) {
      if (auto* p = s2n_of[std::size_t(node->parent->id)]) {
        graph.add_edge(p, t);
        // The parent S2N writes ũ of this node; order it after our S2S.
        if (auto* own_s2s = s2s_of[std::size_t(node->id)])
          graph.add_edge(own_s2s, p);
      }
    }
    if (node->is_leaf()) {
      if (auto* l = l2l_of[std::size_t(node->id)]) graph.add_edge(l, t);
    }
  }

  rt::Scheduler sched(config_.num_workers);
  sched.run(graph);
}

template <typename T>
la::Matrix<T> CompressedMatrix<T>::do_apply(const la::Matrix<T>& w,
                                            EvalWorkspace<T>& ws) const {
  eval_prepare(w, ws);

  switch (config_.engine) {
    case rt::Engine::LevelByLevel:
      eval_with_levels(ws);
      break;
    case rt::Engine::OmpTask:
      eval_with_omp_tasks(ws);
      break;
    case rt::Engine::Heft:
      eval_with_heft(ws);
      break;
  }

  // Un-permute the accumulated result.
  la::Matrix<T> u(n_, w.cols());
  const auto& perm = tree_->perm();
  for (index_t j = 0; j < w.cols(); ++j) {
    const T* src = ws.y.col(j);
    T* dst = u.col(j);
    for (index_t pos = 0; pos < n_; ++pos)
      dst[perm[std::size_t(pos)]] = src[pos];
  }
  return u;
}

template <typename T>
la::Matrix<T> CompressedMatrix<T>::evaluate(const la::Matrix<T>& w) const {
  std::unique_ptr<EvalWorkspace<T>> ws = acquire_workspace();
  la::Matrix<T> u = this->apply(w, *ws);
  {
    std::lock_guard<std::mutex> lock(eval_stats_mutex_);
    eval_stats_ = ws->last;
  }
  release_workspace(std::move(ws));
  return u;
}

template void CompressedMatrix<float>::eval_prepare(
    const la::Matrix<float>&, EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_prepare(
    const la::Matrix<double>&, EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_n2s(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_n2s(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_s2s(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_s2s(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_s2n(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_s2n(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::task_l2l(const tree::Node*,
                                                EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::task_l2l(const tree::Node*,
                                                 EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::eval_with_levels(
    EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_with_levels(
    EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::eval_with_omp_tasks(
    EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_with_omp_tasks(
    EvalWorkspace<double>&) const;
template void CompressedMatrix<float>::eval_with_heft(
    EvalWorkspace<float>&) const;
template void CompressedMatrix<double>::eval_with_heft(
    EvalWorkspace<double>&) const;
template la::Matrix<float> CompressedMatrix<float>::do_apply(
    const la::Matrix<float>&, EvalWorkspace<float>&) const;
template la::Matrix<double> CompressedMatrix<double>::do_apply(
    const la::Matrix<double>&, EvalWorkspace<double>&) const;
template la::Matrix<float> CompressedMatrix<float>::evaluate(
    const la::Matrix<float>&) const;
template la::Matrix<double> CompressedMatrix<double>::evaluate(
    const la::Matrix<double>&) const;

}  // namespace gofmm
