// Shared ULV factorization engine over the backend-neutral HssView (see
// factorization.hpp for the algebra). Two elimination structures:
//
// ORTHOGONAL (Nested views). Per node the stacked parent-facing basis is
// QR-factored ONCE, V = Q [R; 0]; rotating the node's block by Qᵀ(·)Q
// zeroes the off-diagonal coupling below the leading r rows, the trailing
// rotated block Ĝ is eliminated by a dense factorization, and the kept
// rows pass a Schur complement plus the reduced basis R upward, where the
// reduced coupling is B̃ = R_l B R_rᵀ. Because Qᵀ(A + λI)Q = QᵀAQ + λI,
// the rotations, rotated leaf blocks, and reduced couplings are all
// λ-independent — refactorize(λ') re-factors only rotated diagonal blocks.
//
// WOODBURY (Explicit views, or forced). Bottom-up block elimination:
// leaves are factored exactly, every interior node folds its children's
// sibling coupling in with a Woodbury capacitance system
//
//   C = I + blkdiag(S_l, S_r) M,   M = [[0, B], [Bᵀ, 0]],
//
// and the per-node solve operators Φ and Grams S telescope upward (Nested
// views) or come from subtree solves (Explicit views).
//
// Both paths are λ-oblivious about where their inputs come from: during
// construction every payload is fetched from the view and cached;
// refactorize(λ') reruns IDENTICAL code against the cache, so a retune is
// bit-identical to a fresh factorization with zero oracle or view work.
#include "core/factorization.hpp"

#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <numeric>
#include <type_traits>

#include "core/solvers.hpp"
#include "la/blas.hpp"
#include "la/flops.hpp"
#include "la/lapack.hpp"
#include "la/ldlt.hpp"
#include "la/qr.hpp"
#include "util/timer.hpp"

namespace gofmm {

namespace {

constexpr std::uint64_t chol_flops(index_t n) {
  return std::uint64_t(n) * std::uint64_t(n) * std::uint64_t(n) / 3;
}

constexpr std::uint64_t getrf_flops(index_t n) {
  return 2ull * std::uint64_t(n) * std::uint64_t(n) * std::uint64_t(n) / 3;
}

/// out rows [row0, row0+src.rows()) = src.
template <typename T>
void put_rows(la::Matrix<T>& out, index_t row0, const la::Matrix<T>& src) {
  for (index_t j = 0; j < src.cols(); ++j)
    std::copy_n(src.col(j), src.rows(), out.col(j) + row0);
}

template <typename T>
void symmetrize(la::Matrix<T>& s) {
  for (index_t j = 0; j < s.cols(); ++j)
    for (index_t i = 0; i < j; ++i) {
      const T avg = (s(i, j) + s(j, i)) / T(2);
      s(i, j) = avg;
      s(j, i) = avg;
    }
}

/// Assembles an interior node's reduced block [[D_l, B̃], [B̃ᵀ, D_r]] from
/// its children's kept diagonal blocks (kl-by-kl / kr-by-kr) and the
/// cached reduced coupling (absent: block-diagonal assembly).
template <typename T>
la::Matrix<T> assemble_reduced(index_t kl, index_t kr, const la::Matrix<T>& dl,
                               const la::Matrix<T>& dr,
                               const la::Matrix<T>* bt) {
  la::Matrix<T> a(kl + kr, kl + kr);
  for (index_t j = 0; j < kl; ++j) std::copy_n(dl.col(j), kl, a.col(j));
  for (index_t j = 0; j < kr; ++j)
    std::copy_n(dr.col(j), kr, a.col(kl + j) + kl);
  if (bt != nullptr) {
    for (index_t j = 0; j < kr; ++j)
      std::copy_n(bt->col(j), kl, a.col(kl + j));
    for (index_t j = 0; j < kl; ++j)
      for (index_t i = 0; i < kr; ++i) a(kl + i, j) = (*bt)(j, i);
  }
  return a;
}

/// HssView<float> adapter over a higher-precision view: the topology and
/// permutation are copied verbatim, every payload fetch (leaf diagonal,
/// basis, coupling) is demoted element-wise. The engine reads a view only
/// during construction, so the adapter lives on the constructor's stack —
/// this is how Precision::MixedF32 reuses the entire float engine with
/// zero backend changes. An empty coupling() stays empty (the B = I
/// convention survives demotion).
template <typename T>
class DemotedHssView final : public HssView<float> {
 public:
  explicit DemotedHssView(const HssView<T>& src) : src_(src) {
    this->n_ = src.size();
    this->root_ = src.root();
    this->topo_ = src.nodes();
    this->perm_ = src.perm();
  }
  [[nodiscard]] la::Matrix<float> leaf_diag(index_t id) const override {
    return la::convert<float>(src_.leaf_diag(id));
  }
  [[nodiscard]] index_t basis_rank(index_t id) const override {
    return src_.basis_rank(id);
  }
  [[nodiscard]] BasisKind basis_kind(index_t id) const override {
    return src_.basis_kind(id);
  }
  [[nodiscard]] la::Matrix<float> basis(index_t id) const override {
    return la::convert<float>(src_.basis(id));
  }
  [[nodiscard]] la::Matrix<float> coupling(index_t id) const override {
    return la::convert<float>(src_.coupling(id));
  }

 private:
  const HssView<T>& src_;
};

}  // namespace

// ======================================================================
// Construction: topology snapshot, mode resolution, first elimination.
// ======================================================================

template <typename T>
void UlvFactorization<T>::snapshot_topology(const HssView<T>& view) {
  n_ = view.size();
  root_ = view.root();
  topo_ = view.nodes();
  perm_ = view.perm();
  check<Error>(perm_.empty() || index_t(perm_.size()) == n_,
               "UlvFactorization: view permutation has wrong length");

  // Group node ids by depth for the level-synchronous solve sweeps.
  index_t max_level = 0;
  for (const HssTopoNode& nd : topo_)
    max_level = std::max(max_level, nd.level);
  levels_.assign(std::size_t(max_level) + 1, {});
  for (const HssTopoNode& nd : topo_)
    levels_[std::size_t(nd.level)].push_back(nd.id);

  // Iterative postorder (children before parents), kept for refactorize().
  post_.reserve(topo_.size());
  {
    std::vector<index_t> stack{root_};
    while (!stack.empty()) {
      const index_t id = stack.back();
      stack.pop_back();
      post_.push_back(id);
      const HssTopoNode& nd = topo_[std::size_t(id)];
      if (!nd.is_leaf()) {
        stack.push_back(nd.left);
        stack.push_back(nd.right);
      }
    }
    std::reverse(post_.begin(), post_.end());
  }

  // Per-node subtree depth (1 at leaves), for the explicit-basis flop
  // accounting — trees with uneven leaf depths must not be overcharged.
  subtree_depth_.assign(topo_.size(), 1);
  declared_rank_.assign(topo_.size(), 0);
  basis_kind_.assign(topo_.size(), BasisKind::Nested);
  for (const index_t id : post_) {
    const HssTopoNode& nd = topo_[std::size_t(id)];
    if (!nd.is_leaf())
      subtree_depth_[std::size_t(id)] =
          1 + std::max(subtree_depth_[std::size_t(nd.left)],
                       subtree_depth_[std::size_t(nd.right)]);
    declared_rank_[std::size_t(id)] = view.basis_rank(id);
    basis_kind_[std::size_t(id)] = view.basis_kind(id);
  }
}

template <typename T>
UlvFactorization<T>::UlvFactorization(const HssView<T>& view, T regularization,
                                      FactorizeOptions options)
    : options_(options) {
  Timer timer;

  // Precision normalisation / the mixed-precision delegate. On a float
  // operator MixedF32 IS the native path, so it collapses to Double. On a
  // double operator MixedF32 builds the whole factorization as an internal
  // UlvFactorization<float> over a payload-demoting view adapter: bases,
  // couplings, rotations and rotated leaf blocks are all resident in float
  // (~2x fewer bytes), while solve() promotes results back to double and
  // callers recover double accuracy through refined_solve().
  if constexpr (std::is_same_v<T, float>) {
    options_.precision = Precision::Double;
  } else {
    if (options_.precision == Precision::MixedF32) {
      snapshot_topology(view);
      const DemotedHssView<T> demoted(view);
      FactorizeOptions low_options = options_;
      low_options.precision = Precision::Double;
      low_ = std::make_unique<UlvFactorization<float>>(
          demoted, float(regularization), low_options);
      adopt_low_stats(regularization);
      stats_.seconds = timer.seconds();
      return;
    }
  }

  snapshot_topology(view);

  bool all_nested = true;
  for (const BasisKind kind : basis_kind_)
    if (kind == BasisKind::Explicit) all_nested = false;
  check<Error>(options.mode != UlvMode::Orthogonal || all_nested,
               "UlvFactorization: UlvMode::Orthogonal requires nested bases "
               "(Explicit/HODLR views eliminate through UlvMode::Woodbury)");
  mode_ = options.mode == UlvMode::Woodbury
              ? UlvMode::Woodbury
              : (all_nested ? UlvMode::Orthogonal : UlvMode::Woodbury);

  if (mode_ == UlvMode::Orthogonal) {
    on_.assign(topo_.size(), ONode{});
    slots_.assign(topo_.size(), {});
    build_orthogonal(view);
    const std::uint64_t build_flops = stats_.flops;  // λ-independent work
    eliminate_orthogonal(regularization);
    stats_.flops += build_flops;
  } else {
    fn_.assign(topo_.size(), FNode{});
    cache_.assign(topo_.size(), PayloadCache{});
    // First elimination: view_ is live, so payload reads fetch-and-cache.
    view_ = &view;
    eliminate_woodbury(regularization);
    view_ = nullptr;
  }
  stats_.seconds = timer.seconds();
}

template <typename T>
void UlvFactorization<T>::refactorize(T regularization) {
  if (low_ != nullptr) {
    Timer timer;
    low_->refactorize(float(regularization));
    adopt_low_stats(regularization);
    stats_.seconds = timer.seconds();
    return;
  }
  Timer timer;
  if (mode_ == UlvMode::Orthogonal)
    eliminate_orthogonal(regularization);
  else
    eliminate_woodbury(regularization);
  stats_.seconds = timer.seconds();
  stats_.num_refactorizations += 1;
}

template <typename T>
void UlvFactorization<T>::adopt_low_stats(T regularization) {
  // Mirror the float engine's state so every double-facing accessor
  // (stats, logdet, inertia, mode) reports the mixed factorization
  // without consulting low_ again. num_refactorizations rides along from
  // low_'s own counter; memory_bytes already reflects sizeof(float).
  stats_ = low_->stats();
  stats_.precision = Precision::MixedF32;
  stats_.regularization = double(regularization);
  mode_ = low_->mode();
  logdet_ = low_->log_abs_det();
  det_sign_ = low_->det_sign();
  negative_total_ = stats_.negative_eigenvalues;
  leaf_negative_ = stats_.leaf_negative_eigenvalues;
}

// ======================================================================
// Shared λ-dependent bookkeeping.
// ======================================================================

template <typename T>
void UlvFactorization<T>::reset_lambda_stats(T regularization) {
  check<Error>(std::isfinite(double(regularization)),
               "factorize: regularization must be finite");
  stats_.regularization = double(regularization);
  stats_.flops = 0;
  stats_.num_couplings = 0;
  stats_.max_coupling_size = 0;
  stats_.ldlt_leaves = 0;
  logdet_ = 0;
  det_sign_ = 1;
  negative_total_ = 0;
  leaf_negative_ = 0;
}

template <typename T>
void UlvFactorization<T>::finish_stats() {
  stats_.orthogonal = mode_ == UlvMode::Orthogonal;
  stats_.exact_inertia = stats_.orthogonal;
  if (stats_.orthogonal) {
    // Orthogonal similarity preserves inertia and the Schur chain adds it
    // (Haynsworth): the block inertias ARE the operator inertia. The leaf
    // field reports the exact total too — a full-rank leaf eliminates
    // nothing at leaf level, so its inertia surfaces in ancestor blocks,
    // and the exact total is the strictly stronger indefiniteness signal.
    stats_.leaf_negative_eigenvalues = negative_total_;
    stats_.negative_eigenvalues = negative_total_;
    stats_.positive_definite = negative_total_ == 0 && det_sign_ > 0;
  } else {
    stats_.leaf_negative_eigenvalues = leaf_negative_;
    // A leaf with a negative LDLᵀ eigenvalue is a principal submatrix of
    // the regularized operator, so (Cauchy interlacing) the operator is
    // indefinite; an even count of sign flips in the capacitance LUs can
    // still hide indefiniteness, hence the inverse-power probe callers run
    // on top (make_preconditioner).
    stats_.negative_eigenvalues = leaf_negative_;
    stats_.positive_definite = det_sign_ > 0 && leaf_negative_ == 0;
  }
  stats_.memory_bytes = 0;
  for (const FNode& f : fn_) {
    stats_.memory_bytes +=
        std::uint64_t(f.leaf_fac.size() + f.v.size() + f.phi.size() +
                      f.s.size() + f.coupling.size() + f.cap.size()) *
        sizeof(T);
    stats_.memory_bytes +=
        std::uint64_t(f.cap_pivots.size() + f.leaf_pivots.size()) *
        sizeof(index_t);
  }
  for (const ONode& o : on_) {
    stats_.memory_bytes +=
        std::uint64_t(o.rk.size() + o.a0.size() + o.bt.size() +
                      o.qtop.size() + o.qbot.size() + o.base0.size() +
                      o.qq_l.size() + o.qq_r.size() + o.u_l.size() +
                      o.u_r.size() + o.gfac.size() + o.fhat.size() +
                      o.w.size() + o.schur.size()) *
        sizeof(T);
    // qf.size() covers vr + tau + the cached compact-WY V/T panels.
    stats_.memory_bytes += o.qf.size() * sizeof(T) +
                           std::uint64_t(o.gpiv.size()) * sizeof(index_t);
  }
  for (const std::vector<index_t>& s : slots_)
    stats_.memory_bytes += std::uint64_t(s.size()) * sizeof(index_t);
  for (const PayloadCache& c : cache_)
    stats_.memory_bytes +=
        std::uint64_t(c.leaf_k.size() + c.transfer.size()) * sizeof(T);
}

template <typename T>
void UlvFactorization<T>::factor_block(la::Matrix<T>& block,
                                       std::vector<index_t>& pivots,
                                       OrthoTally& tally) const {
  const index_t n = block.rows();
  pivots.clear();
  if (n == 0) return;
  bool use_ldlt = options_.elimination == Elimination::PivotedLdlt;
  la::Matrix<T> saved;
  if (!use_ldlt) {
    saved = block;  // potrf partially overwrites on failure
    if (la::potrf_lower(block)) {
      for (index_t i = 0; i < n; ++i)
        tally.logdet += 2.0 * std::log(double(block(i, i)));
    } else {
      check<StateError>(options_.elimination != Elimination::Cholesky,
                        "UlvFactorization: eliminated diagonal block not "
                        "positive definite; increase the regularization or "
                        "use Elimination::Auto / PivotedLdlt");
      block = std::move(saved);
      use_ldlt = true;
    }
  }
  if (use_ldlt) {
    check<StateError>(la::sytrf_lower(block, pivots),
                      "UlvFactorization: eliminated diagonal block is "
                      "exactly singular at this regularization; adjust "
                      "lambda");
    const la::LdltInertia inertia = la::ldlt_inertia(block, pivots);
    tally.logdet += inertia.log_abs_det;
    tally.sign *= inertia.sign;
    tally.negative += inertia.negative;
    tally.ldlt = true;
  }
  tally.flops += chol_flops(n);
}

template <typename T>
void UlvFactorization<T>::block_solve(const la::Matrix<T>& fac,
                                      const std::vector<index_t>& pivots,
                                      la::Matrix<T>& b) {
  if (pivots.empty())
    la::chol_solve(fac, b);
  else
    la::sytrs_lower(fac, pivots, b);
}

// ======================================================================
// Orthogonal elimination: λ-independent structure build.
// ======================================================================

template <typename T>
void UlvFactorization<T>::build_orthogonal(const HssView<T>& view) {
  stats_.flops = 0;
  for (const index_t id : post_) {
    const HssTopoNode& nd = topo_[std::size_t(id)];
    ONode& o = on_[std::size_t(id)];
    if (nd.is_leaf()) {
      o.dim = nd.count;
      la::Matrix<T> k0 = view.leaf_diag(id);
      check<StateError>(k0.rows() == nd.count && k0.cols() == nd.count,
                        "UlvFactorization: leaf diagonal block has wrong "
                        "shape");
      const index_t r = declared_rank_[std::size_t(id)];
      if (r > 0) {
        check<StateError>(r <= nd.count,
                          "UlvFactorization: leaf basis rank exceeds the "
                          "leaf size");
        la::Matrix<T> basis = view.basis(id);
        check<StateError>(basis.rows() == nd.count && basis.cols() == r,
                          "UlvFactorization: leaf basis has wrong shape");
        o.qf = la::qr_factorize(std::move(basis));
        o.rk = la::qr_extract_r(o.qf);
        o.kept = r;
        stats_.flops += la::geqrt_flops(nd.count, r);
        // a0 = Qᵀ K(β,β) Q: apply Qᵀ, transpose (K symmetric), apply Qᵀ.
        la::ormqr_left(la::Op::Trans, o.qf, k0);
        la::Matrix<T> kt = k0.transposed();
        la::ormqr_left(la::Op::Trans, o.qf, kt);
        symmetrize(kt);
        o.a0 = std::move(kt);
        stats_.flops += 2 * la::ormqr_flops(nd.count, r, nd.count);
      } else {
        o.kept = 0;
        o.a0 = std::move(k0);
      }
      o.a0_cached = true;
      // A full-rank leaf eliminates nothing: its Schur complement is
      // exactly a0 + λI — the base of the λ-linear frontier.
      o.shifted = o.kept == o.dim;
      continue;
    }

    const ONode& ol = on_[std::size_t(nd.left)];
    const ONode& orr = on_[std::size_t(nd.right)];
    const index_t kl = ol.kept;
    const index_t kr = orr.kept;
    o.dim = kl + kr;
    const bool complete_l = kl == declared_rank_[std::size_t(nd.left)];
    const bool complete_r = kr == declared_rank_[std::size_t(nd.right)];
    o.coupled = complete_l && complete_r && kl > 0 && kr > 0;

    if (o.coupled) {
      // Reduced coupling B̃ = R_l B R_rᵀ (λ-independent). An EMPTY coupling
      // payload means B = I by convention (see HssView::coupling), so B̃
      // collapses to R_l R_rᵀ.
      la::Matrix<T> b = view.coupling(id);
      if (b.empty()) {
        check<StateError>(kl == kr,
                          "UlvFactorization: identity coupling (empty "
                          "coupling()) requires equal child ranks");
        o.bt.resize(kl, kr);
        la::gemm(la::Op::None, la::Op::Trans, T(1), ol.rk, orr.rk, T(0), o.bt);
      } else {
        check<StateError>(b.rows() == kl && b.cols() == kr,
                          "UlvFactorization: coupling block has wrong shape");
        la::Matrix<T> brt(kl, kr);
        la::gemm(la::Op::None, la::Op::Trans, T(1), b, orr.rk, T(0), brt);
        o.bt.resize(kl, kr);
        la::gemm(la::Op::None, la::Op::None, T(1), ol.rk, brt, T(0), o.bt);
        stats_.flops += 2 * la::FlopCounter::gemm_flops(kl, kr, kr);
      }
    }

    // Parent-facing reduced basis Ṽ_p = [R_l E_top; R_r E_bot], QR'd once.
    const index_t rp = declared_rank_[std::size_t(id)];
    const bool keeps = nd.parent != HssTopoNode::kNone && rp > 0 &&
                       complete_l && complete_r && o.dim > 0;
    if (keeps) {
      const la::Matrix<T> e = view.basis(id);
      check<StateError>(e.rows() == kl + kr && e.cols() == rp,
                        "UlvFactorization: projection/basis rank mismatch");
      check<StateError>(rp <= o.dim,
                        "UlvFactorization: basis rank exceeds the reduced "
                        "dimension");
      la::Matrix<T> vt(o.dim, rp);
      if (kl > 0) {
        const la::Matrix<T> e_top = e.block(0, 0, kl, rp);
        la::Matrix<T> t(kl, rp);
        la::gemm(la::Op::None, la::Op::None, T(1), ol.rk, e_top, T(0), t);
        put_rows(vt, 0, t);
      }
      if (kr > 0) {
        const la::Matrix<T> e_bot = e.block(kl, 0, kr, rp);
        la::Matrix<T> t(kr, rp);
        la::gemm(la::Op::None, la::Op::None, T(1), orr.rk, e_bot, T(0), t);
        put_rows(vt, kl, t);
      }
      o.qf = la::qr_factorize(std::move(vt));
      o.rk = la::qr_extract_r(o.qf);
      o.kept = rp;
      stats_.flops += la::geqrt_flops(o.dim, rp);
    } else {
      o.kept = 0;
    }

    // λ-linear frontier caching: when every CONTRIBUTING child is shifted
    // (its Schur is exactly a0 + λI), this node's assembled block is
    // A₀ + λI with A₀ fixed — rotate and cache A₀ now, and the retune
    // skips this node's assembly and rotation entirely. Otherwise the
    // rotation is unavoidably per-λ, so materialise dense Q once: the
    // retune's Qᵀ A Q then runs as two large GEMMs.
    const bool lchild_ok = kl == 0 || ol.shifted;
    const bool rchild_ok = kr == 0 || orr.shifted;
    o.a0_cached = o.dim > 0 && lchild_ok && rchild_ok;
    if (o.a0_cached) {
      la::Matrix<T> a = assemble_reduced(kl, kr, ol.a0, orr.a0,
                                         o.coupled ? &o.bt : nullptr);
      if (o.kept > 0) {
        la::ormqr_left(la::Op::Trans, o.qf, a);
        la::Matrix<T> at = a.transposed();
        la::ormqr_left(la::Op::Trans, o.qf, at);
        symmetrize(at);
        a = std::move(at);
        stats_.flops += 2 * la::ormqr_flops(o.dim, o.kept, o.dim);
      }
      o.a0 = std::move(a);
    } else if (o.kept > 0) {
      la::Matrix<T> qdense = la::Matrix<T>::identity(o.dim);
      la::ormqr_left(la::Op::None, o.qf, qdense);
      stats_.flops += la::ormqr_flops(o.dim, o.kept, o.dim);
      o.qtop = qdense.block(0, 0, kl, o.dim);
      o.qbot = qdense.block(kl, 0, kr, o.dim);
      // Per-child rotation strategy, fixed at build so every retune is
      // bit-identical: a child with a cached rotated block and a thin
      // eliminated set (elim < kept) takes the low-rank shortcut — its E₀
      // folds into base0, λ enters through the cached Gram QᵢᵀQᵢ, and the
      // per-λ work is a rank-elim downdate. Everything else pays the
      // dense split rotation per λ.
      auto pick_lowrank = [](const ONode& c) {
        return c.a0_cached && (c.dim - c.kept) < c.kept;
      };
      o.lowrank_l = kl > 0 && pick_lowrank(ol);
      o.lowrank_r = kr > 0 && pick_lowrank(orr);
      // base0 = Qᵀ M₀ Q with M₀ the λ-independent part of the reduced
      // system: the coupling plus every low-rank child's E₀ block.
      if (o.coupled || o.lowrank_l || o.lowrank_r) {
        la::Matrix<T> m0(o.dim, o.dim);
        if (o.lowrank_l)
          for (index_t j = 0; j < kl; ++j)
            std::copy_n(ol.a0.col(j), kl, m0.col(j));
        if (o.lowrank_r)
          for (index_t j = 0; j < kr; ++j)
            std::copy_n(orr.a0.col(j), kr, m0.col(kl + j) + kl);
        if (o.coupled) {
          for (index_t j = 0; j < kr; ++j)
            std::copy_n(o.bt.col(j), kl, m0.col(kl + j));
          for (index_t j = 0; j < kl; ++j)
            for (index_t i = 0; i < kr; ++i) m0(kl + i, j) = o.bt(j, i);
        }
        la::ormqr_left(la::Op::Trans, o.qf, m0);
        la::Matrix<T> m0t = m0.transposed();
        la::ormqr_left(la::Op::Trans, o.qf, m0t);
        symmetrize(m0t);
        o.base0 = std::move(m0t);
        stats_.flops += 2 * la::ormqr_flops(o.dim, o.kept, o.dim);
      }
      auto build_lowrank = [&](const ONode& c, const la::Matrix<T>& qi,
                               la::Matrix<T>& qq, la::Matrix<T>& u) {
        qq.resize(o.dim, o.dim);
        la::gemm(la::Op::Trans, la::Op::None, T(1), qi, qi, T(0), qq);
        stats_.flops += la::FlopCounter::gemm_flops(o.dim, o.dim, c.kept);
        const index_t ce = c.dim - c.kept;
        if (ce > 0) {
          const la::Matrix<T> f0 = c.a0.block(0, c.kept, c.kept, ce);
          u.resize(o.dim, ce);
          la::gemm(la::Op::Trans, la::Op::None, T(1), qi, f0, T(0), u);
          stats_.flops += la::FlopCounter::gemm_flops(o.dim, ce, c.kept);
        }
      };
      if (o.lowrank_l) build_lowrank(ol, o.qtop, o.qq_l, o.u_l);
      if (o.lowrank_r) build_lowrank(orr, o.qbot, o.qq_r, o.u_r);
    }
    o.shifted = o.a0_cached && o.kept == o.dim;
  }

  // Dense-Schur demand: a node must materialise its Schur complement per
  // λ only when its parent reads it as a dense block — the unrotated
  // assembly of a kept-0 parent, or the split-rotation side of a rotated
  // one. Shifted and low-rank children are read through caches instead.
  for (const index_t id : post_) {
    const HssTopoNode& nd = topo_[std::size_t(id)];
    if (nd.is_leaf()) continue;
    const ONode& o = on_[std::size_t(id)];
    if (o.a0_cached) continue;  // read through child a0 caches at build
    ONode& ol = on_[std::size_t(nd.left)];
    ONode& orr = on_[std::size_t(nd.right)];
    if (ol.kept > 0 && !ol.shifted && !(o.kept > 0 && o.lowrank_l))
      ol.schur_needed = true;
    if (orr.kept > 0 && !orr.shifted && !(o.kept > 0 && o.lowrank_r))
      orr.schur_needed = true;
  }

  // Solve slot lists: an interior node's reduced system lives on its
  // children's kept workspace rows (left block first). A leaf's kept rows
  // are simply the first `kept` rows of its contiguous range.
  for (const index_t id : post_) {
    const HssTopoNode& nd = topo_[std::size_t(id)];
    if (nd.is_leaf()) continue;
    std::vector<index_t>& s = slots_[std::size_t(id)];
    s.reserve(std::size_t(on_[std::size_t(id)].dim));
    for (const index_t cid : {nd.left, nd.right}) {
      const HssTopoNode& cn = topo_[std::size_t(cid)];
      const index_t ck = on_[std::size_t(cid)].kept;
      if (cn.is_leaf()) {
        for (index_t i = 0; i < ck; ++i) s.push_back(cn.row_begin + i);
      } else {
        const std::vector<index_t>& cs = slots_[std::size_t(cid)];
        s.insert(s.end(), cs.begin(), cs.begin() + ck);
      }
    }
  }
}

// ======================================================================
// Orthogonal elimination: λ-dependent block factorization.
// ======================================================================

template <typename T>
void UlvFactorization<T>::eliminate_orthogonal(T regularization) {
  reset_lambda_stats(regularization);
  // Level-synchronous parallel elimination: nodes of a level depend only
  // on the (finished) level below and write only their own factors and
  // tally, so they run under an OpenMP parallel-for with a barrier per
  // level. The tallies fold in FIXED postorder afterwards, keeping
  // logdet's floating-point summation order — and therefore every result
  // bit — independent of thread count and schedule. A block that refuses
  // to eliminate records its exception instead of throwing across the
  // omp region; the first failure in postorder is rethrown with its
  // original type intact (StateError stays StateError, bad_alloc stays
  // bad_alloc), deterministically.
  std::vector<OrthoTally> tally(topo_.size());
  std::vector<std::exception_ptr> errors(topo_.size());
  std::atomic<bool> failed{false};
  for (index_t d = index_t(levels_.size()) - 1; d >= 0; --d) {
    const std::vector<index_t>& level = levels_[std::size_t(d)];
    // Narrow levels (1-2 big nodes near the root) stay serial here so the
    // GEMMs inside each node keep their own OpenMP parallelism.
    const bool parallel_level = level.size() > 2;
#pragma omp parallel for schedule(dynamic, 1) if (parallel_level)
    for (index_t i = 0; i < index_t(level.size()); ++i) {
      const index_t id = level[std::size_t(i)];
      try {
        ortho_eliminate_node(id, regularization, tally[std::size_t(id)]);
      } catch (...) {
        errors[std::size_t(id)] = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
    }
    // The failing level runs to completion (its nodes depend only on the
    // finished level below, so every failure gets recorded and the
    // postorder pick below stays deterministic); deeper progress stops
    // here — ancestors would read unfinished children.
    if (failed.load(std::memory_order_relaxed)) break;
  }
  if (failed.load(std::memory_order_relaxed))
    for (const index_t id : post_)
      if (errors[std::size_t(id)])
        std::rethrow_exception(errors[std::size_t(id)]);
  for (const index_t id : post_) {
    const OrthoTally& t = tally[std::size_t(id)];
    const ONode& o = on_[std::size_t(id)];
    logdet_ += t.logdet;
    det_sign_ *= t.sign;
    negative_total_ += t.negative;
    if (topo_[std::size_t(id)].is_leaf()) leaf_negative_ += t.negative;
    if (t.ldlt) stats_.ldlt_leaves += 1;
    stats_.flops += t.flops;
    if (o.dim > 0 && o.coupled && !o.shifted) {
      stats_.num_couplings += 1;
      stats_.max_coupling_size = std::max(stats_.max_coupling_size, o.dim);
    }
  }
  finish_stats();
}

template <typename T>
void UlvFactorization<T>::ortho_eliminate_node(index_t id, T regularization,
                                               OrthoTally& tally) {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  ONode& o = on_[std::size_t(id)];
  if (o.dim == 0) return;
  // λ-linear frontier: the node eliminates nothing and its rotated block
  // is cached, so its Schur complement is EXACTLY a0 + λI — the ancestors
  // read it off the cache and this node does zero per-λ work.
  if (o.shifted) return;
  const index_t kept = o.kept;
  const index_t elim = o.dim - kept;

  // Â = rotated node block. Cached nodes (every leaf; interior nodes whose
  // contributing children are all shifted) read a0 and add the shift —
  // λI commutes through Q. The rest assemble the reduced system from the
  // children's Schur complements per λ and rotate through the
  // materialised dense Q with two GEMMs.
  la::Matrix<T> ahat;
  if (o.a0_cached) {
    ahat = o.a0;
    for (index_t i = 0; i < o.dim; ++i) ahat(i, i) += regularization;
  } else {
    const ONode& ol = on_[std::size_t(nd.left)];
    const ONode& orr = on_[std::size_t(nd.right)];
    // Materialises a shifted child's Schur (= a0 + λI) into `scratch`;
    // a dense child's already-materialised Schur is referenced in place.
    auto child_block = [&](const ONode& c,
                           la::Matrix<T>& scratch) -> const la::Matrix<T>& {
      if (!c.shifted) return c.schur;
      scratch = c.a0;
      for (index_t i = 0; i < c.kept; ++i) scratch(i, i) += regularization;
      return scratch;
    };
    la::Matrix<T> dl_scratch;
    la::Matrix<T> dr_scratch;
    if (kept == 0) {
      const la::Matrix<T>& dl = child_block(ol, dl_scratch);
      const la::Matrix<T>& dr = child_block(orr, dr_scratch);
      ahat = assemble_reduced(ol.kept, orr.kept, dl, dr,
                              o.coupled ? &o.bt : nullptr);
    } else {
      // Qᵀ A Q with the λ-dependence confined to the block diagonal.
      // Low-rank children enter through λ·(QᵢᵀQᵢ) minus a rank-elim
      // downdate built from their per-λ w; dense children pay the split
      // rotation Q_iᵀ S_i Q_i — GEMMs over half of A per child.
      ahat = o.base0.empty() ? la::Matrix<T>(o.dim, o.dim) : o.base0;
      auto add_child = [&](const ONode& c, bool lowrank,
                           const la::Matrix<T>& qi, const la::Matrix<T>& qq,
                           const la::Matrix<T>& u) {
        if (c.kept == 0) return;
        if (lowrank) {
          const T* src = qq.data();
          T* dst = ahat.data();
          for (index_t t = 0; t < ahat.size(); ++t)
            dst[t] += regularization * src[t];
          const index_t ce = c.dim - c.kept;
          if (ce > 0) {
            la::Matrix<T> t(ce, o.dim);
            la::gemm(la::Op::None, la::Op::None, T(1), c.w, qi, T(0), t);
            la::gemm(la::Op::None, la::Op::None, T(-1), u, t, T(1), ahat);
            tally.flops += la::FlopCounter::gemm_flops(ce, o.dim, c.kept) +
                           la::FlopCounter::gemm_flops(o.dim, o.dim, ce);
          }
          return;
        }
        la::Matrix<T> d_scratch;
        const la::Matrix<T>& d = child_block(c, d_scratch);
        la::Matrix<T> t(c.kept, o.dim);
        la::gemm(la::Op::None, la::Op::None, T(1), d, qi, T(0), t);
        la::gemm(la::Op::Trans, la::Op::None, T(1), qi, t, T(1), ahat);
        tally.flops += la::FlopCounter::gemm_flops(c.kept, o.dim, c.kept) +
                       la::FlopCounter::gemm_flops(o.dim, o.dim, c.kept);
      };
      add_child(ol, o.lowrank_l, o.qtop, o.qq_l, o.u_l);
      add_child(orr, o.lowrank_r, o.qbot, o.qq_r, o.u_r);
      symmetrize(ahat);
    }
  }

  // Eliminate the trailing rows; the kept rows carry S = Ê − F̂ Ĝ⁻¹ F̂ᵀ
  // and w = Ĝ⁻¹ F̂ᵀ (so the solve sweeps downdate by GEMM, not re-solve).
  if (elim > 0) {
    o.gfac = ahat.block(kept, kept, elim, elim);
    factor_block(o.gfac, o.gpiv, tally);
  } else {
    o.gfac = la::Matrix<T>();
    o.gpiv.clear();
  }
  if (kept > 0) {
    if (elim > 0) {
      o.fhat = ahat.block(0, kept, kept, elim);
      o.w = o.fhat.transposed();
      block_solve(o.gfac, o.gpiv, o.w);
      tally.flops += 2 * la::FlopCounter::trsm_flops(elim, kept);
    } else {
      o.fhat = la::Matrix<T>();
      o.w = la::Matrix<T>();
    }
    // The dense Schur complement is materialised only when some ancestor
    // reads it as a dense block (split rotation / unrotated assembly);
    // low-rank parents reconstruct it from fhat/w instead.
    if (o.schur_needed) {
      la::Matrix<T> e = ahat.block(0, 0, kept, kept);
      if (elim > 0) {
        la::gemm(la::Op::None, la::Op::None, T(-1), o.fhat, o.w, T(1), e);
        symmetrize(e);
        tally.flops += la::FlopCounter::gemm_flops(kept, kept, elim);
      }
      o.schur = std::move(e);
    } else {
      o.schur = la::Matrix<T>();
    }
  } else {
    o.fhat = la::Matrix<T>();
    o.w = la::Matrix<T>();
    o.schur = la::Matrix<T>();
  }
}

// ======================================================================
// Orthogonal solve sweeps.
// ======================================================================

namespace {

/// Gathers the rows listed in `slots` from `x` into a dense block.
template <typename T>
la::Matrix<T> gather_rows(const la::Matrix<T>& x,
                          const std::vector<index_t>& slots) {
  la::Matrix<T> y(index_t(slots.size()), x.cols());
  for (index_t j = 0; j < x.cols(); ++j) {
    const T* src = x.col(j);
    T* dst = y.col(j);
    for (std::size_t i = 0; i < slots.size(); ++i) dst[i] = src[slots[i]];
  }
  return y;
}

/// Scatters a dense block back onto the rows listed in `slots`.
template <typename T>
void scatter_rows(la::Matrix<T>& x, const std::vector<index_t>& slots,
                  const la::Matrix<T>& y) {
  for (index_t j = 0; j < x.cols(); ++j) {
    T* dst = x.col(j);
    const T* src = y.col(j);
    for (std::size_t i = 0; i < slots.size(); ++i) dst[slots[i]] = src[i];
  }
}

}  // namespace

template <typename T>
void UlvFactorization<T>::ortho_up_node(index_t id, la::Matrix<T>& x) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  const ONode& o = on_[std::size_t(id)];
  if (o.dim == 0) return;
  const index_t rhs = x.cols();
  const index_t kept = o.kept;
  const index_t elim = o.dim - kept;

  la::Matrix<T> y = nd.is_leaf()
                        ? x.block(nd.row_begin, 0, o.dim, rhs)
                        : gather_rows(x, slots_[std::size_t(id)]);
  if (kept > 0) la::ormqr_left(la::Op::Trans, o.qf, y);
  if (elim > 0) {
    // Trailing rows close over themselves: solve them, park the partial
    // solution z, and downdate the kept rows by F̂ z.
    la::Matrix<T> z = y.block(kept, 0, elim, rhs);
    block_solve(o.gfac, o.gpiv, z);
    if (kept > 0) {
      la::Matrix<T> top = y.block(0, 0, kept, rhs);
      la::gemm(la::Op::None, la::Op::None, T(-1), o.fhat, z, T(1), top);
      put_rows(y, 0, top);
    }
    put_rows(y, kept, z);
  }
  if (nd.is_leaf())
    put_rows(x, nd.row_begin, y);
  else
    scatter_rows(x, slots_[std::size_t(id)], y);
}

template <typename T>
void UlvFactorization<T>::ortho_down_node(index_t id, la::Matrix<T>& x) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  const ONode& o = on_[std::size_t(id)];
  // kept == 0 nodes were solved outright on the way up (their rows close
  // over themselves and no rotation is stored) — the downward pass is the
  // identity there.
  if (o.dim == 0 || o.kept == 0) return;
  const index_t rhs = x.cols();
  const index_t kept = o.kept;
  const index_t elim = o.dim - kept;

  la::Matrix<T> y = nd.is_leaf()
                        ? x.block(nd.row_begin, 0, o.dim, rhs)
                        : gather_rows(x, slots_[std::size_t(id)]);
  // Rows [0, kept) hold this node's kept solution (written by the parent);
  // rows [kept, dim) hold the parked z = Ĝ⁻¹ b̂₂ from the upward pass.
  if (elim > 0) {
    const la::Matrix<T> top = y.block(0, 0, kept, rhs);
    la::Matrix<T> z = y.block(kept, 0, elim, rhs);
    la::gemm(la::Op::None, la::Op::None, T(-1), o.w, top, T(1), z);
    put_rows(y, kept, z);
  }
  la::ormqr_left(la::Op::None, o.qf, y);
  if (nd.is_leaf())
    put_rows(x, nd.row_begin, y);
  else
    scatter_rows(x, slots_[std::size_t(id)], y);
}

template <typename T>
void UlvFactorization<T>::ortho_solve_recursive_up(index_t id,
                                                   la::Matrix<T>& x) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  if (!nd.is_leaf()) {
    ortho_solve_recursive_up(nd.left, x);
    ortho_solve_recursive_up(nd.right, x);
  }
  ortho_up_node(id, x);
}

template <typename T>
void UlvFactorization<T>::ortho_solve_recursive_down(index_t id,
                                                     la::Matrix<T>& x) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  ortho_down_node(id, x);
  if (!nd.is_leaf()) {
    ortho_solve_recursive_down(nd.left, x);
    ortho_solve_recursive_down(nd.right, x);
  }
}

template <typename T>
double UlvFactorization<T>::rotation_orthogonality_error() const {
  if (low_ != nullptr) return low_->rotation_orthogonality_error();
  double worst = 0;
  for (const ONode& o : on_) {
    if (o.kept == 0) continue;
    la::Matrix<T> q = la::Matrix<T>::identity(o.dim);
    la::ormqr_left(la::Op::None, o.qf, q);
    la::Matrix<T> qtq(o.dim, o.dim);
    la::gemm(la::Op::Trans, la::Op::None, T(1), q, q, T(0), qtq);
    for (index_t i = 0; i < o.dim; ++i) qtq(i, i) -= T(1);
    worst = std::max(worst, la::norm_fro(qtq));
  }
  return worst;
}

// ======================================================================
// Woodbury elimination (Explicit views, or forced for verification).
// ======================================================================

template <typename T>
void UlvFactorization<T>::eliminate_woodbury(T regularization) {
  reset_lambda_stats(regularization);

  for (const index_t id : post_) {
    const HssTopoNode& nd = topo_[std::size_t(id)];
    if (nd.is_leaf())
      factor_leaf(id, regularization);
    else
      factor_internal(id);
    // Leaves of every view and all Explicit-basis nodes get their
    // parent-facing Φ from a subtree solve (for a leaf that is exactly the
    // leaf-factor solve); Nested interior nodes telescoped theirs above.
    if (nd.parent != HssTopoNode::kNone && declared_rank_[std::size_t(id)] > 0 &&
        (nd.is_leaf() || basis_kind_[std::size_t(id)] == BasisKind::Explicit))
      attach_explicit_basis(id);
  }

  finish_stats();
}

template <typename T>
void UlvFactorization<T>::factor_leaf(index_t id, T regularization) {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  FNode& f = fn_[std::size_t(id)];

  if (view_ != nullptr) {
    cache_[std::size_t(id)].leaf_k = view_->leaf_diag(id);
    check<StateError>(cache_[std::size_t(id)].leaf_k.rows() == nd.count &&
                          cache_[std::size_t(id)].leaf_k.cols() == nd.count,
                      "UlvFactorization: leaf diagonal block has wrong shape");
  }
  const la::Matrix<T>& k0 = cache_[std::size_t(id)].leaf_k;

  la::Matrix<T> d = k0;
  for (index_t i = 0; i < nd.count; ++i) d(i, i) += regularization;

  bool use_ldlt = options_.elimination == Elimination::PivotedLdlt;
  if (!use_ldlt) {
    if (la::potrf_lower(d)) {
      for (index_t i = 0; i < nd.count; ++i)
        logdet_ += 2.0 * std::log(double(d(i, i)));
      f.leaf_pivots.clear();
    } else {
      check<StateError>(options_.elimination != Elimination::Cholesky,
                        "UlvFactorization: leaf diagonal block not positive "
                        "definite; increase the regularization or use "
                        "Elimination::Auto / PivotedLdlt");
      // Auto fallback: restore the shifted block (potrf partially
      // overwrote it) and eliminate through pivoted LDLᵀ instead.
      d = k0;
      for (index_t i = 0; i < nd.count; ++i) d(i, i) += regularization;
      use_ldlt = true;
    }
  }
  if (use_ldlt) {
    check<StateError>(la::sytrf_lower(d, f.leaf_pivots),
                      "UlvFactorization: leaf diagonal block is exactly "
                      "singular at this regularization; adjust lambda");
    const la::LdltInertia inertia = la::ldlt_inertia(d, f.leaf_pivots);
    logdet_ += inertia.log_abs_det;
    det_sign_ *= inertia.sign;
    leaf_negative_ += inertia.negative;
    negative_total_ += inertia.negative;
    stats_.ldlt_leaves += 1;
  }
  stats_.flops += chol_flops(nd.count);
  f.leaf_fac = std::move(d);
}

template <typename T>
void UlvFactorization<T>::factor_internal(index_t id) {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  FNode& f = fn_[std::size_t(id)];
  const index_t lid = nd.left;
  const index_t rid = nd.right;
  const FNode& fl = fn_[std::size_t(lid)];
  const FNode& fr = fn_[std::size_t(rid)];
  const index_t nl = topo_[std::size_t(lid)].count;
  const index_t nr = topo_[std::size_t(rid)].count;
  const index_t rl = fl.v.cols();
  const index_t rr = fr.v.cols();

  // A child's basis is "complete" when its built V spans its declared
  // rank — always true for skeletonized subtrees and explicit bases; rank
  // 0 (never skeletonized, e.g. the top levels of a budget > 0 FMM
  // partition) degrades to a block-diagonal step here.
  const bool complete_l = rl == declared_rank_[std::size_t(lid)];
  const bool complete_r = rr == declared_rank_[std::size_t(rid)];
  const bool couple = complete_l && complete_r && rl > 0 && rr > 0;

  if (couple) {
    // Sibling coupling through the children's bases, B = K(l̃, r̃), and the
    // capacitance C = I + blkdiag(S_l, S_r) M = [[I, S_l B], [S_r Bᵀ, I]].
    // An EMPTY coupling payload means B = I by convention (HODLR), so the
    // GEMMs against B — pure copies — are skipped entirely.
    if (view_ != nullptr) {
      f.coupling = view_->coupling(id);
      f.identity_coupling = f.coupling.empty();
      if (f.identity_coupling)
        check<StateError>(rl == rr,
                          "UlvFactorization: identity coupling (empty "
                          "coupling()) requires equal child ranks");
      else
        check<StateError>(f.coupling.rows() == rl && f.coupling.cols() == rr,
                          "UlvFactorization: coupling block has wrong shape");
    }
    la::Matrix<T> slb;   // S_l B,  rl-by-rr
    la::Matrix<T> srbt;  // S_r Bᵀ, rr-by-rl
    if (f.identity_coupling) {
      slb = fl.s;
      srbt = fr.s;
    } else {
      slb.resize(rl, rr);
      la::gemm(la::Op::None, la::Op::None, T(1), fl.s, f.coupling, T(0), slb);
      srbt.resize(rr, rl);
      la::gemm(la::Op::None, la::Op::Trans, T(1), fr.s, f.coupling, T(0), srbt);
      stats_.flops += la::FlopCounter::gemm_flops(rl, rr, rl) +
                      la::FlopCounter::gemm_flops(rr, rl, rr);
    }
    la::Matrix<T> c(rl + rr, rl + rr);
    for (index_t j = 0; j < rr; ++j) std::copy_n(slb.col(j), rl, c.col(rl + j));
    for (index_t j = 0; j < rl; ++j) std::copy_n(srbt.col(j), rr, c.col(j) + rl);
    for (index_t i = 0; i < rl + rr; ++i) c(i, i) += T(1);
    check<StateError>(la::getrf(c, f.cap_pivots),
                      "UlvFactorization: singular capacitance system; "
                      "increase the regularization");
    stats_.flops += getrf_flops(rl + rr);
    // det(K̃_p + λI) = det(blkdiag) · det(C) (Sylvester); the LU diagonal
    // and pivot swaps carry det(C) including its sign.
    for (index_t i = 0; i < rl + rr; ++i) {
      const double u = double(c(i, i));
      if (u < 0) det_sign_ = -det_sign_;
      logdet_ += std::log(std::abs(u));
      if (f.cap_pivots[std::size_t(i)] != i) det_sign_ = -det_sign_;
    }
    f.cap = std::move(c);
    stats_.num_couplings += 1;
    stats_.max_coupling_size = std::max(stats_.max_coupling_size, rl + rr);
  }

  // Parent-facing factors via the telescoping identities (Nested views;
  // Explicit nodes attach theirs by subtree solve instead)
  //   V_p = blkdiag(V_l, V_r) E,
  //   Φ_p = blkdiag(Φ_l, Φ_r) (E − M C⁻¹ Ŝ E),
  //   S_p = (Ŝ E)ᵀ (E − M C⁻¹ Ŝ E),         Ŝ = blkdiag(S_l, S_r),
  // each O(|β| r²) given the children's factors.
  if (nd.parent == HssTopoNode::kNone ||
      basis_kind_[std::size_t(id)] != BasisKind::Nested)
    return;
  const index_t rp = declared_rank_[std::size_t(id)];
  if (rp == 0 || !complete_l || !complete_r || rl + rr == 0) return;
  if (view_ != nullptr) {
    cache_[std::size_t(id)].transfer = view_->basis(id);
    check<StateError>(cache_[std::size_t(id)].transfer.rows() == rl + rr &&
                          cache_[std::size_t(id)].transfer.cols() == rp,
                      "UlvFactorization: projection/basis rank mismatch");
  }
  const la::Matrix<T>& e = cache_[std::size_t(id)].transfer;
  const la::Matrix<T> e_top = e.block(0, 0, rl, rp);
  const la::Matrix<T> e_bot = e.block(rl, 0, rr, rp);

  // V_p is λ-independent, so only the first elimination builds it;
  // refactorize() reuses the telescoped basis untouched.
  if (view_ != nullptr) {
    f.v.resize(nd.count, rp);
    if (rl > 0) {
      la::Matrix<T> top(nl, rp);
      la::gemm(la::Op::None, la::Op::None, T(1), fl.v, e_top, T(0), top);
      put_rows(f.v, 0, top);
      stats_.flops += la::FlopCounter::gemm_flops(nl, rp, rl);
    }
    if (rr > 0) {
      la::Matrix<T> bot(nr, rp);
      la::gemm(la::Op::None, la::Op::None, T(1), fr.v, e_bot, T(0), bot);
      put_rows(f.v, nl, bot);
      stats_.flops += la::FlopCounter::gemm_flops(nr, rp, rr);
    }
  }

  la::Matrix<T> se(rl + rr, rp);
  if (rl > 0) {
    la::Matrix<T> t(rl, rp);
    la::gemm(la::Op::None, la::Op::None, T(1), fl.s, e_top, T(0), t);
    put_rows(se, 0, t);
  }
  if (rr > 0) {
    la::Matrix<T> t(rr, rp);
    la::gemm(la::Op::None, la::Op::None, T(1), fr.s, e_bot, T(0), t);
    put_rows(se, rl, t);
  }

  la::Matrix<T> fmat = e;  // F = E − M C⁻¹ Ŝ E (couple) or E (diagonal)
  if (couple) {
    la::Matrix<T> z = se;
    la::getrs(f.cap, f.cap_pivots, z);
    stats_.flops += la::FlopCounter::gemm_flops(rl + rr, rp, rl + rr);
    const la::Matrix<T> z_top = z.block(0, 0, rl, rp);
    const la::Matrix<T> z_bot = z.block(rl, 0, rr, rp);
    la::Matrix<T> m_top;  // B z_bot
    la::Matrix<T> m_bot;  // Bᵀ z_top
    if (f.identity_coupling) {
      m_top = z_bot;
      m_bot = z_top;
    } else {
      m_top.resize(rl, rp);
      la::gemm(la::Op::None, la::Op::None, T(1), f.coupling, z_bot, T(0),
               m_top);
      m_bot.resize(rr, rp);
      la::gemm(la::Op::Trans, la::Op::None, T(1), f.coupling, z_top, T(0),
               m_bot);
    }
    for (index_t j = 0; j < rp; ++j) {
      for (index_t i = 0; i < rl; ++i) fmat(i, j) -= m_top(i, j);
      for (index_t i = 0; i < rr; ++i) fmat(rl + i, j) -= m_bot(i, j);
    }
  }

  f.phi.resize(nd.count, rp);
  if (rl > 0) {
    const la::Matrix<T> f_top = fmat.block(0, 0, rl, rp);
    la::Matrix<T> top(nl, rp);
    la::gemm(la::Op::None, la::Op::None, T(1), fl.phi, f_top, T(0), top);
    put_rows(f.phi, 0, top);
    stats_.flops += la::FlopCounter::gemm_flops(nl, rp, rl);
  }
  if (rr > 0) {
    const la::Matrix<T> f_bot = fmat.block(rl, 0, rr, rp);
    la::Matrix<T> bot(nr, rp);
    la::gemm(la::Op::None, la::Op::None, T(1), fr.phi, f_bot, T(0), bot);
    put_rows(f.phi, nl, bot);
    stats_.flops += la::FlopCounter::gemm_flops(nr, rp, rr);
  }

  f.s.resize(rp, rp);
  la::gemm(la::Op::Trans, la::Op::None, T(1), se, fmat, T(0), f.s);
  stats_.flops += la::FlopCounter::gemm_flops(rp, rp, rl + rr);
  symmetrize(f.s);
}

template <typename T>
void UlvFactorization<T>::attach_explicit_basis(index_t id) {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  FNode& f = fn_[std::size_t(id)];
  const index_t r = declared_rank_[std::size_t(id)];
  if (view_ != nullptr) {
    f.v = view_->basis(id);
    check<StateError>(f.v.rows() == nd.count && f.v.cols() == r,
                      "UlvFactorization: explicit basis has wrong shape");
  }
  // Φ = (K̃_β + λI)⁻¹ V through the already-factored subtree (for a leaf
  // this is exactly the leaf-factor solve). The subtree solve touches
  // every level of β's OWN subtree once, so charge the triangular-solve
  // cost per subtree level — the O(N log² N) term of the explicit-basis
  // (HODLR) factorization.
  f.phi = f.v;
  solve_subtree(id, f.phi);
  stats_.flops += std::uint64_t(subtree_depth_[std::size_t(id)]) * 2 *
                  la::FlopCounter::trsm_flops(nd.count, r);
  f.s.resize(r, r);
  la::gemm(la::Op::Trans, la::Op::None, T(1), f.v, f.phi, T(0), f.s);
  stats_.flops += la::FlopCounter::gemm_flops(r, r, nd.count);
  symmetrize(f.s);
}

template <typename T>
void UlvFactorization<T>::leaf_solve(const FNode& f, la::Matrix<T>& b) const {
  if (f.leaf_pivots.empty())
    la::chol_solve(f.leaf_fac, b);
  else
    la::sytrs_lower(f.leaf_fac, f.leaf_pivots, b);
}

template <typename T>
void UlvFactorization<T>::solve_subtree(index_t id, la::Matrix<T>& b) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  const FNode& f = fn_[std::size_t(id)];
  if (nd.is_leaf()) {
    leaf_solve(f, b);
    return;
  }
  const index_t nl = topo_[std::size_t(nd.left)].count;
  const index_t nr = topo_[std::size_t(nd.right)].count;
  const index_t rhs = b.cols();

  // y = blkdiag(K̃_l + λI, K̃_r + λI)⁻¹ b.
  la::Matrix<T> top = b.block(0, 0, nl, rhs);
  solve_subtree(nd.left, top);
  la::Matrix<T> bot = b.block(nl, 0, nr, rhs);
  solve_subtree(nd.right, bot);

  if (f.has_coupling()) coupling_downdate(id, top, bot);

  put_rows(b, 0, top);
  put_rows(b, nl, bot);
}

template <typename T>
void UlvFactorization<T>::coupling_downdate(index_t id, la::Matrix<T>& top,
                                            la::Matrix<T>& bot) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  const FNode& f = fn_[std::size_t(id)];
  const FNode& fl = fn_[std::size_t(nd.left)];
  const FNode& fr = fn_[std::size_t(nd.right)];
  const index_t rl = fl.v.cols();
  const index_t rr = fr.v.cols();
  const index_t rhs = top.cols();
  // Woodbury downdate: y −= blkdiag(Φ_l, Φ_r) M C⁻¹ [V_lᵀ y_l; V_rᵀ y_r].
  la::Matrix<T> z(rl + rr, rhs);
  {
    la::Matrix<T> tl(rl, rhs);
    la::gemm(la::Op::Trans, la::Op::None, T(1), fl.v, top, T(0), tl);
    put_rows(z, 0, tl);
    la::Matrix<T> tr(rr, rhs);
    la::gemm(la::Op::Trans, la::Op::None, T(1), fr.v, bot, T(0), tr);
    put_rows(z, rl, tr);
  }
  la::getrs(f.cap, f.cap_pivots, z);
  const la::Matrix<T> z_top = z.block(0, 0, rl, rhs);
  const la::Matrix<T> z_bot = z.block(rl, 0, rr, rhs);
  if (f.identity_coupling) {
    // B = I: M C⁻¹ z is just the swapped halves — skip the copy GEMMs.
    la::gemm(la::Op::None, la::Op::None, T(-1), fl.phi, z_bot, T(1), top);
    la::gemm(la::Op::None, la::Op::None, T(-1), fr.phi, z_top, T(1), bot);
    return;
  }
  la::Matrix<T> gl(rl, rhs);
  la::gemm(la::Op::None, la::Op::None, T(1), f.coupling, z_bot, T(0), gl);
  la::Matrix<T> gr(rr, rhs);
  la::gemm(la::Op::Trans, la::Op::None, T(1), f.coupling, z_top, T(0), gr);
  la::gemm(la::Op::None, la::Op::None, T(-1), fl.phi, gl, T(1), top);
  la::gemm(la::Op::None, la::Op::None, T(-1), fr.phi, gr, T(1), bot);
}

template <typename T>
void UlvFactorization<T>::sweep_node(index_t id, la::Matrix<T>& x) const {
  const HssTopoNode& nd = topo_[std::size_t(id)];
  const FNode& f = fn_[std::size_t(id)];
  const index_t rhs = x.cols();
  if (nd.is_leaf()) {
    la::Matrix<T> blk = x.block(nd.row_begin, 0, nd.count, rhs);
    leaf_solve(f, blk);
    put_rows(x, nd.row_begin, blk);
    return;
  }
  if (!f.has_coupling()) return;
  const HssTopoNode& l = topo_[std::size_t(nd.left)];
  const HssTopoNode& r = topo_[std::size_t(nd.right)];
  // All deeper levels are done, so the children's rows of x already hold
  // blkdiag(K̃_l + λI, K̃_r + λI)⁻¹ b — exactly the recursion's state when
  // it reaches this node's downdate.
  la::Matrix<T> top = x.block(l.row_begin, 0, l.count, rhs);
  la::Matrix<T> bot = x.block(r.row_begin, 0, r.count, rhs);
  coupling_downdate(id, top, bot);
  put_rows(x, l.row_begin, top);
  put_rows(x, r.row_begin, bot);
}

// ======================================================================
// Blocked solve entry point (both modes, both sweep schedules).
// ======================================================================

template <typename T>
la::Matrix<T> UlvFactorization<T>::solve(const la::Matrix<T>& b,
                                         SweepMode sweep) const {
  check<DimensionError>(b.rows() == n_,
                        "UlvFactorization::solve: b must have N rows");
  check<DimensionError>(b.cols() >= 1,
                        "UlvFactorization::solve: b must have >= 1 column");
  // MixedF32: demote the rhs, sweep entirely in the float engine, promote
  // the solution. Callers that need double residuals run refined_solve().
  if (low_ != nullptr)
    return la::convert<T>(low_->solve(la::convert<float>(b), sweep));
  const index_t r = b.cols();

  // Identity-ordered views (randomized HSS, HODLR) skip the permutation
  // staging entirely — one copy of b, no scratch allocation.
  la::Matrix<T> x = perm_.empty() ? b : la::Matrix<T>(n_, r);
  if (!perm_.empty()) {
    for (index_t j = 0; j < r; ++j) {
      const T* src = b.col(j);
      T* dst = x.col(j);
      for (index_t pos = 0; pos < n_; ++pos)
        dst[pos] = src[perm_[std::size_t(pos)]];
    }
  }

  if (mode_ == UlvMode::Orthogonal) {
    // Upward sweep (rotate, eliminate, park), then downward sweep
    // (back-substitute, rotate back). Nodes of one level own disjoint
    // workspace rows, so each level runs in parallel; every node performs
    // a fixed GEMM sequence, so both schedules are bit-identical.
    if (sweep == SweepMode::Sequential) {
      ortho_solve_recursive_up(root_, x);
      ortho_solve_recursive_down(root_, x);
    } else {
      for (index_t d = index_t(levels_.size()) - 1; d >= 0; --d) {
        const std::vector<index_t>& level = levels_[std::size_t(d)];
#pragma omp parallel for schedule(dynamic, 1)
        for (index_t i = 0; i < index_t(level.size()); ++i)
          ortho_up_node(level[std::size_t(i)], x);
      }
      for (index_t d = 0; d < index_t(levels_.size()); ++d) {
        const std::vector<index_t>& level = levels_[std::size_t(d)];
#pragma omp parallel for schedule(dynamic, 1)
        for (index_t i = 0; i < index_t(level.size()); ++i)
          ortho_down_node(level[std::size_t(i)], x);
      }
    }
  } else if (sweep == SweepMode::Sequential) {
    solve_subtree(root_, x);
  } else {
    // Level-synchronous bottom-up elimination sweep: nodes of one level
    // own disjoint row ranges of x, so they run in parallel; the barrier
    // between levels enforces the children-before-parent dependency. Each
    // node performs the same GEMM sequence as the recursion, so the result
    // is bit-identical for any thread count or schedule.
    for (index_t d = index_t(levels_.size()) - 1; d >= 0; --d) {
      const std::vector<index_t>& level = levels_[std::size_t(d)];
#pragma omp parallel for schedule(dynamic, 1)
      for (index_t i = 0; i < index_t(level.size()); ++i)
        sweep_node(level[std::size_t(i)], x);
    }
  }

  if (perm_.empty()) return x;
  la::Matrix<T> out(n_, r);
  for (index_t j = 0; j < r; ++j) {
    const T* src = x.col(j);
    T* dst = out.col(j);
    for (index_t pos = 0; pos < n_; ++pos)
      dst[perm_[std::size_t(pos)]] = src[pos];
  }
  return out;
}

template <typename T>
double UlvFactorization<T>::logdet() const {
  check<StateError>(stats_.positive_definite,
                    "UlvFactorization::logdet: factored operator is not "
                    "positive definite (see log_abs_det/det_sign)");
  return logdet_;
}

// --- CompressedMatrix's HssView + Factorizable capability ------------------

/// HssView over a GOFMM compression: metric-tree topology and permutation,
/// cached/oracle-evaluated leaf diagonals, telescoping projection bases,
/// and cached/oracle-evaluated skeleton couplings. Only alive inside
/// factorize().
template <typename T>
class GofmmHssView final : public HssView<T> {
 public:
  explicit GofmmHssView(const CompressedMatrix<T>& kc) : kc_(kc) {
    this->n_ = kc.size();
    this->perm_ = kc.tree_->perm();
    this->root_ = kc.tree_->root()->id;
    this->topo_.resize(std::size_t(kc.tree_->num_nodes()));
    for (const tree::Node* node : kc.tree_->nodes()) {
      HssTopoNode& t = this->topo_[std::size_t(node->id)];
      t.id = node->id;
      t.level = node->level;
      t.row_begin = node->begin;
      t.count = node->count;
      t.parent =
          node->parent != nullptr ? node->parent->id : HssTopoNode::kNone;
      if (!node->is_leaf()) {
        t.left = node->left()->id;
        t.right = node->right()->id;
      }
    }
  }

  la::Matrix<T> leaf_diag(index_t id) const override {
    const tree::Node* node = kc_.tree_->nodes()[std::size_t(id)];
    const auto& nd = kc_.data_[std::size_t(id)];
    // The self block leads every near list, so the cached copy is reused
    // when present.
    if (!nd.near_blocks.empty() && !nd.near.empty() && nd.near[0] == node)
      return nd.near_blocks[0];
    return kc_.k_->submatrix(kc_.tree_->indices(node),
                             kc_.tree_->indices(node));
  }

  index_t basis_rank(index_t id) const override {
    const tree::Node* node = kc_.tree_->nodes()[std::size_t(id)];
    if (node->parent == nullptr) return 0;
    return index_t(kc_.data_[std::size_t(id)].skel.size());
  }

  BasisKind basis_kind(index_t) const override { return BasisKind::Nested; }

  la::Matrix<T> basis(index_t id) const override {
    // P_{α̃α}ᵀ at a leaf, the transfer map P_{α̃[l̃r̃]}ᵀ at interior nodes.
    return kc_.data_[std::size_t(id)].proj.transposed();
  }

  la::Matrix<T> coupling(index_t id) const override {
    // K(l̃, r̃): the left child's far block of its sibling, cached or from
    // the oracle. The left child has the lower id, so a cached pair is
    // stored in this orientation (op stays None). When a budget > 0 split
    // the siblings, the pair is in no far list: oracle.
    const HssTopoNode& t = this->topo_[std::size_t(id)];
    const tree::Node* left = kc_.tree_->nodes()[std::size_t(t.left)];
    const tree::Node* right = kc_.tree_->nodes()[std::size_t(t.right)];
    const auto& far = kc_.data_[std::size_t(t.left)].far;
    const auto it = std::find(far.begin(), far.end(), right);
    if (it != far.end()) {
      la::Op op;
      la::Matrix<T> scratch;
      return kc_.far_block(left, std::size_t(it - far.begin()), op, scratch);
    }
    return kc_.k_->submatrix(kc_.data_[std::size_t(t.left)].skel,
                             kc_.data_[std::size_t(t.right)].skel);
  }

 private:
  const CompressedMatrix<T>& kc_;
};

template <typename T>
void CompressedMatrix<T>::factorize(T regularization,
                                    FactorizeOptions options) {
  // Invalidate up front — deliberately trading the strong exception
  // guarantee for loudness: after a FAILED re-factorize the operator
  // throws StateError on solve() instead of silently serving the old-λ
  // factors to a caller who asked for a new λ.
  fact_.reset();
  const GofmmHssView<T> view(*this);
  fact_ = std::make_unique<UlvFactorization<T>>(view, regularization, options);
}

template <typename T>
void CompressedMatrix<T>::refactorize(T regularization) {
  if (fact_ == nullptr) {
    factorize(regularization);
    return;
  }
  try {
    fact_->refactorize(regularization);
  } catch (...) {
    // A failed re-elimination leaves the factors inconsistent; drop them
    // so solve() throws StateError instead of serving garbage.
    fact_.reset();
    throw;
  }
}

template <typename T>
la::Matrix<T> CompressedMatrix<T>::solve(const la::Matrix<T>& b,
                                         const SolveOptions& options) const {
  check<StateError>(fact_ != nullptr,
                    "CompressedMatrix::solve: call factorize() first");
  // Under MixedF32 a raw float-factored sweep carries ~1e-6 relative
  // error; iterative refinement (double-accumulated residuals against the
  // compressed apply) drives it back to options.target_residual. Native
  // double/float factorizations return the direct sweep untouched.
  if (options.refine &&
      fact_->stats().precision == Precision::MixedF32) {
    la::Matrix<T> x;
    refined_solve(*this, *this, T(fact_->stats().regularization), b, x,
                  options);
    return x;
  }
  return fact_->solve(b);
}

template <typename T>
double CompressedMatrix<T>::logdet() const {
  check<StateError>(fact_ != nullptr,
                    "CompressedMatrix::logdet: call factorize() first");
  return fact_->logdet();
}

template <typename T>
FactorizationStats CompressedMatrix<T>::factorization_stats() const {
  check<StateError>(
      fact_ != nullptr,
      "CompressedMatrix::factorization_stats: call factorize() first");
  return fact_->stats();
}

template <typename T>
const UlvFactorization<T>& CompressedMatrix<T>::factorization() const {
  check<StateError>(fact_ != nullptr,
                    "CompressedMatrix::factorization: call factorize() first");
  return *fact_;
}

template <typename T>
std::unique_ptr<CompressedMatrix<T>> make_preconditioner(
    std::shared_ptr<const SPDMatrix<T>> k, T regularization, Config coarse) {
  // Pure HSS structure: with budget 0 every off-diagonal coupling is a
  // sibling skeleton block, so the ULV factorization captures the whole
  // coarse operator (solve() inverts it to round-off).
  coarse.budget = 0.0;
  // Diagonal scale of K, for the λ escalation floor below.
  double diag_scale = 0;
  {
    const index_t n = k->size();
    const index_t step = std::max<index_t>(1, n / 16);
    index_t cnt = 0;
    for (index_t i = 0; i < n; i += step, ++cnt) {
      const index_t one[] = {i};
      diag_scale += std::abs(double(k->submatrix(one, one)(0, 0)));
    }
    diag_scale /= double(cnt);
  }
  auto op = CompressedMatrix<T>::compress_unique(std::move(k), coarse);
  const index_t n = op->size();

  // PCG needs an SPD preconditioner, but the coarse compression error E =
  // K̃ − K can leave K̃ + λI indefinite whenever λ < ‖E‖ (paper
  // "Limitations"). Start λ at twice the sampled absolute error estimate,
  // then verify positive definiteness and escalate geometrically until it
  // holds — each retry is a refactorize() (under the orthogonal engine:
  // rotated diagonal block re-factorization only, no oracle traffic), so
  // over-estimating merely costs CG iterations while an indefinite
  // preconditioner breaks PCG outright.
  T lambda = regularization;
  {
    // λ floor from the coarse compression error E = K̃ − K: power
    // iteration on E_colsᵀ E_cols over s sampled columns gives
    // σ_max(E_cols), a LOWER bound on ‖E‖₂ (column sampling only sees
    // part of the spectrum). The ×2 compensates for that underestimate
    // heuristically — it is NOT a guarantee, which is why the PD check
    // below and the per-column PCG fallback in conjugate_gradient remain
    // load-bearing. One blocked apply + an s-column oracle read.
    const index_t s = std::min<index_t>(64, n);
    Prng rng(coarse.seed + 13);
    const std::vector<index_t> cols = sample_without_replacement(rng, n, s);
    la::Matrix<T> unit(n, s);
    for (index_t j = 0; j < s; ++j) unit(cols[std::size_t(j)], j) = T(1);
    const la::Matrix<T> approx = op->apply(unit);
    std::vector<index_t> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), index_t(0));
    la::Matrix<T> err = op->matrix().submatrix(all, cols);  // E_cols = K̃−K
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < n; ++i) err(i, j) = approx(i, j) - err(i, j);
    la::Matrix<T> v = la::Matrix<T>::random_normal(s, 1, coarse.seed + 29);
    double sigma = 0;
    for (int it = 0; it < 6; ++it) {
      la::Matrix<T> y(n, 1);
      la::gemm(la::Op::None, la::Op::None, T(1), err, v, T(0), y);
      la::gemm(la::Op::Trans, la::Op::None, T(1), err, y, T(0), v);
      const double nrm = la::nrm2(s, v.col(0));  // ≈ σ², v was unit-norm
      sigma = std::sqrt(nrm);
      if (nrm <= 0) break;
      for (index_t i = 0; i < s; ++i) v(i, 0) = T(double(v(i, 0)) / nrm);
    }
    lambda = std::max(lambda, T(2 * sigma));
  }
  for (int attempt = 0; attempt < 8; ++attempt) {
    bool ok = true;
    try {
      // First attempt builds the factorization (rotations + rotated
      // payloads); every λ retry afterwards re-factors only the small
      // rotated diagonal blocks.
      if (!op->factorized())
        op->factorize(lambda);
      else
        op->refactorize(lambda);
      const FactorizationStats fs = op->factorization_stats();
      ok = fs.positive_definite;
      // The orthogonal engine's block inertia is an exact certificate
      // (Haynsworth), so its verdict stands on its own. The Woodbury
      // path's determinant-sign test can miss eigenvalue PAIRS, so back
      // it up with an inverse power iteration: the largest-magnitude
      // eigenvalue of (K̃ + λI)⁻¹ is 1/μ_min, and its Rayleigh quotient
      // is negative exactly when an indefinite μ_min survived λ.
      if (ok && !fs.exact_inertia) {
        la::Matrix<T> y = la::Matrix<T>::random_normal(n, 1, coarse.seed + 17);
        for (int it = 0; it < 8 && ok; ++it) {
          y = op->solve(y);
          const double nrm = la::nrm2(n, y.col(0));
          if (nrm <= 0) {
            ok = false;
            break;
          }
          for (index_t i = 0; i < n; ++i) y(i, 0) = T(double(y(i, 0)) / nrm);
        }
        if (ok) {
          la::Matrix<T> z = op->solve(y);
          ok = la::dot(n, y.col(0), z.col(0)) > 0;
        }
      }
    } catch (const StateError&) {
      ok = false;  // a block refused to eliminate
    }
    if (ok) return op;
    lambda = std::max({T(4) * lambda, T(1e-3 * diag_scale),
                       std::numeric_limits<T>::min()});
  }
  check<StateError>(false,
                    "make_preconditioner: could not reach a positive "
                    "definite factorization; tighten the coarse tolerance");
  return op;
}

template class UlvFactorization<float>;
template class UlvFactorization<double>;
template class GofmmHssView<float>;
template class GofmmHssView<double>;

template void CompressedMatrix<float>::factorize(float, FactorizeOptions);
template void CompressedMatrix<double>::factorize(double, FactorizeOptions);
template void CompressedMatrix<float>::refactorize(float);
template void CompressedMatrix<double>::refactorize(double);
template la::Matrix<float> CompressedMatrix<float>::solve(
    const la::Matrix<float>&, const SolveOptions&) const;
template la::Matrix<double> CompressedMatrix<double>::solve(
    const la::Matrix<double>&, const SolveOptions&) const;
template double CompressedMatrix<float>::logdet() const;
template double CompressedMatrix<double>::logdet() const;
template FactorizationStats CompressedMatrix<float>::factorization_stats()
    const;
template FactorizationStats CompressedMatrix<double>::factorization_stats()
    const;
template const UlvFactorization<float>& CompressedMatrix<float>::factorization()
    const;
template const UlvFactorization<double>&
CompressedMatrix<double>::factorization() const;

template std::unique_ptr<CompressedMatrix<float>> make_preconditioner<float>(
    std::shared_ptr<const SPDMatrix<float>>, float, Config);
template std::unique_ptr<CompressedMatrix<double>> make_preconditioner<double>(
    std::shared_ptr<const SPDMatrix<double>>, double, Config);

}  // namespace gofmm
