// Core GOFMM tests: interaction-list invariants, skeleton nesting,
// accuracy, engine equivalence, and the HSS/FMM structure switch.
#include <gtest/gtest.h>
#include <omp.h>

#include <cstring>
#include <numeric>
#include <set>

#include "baselines/askit.hpp"
#include "core/gofmm.hpp"
#include "la/blas.hpp"
#include "matrices/kernels.hpp"
#include "matrices/pointcloud.hpp"

namespace gofmm {
namespace {

using tree::DistanceKind;

/// Standard small test matrix: Gaussian kernel on clustered 3-D points.
/// Shared ownership so it hands straight to compress(shared_ptr, config).
std::shared_ptr<const zoo::KernelSPD<double>> test_kernel(
    index_t n, std::uint64_t seed = 1) {
  zoo::KernelParams p;
  p.kind = zoo::KernelKind::Gaussian;
  p.bandwidth = 0.3;
  p.ridge = 1e-6;
  return std::make_shared<zoo::KernelSPD<double>>(
      zoo::gaussian_mixture_cloud<double>(3, n, 6, 0.15, seed), p);
}

Config small_config() {
  Config cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 32;
  cfg.tolerance = 1e-7;
  cfg.kappa = 8;
  cfg.budget = 0.05;
  cfg.num_workers = 2;
  return cfg;
}

/// Dense K̃ via evaluate on the identity.
template <typename T>
la::Matrix<T> dense_compressed(CompressedMatrix<T>& kc) {
  return kc.evaluate(la::Matrix<T>::identity(kc.size()));
}

bool bitwise_equal(const la::Matrix<double>& a, const la::Matrix<double>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), std::size_t(a.size()) *
                                             sizeof(double)) == 0;
}

// ---------------------------------------------------- structure checks ----

TEST(GofmmStructure, BudgetZeroIsExactlyHss) {
  auto k = test_kernel(256);
  Config cfg = small_config();
  cfg.budget = 0.0;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  const auto& t = kc.cluster_tree();
  for (const tree::Node* node : t.nodes()) {
    if (node->is_leaf()) {
      const auto& near = kc.near_list(node);
      ASSERT_EQ(near.size(), 1u);
      EXPECT_EQ(near[0], node);
    }
    const auto& far = kc.far_list(node);
    if (node->parent == nullptr) {
      EXPECT_TRUE(far.empty());
    } else {
      ASSERT_EQ(far.size(), 1u) << "node " << node->id;
      EXPECT_EQ(far[0], node->sibling());
    }
  }
}

TEST(GofmmStructure, NearListsAreSymmetric) {
  auto k = test_kernel(512);
  Config cfg = small_config();
  cfg.budget = 0.2;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  const auto& t = kc.cluster_tree();
  for (const tree::Node* beta : t.leaves()) {
    for (const tree::Node* alpha : kc.near_list(beta)) {
      const auto& other = kc.near_list(alpha);
      EXPECT_NE(std::find(other.begin(), other.end(), beta), other.end())
          << "asymmetric near pair " << beta->id << "," << alpha->id;
    }
  }
}

TEST(GofmmStructure, FarListsAreSymmetric) {
  auto k = test_kernel(512);
  Config cfg = small_config();
  cfg.budget = 0.15;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  const auto& t = kc.cluster_tree();
  for (const tree::Node* beta : t.nodes()) {
    for (const tree::Node* alpha : kc.far_list(beta)) {
      const auto& other = kc.far_list(alpha);
      EXPECT_NE(std::find(other.begin(), other.end(), beta), other.end())
          << "asymmetric far pair " << beta->id << "," << alpha->id;
    }
  }
}

class GofmmCoverage : public ::testing::TestWithParam<double> {};

TEST_P(GofmmCoverage, NearAndFarTileEveryEntryExactlyOnce) {
  // The defining invariant of the H-matrix partition (paper Fig. 2): the
  // near blocks and the far blocks at all levels cover each (i, j) entry
  // exactly once.
  const index_t n = 256;
  auto k = test_kernel(n);
  Config cfg = small_config();
  cfg.budget = GetParam();
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  const auto& t = kc.cluster_tree();

  la::Matrix<double> cover(n, n);  // counts per (tree-position) entry
  auto add_block = [&](const tree::Node* rows, const tree::Node* cols) {
    for (index_t i = rows->begin; i < rows->begin + rows->count; ++i)
      for (index_t j = cols->begin; j < cols->begin + cols->count; ++j)
        cover(i, j) += 1.0;
  };
  for (const tree::Node* node : t.nodes()) {
    for (const tree::Node* alpha : kc.near_list(node)) add_block(node, alpha);
    for (const tree::Node* alpha : kc.far_list(node)) add_block(node, alpha);
  }
  for (index_t i = 0; i < n; ++i)
    for (index_t j = 0; j < n; ++j)
      ASSERT_EQ(cover(i, j), 1.0) << "entry (" << i << "," << j << ")";
}

INSTANTIATE_TEST_SUITE_P(Budgets, GofmmCoverage,
                         ::testing::Values(0.0, 0.05, 0.25, 1.0));

TEST(GofmmStructure, EachSymmetricPairIsCachedOnce) {
  auto k = test_kernel(512);
  Config cfg = small_config();
  cfg.budget = 0.2;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  const auto& t = kc.cluster_tree();
  // Bytes of the diagonal blocks plus one block per unordered near pair
  // and one skeleton block per unordered far pair.
  std::set<std::pair<index_t, index_t>> near_pairs, far_pairs;
  std::uint64_t entries = 0;
  for (const tree::Node* beta : t.nodes()) {
    for (const tree::Node* alpha : kc.near_list(beta)) {
      const auto key = std::minmax(beta->id, alpha->id);
      if (near_pairs.insert(key).second)
        entries += std::uint64_t(beta->count) * std::uint64_t(alpha->count);
    }
    for (const tree::Node* alpha : kc.far_list(beta)) {
      const auto key = std::minmax(beta->id, alpha->id);
      if (far_pairs.insert(key).second)
        entries += std::uint64_t(kc.skeleton(beta).size()) *
                   std::uint64_t(kc.skeleton(alpha).size());
    }
  }
  // The recipe must exercise off-diagonal near pairs, not just the HSS
  // diagonal.
  ASSERT_GT(near_pairs.size(), t.leaves().size());
  ASSERT_FALSE(far_pairs.empty());
  EXPECT_EQ(kc.stats().cached_bytes, entries * sizeof(double));
}

TEST(GofmmStructure, RootNeedsNoSkeleton) {
  auto k = test_kernel(256);
  auto kc = CompressedMatrix<double>::compress(k, small_config());
  const auto ranks = kc.skeleton_ranks();
  EXPECT_EQ(ranks[std::size_t(kc.cluster_tree().root()->id)], 0);
}

TEST(GofmmStructure, SkeletonsAreNested) {
  // Nesting property (paper Eq. 8): α̃ ⊆ l̃ ∪ r̃ for every interior node,
  // and leaf skeletons are subsets of the leaf's own indices.
  auto k = test_kernel(512);
  auto kc = CompressedMatrix<double>::compress(k, small_config());
  const auto& t = kc.cluster_tree();
  for (const tree::Node* node : t.nodes()) {
    const auto& skel = kc.skeleton(node);
    if (skel.empty()) continue;
    if (node->is_leaf()) {
      const auto own = t.indices(node);
      for (index_t s : skel)
        EXPECT_NE(std::find(own.begin(), own.end(), s), own.end());
    } else {
      std::set<index_t> children;
      for (index_t s : kc.skeleton(node->left())) children.insert(s);
      for (index_t s : kc.skeleton(node->right())) children.insert(s);
      for (index_t s : skel)
        EXPECT_TRUE(children.count(s)) << "node " << node->id;
    }
  }
}

// ------------------------------------------------------------ accuracy ----

TEST(GofmmAccuracy, CompressedMatvecIsAccurate) {
  const index_t n = 512;
  auto k = test_kernel(n);
  Config cfg = small_config();
  cfg.budget = 0.1;
  cfg.max_rank = 64;
  auto kc = CompressedMatrix<double>::compress(k, cfg);

  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 3, 99);
  la::Matrix<double> u = kc.evaluate(w);

  const la::Matrix<double> kd = k->dense();
  la::Matrix<double> exact(n, 3);
  la::gemm(la::Op::None, la::Op::None, 1.0, kd, w, 0.0, exact);
  const double err = la::diff_fro(u, exact) / la::norm_fro(exact);
  EXPECT_LT(err, 1e-3);
}

TEST(GofmmAccuracy, DenseReconstructionIsSymmetric) {
  const index_t n = 256;
  auto k = test_kernel(n);
  Config cfg = small_config();
  cfg.budget = 0.1;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  la::Matrix<double> kt = dense_compressed(kc);
  EXPECT_LT(la::diff_fro(kt, kt.transposed()), 1e-8 * la::norm_fro(kt));
}

TEST(GofmmAccuracy, ErrorEstimatorTracksTrueError) {
  const index_t n = 400;
  auto k = test_kernel(n);
  Config cfg = small_config();
  cfg.tolerance = 1e-4;
  cfg.max_rank = 24;  // deliberately capped: visible error
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 2, 5);
  la::Matrix<double> u = kc.evaluate(w);

  const la::Matrix<double> kd = k->dense();
  la::Matrix<double> exact(n, 2);
  la::gemm(la::Op::None, la::Op::None, 1.0, kd, w, 0.0, exact);
  const double true_err = la::diff_fro(u, exact) / la::norm_fro(exact);
  const double est = kc.estimate_error(w, u, 200);
  if (true_err > 1e-12) {
    EXPECT_LT(est, true_err * 10 + 1e-12);
    EXPECT_GT(est, true_err / 10 - 1e-12);
  }
}

TEST(GofmmAccuracy, TighterToleranceGivesSmallerError) {
  const index_t n = 512;
  auto k = test_kernel(n);
  Config loose = small_config();
  loose.tolerance = 1e-1;
  loose.max_rank = 64;
  Config tight = loose;
  tight.tolerance = 1e-9;

  auto kc_loose = CompressedMatrix<double>::compress(k, loose);
  auto kc_tight = CompressedMatrix<double>::compress(k, tight);
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 2, 6);
  auto ul = kc_loose.evaluate(w);
  auto ut = kc_tight.evaluate(w);
  const double el = kc_loose.estimate_error(w, ul, 150);
  const double et = kc_tight.estimate_error(w, ut, 150);
  EXPECT_LE(et, el + 1e-12);
}

TEST(GofmmAccuracy, LargerBudgetNotWorse) {
  const index_t n = 512;
  auto k = test_kernel(n);
  Config hss = small_config();
  hss.budget = 0.0;
  hss.max_rank = 16;  // small rank so the budget matters
  hss.tolerance = 0;  // fixed rank
  Config fmm = hss;
  fmm.budget = 0.3;

  auto kc_h = CompressedMatrix<double>::compress(k, hss);
  auto kc_f = CompressedMatrix<double>::compress(k, fmm);
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 2, 7);
  auto uh = kc_h.evaluate(w);
  auto uf = kc_f.evaluate(w);
  const double eh = kc_h.estimate_error(w, uh, 150);
  const double ef = kc_f.estimate_error(w, uf, 150);
  EXPECT_LE(ef, eh * 1.5 + 1e-12);  // generous slack: statistical claim
}

// ------------------------------------------------------------- engines ----

class GofmmEngines : public ::testing::TestWithParam<rt::Engine> {};

TEST_P(GofmmEngines, AllEnginesProduceTheSameResult) {
  const index_t n = 384;
  auto k = test_kernel(n);
  Config ref_cfg = small_config();
  ref_cfg.engine = rt::Engine::Heft;
  Config cfg = ref_cfg;
  cfg.engine = GetParam();

  auto kc_ref = CompressedMatrix<double>::compress(k, ref_cfg);
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 3, 8);
  auto u_ref = kc_ref.evaluate(w);
  auto u = kc.evaluate(w);
  EXPECT_LT(la::diff_fro(u, u_ref), 1e-10 * (1.0 + la::norm_fro(u_ref)));
}

INSTANTIATE_TEST_SUITE_P(Engines, GofmmEngines,
                         ::testing::Values(rt::Engine::Heft,
                                           rt::Engine::LevelByLevel,
                                           rt::Engine::OmpTask));

TEST(GofmmEngines, ApplyBitIdenticalAcrossEnginesAndThreadCounts) {
  // Every task writes only its own outputs and sums in a fixed order, so
  // the engine and the thread count must not change a single bit.
  const index_t n = 2048;
  auto k = test_kernel(n);
  Config cfg = small_config();
  cfg.leaf_size = 64;
  cfg.max_rank = 64;
  cfg.budget = 0.03;
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 3, 14);
  const int prev_threads = omp_get_max_threads();

  cfg.engine = rt::Engine::LevelByLevel;
  auto kc_levels = CompressedMatrix<double>::compress(k, cfg);
  omp_set_num_threads(1);
  const la::Matrix<double> ref = kc_levels.evaluate(w);
  omp_set_num_threads(4);
  const la::Matrix<double> levels4 = kc_levels.evaluate(w);
  omp_set_num_threads(prev_threads);
  EXPECT_TRUE(bitwise_equal(levels4, ref)) << "LevelByLevel, 4 threads";

  for (const int workers : {1, 4}) {
    cfg.engine = rt::Engine::Heft;
    cfg.num_workers = workers;
    auto kc = CompressedMatrix<double>::compress(k, cfg);
    EXPECT_TRUE(bitwise_equal(kc.evaluate(w), ref))
        << "HEFT, " << workers << " workers";
  }

  cfg.engine = rt::Engine::OmpTask;
  auto kc_omp = CompressedMatrix<double>::compress(k, cfg);
  EXPECT_TRUE(bitwise_equal(kc_omp.evaluate(w), ref)) << "OmpTask";
}

TEST(GofmmEngines, RepeatedEvaluationIsStable) {
  const index_t n = 256;
  auto k = test_kernel(n);
  auto kc = CompressedMatrix<double>::compress(k, small_config());
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 2, 9);
  auto u1 = kc.evaluate(w);
  auto u2 = kc.evaluate(w);
  EXPECT_DOUBLE_EQ(la::diff_fro(u1, u2), 0.0);
}

TEST(GofmmEngines, MultiRhsMatchesSingleRhs) {
  const index_t n = 256;
  auto k = test_kernel(n);
  auto kc = CompressedMatrix<double>::compress(k, small_config());
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 4, 10);
  auto u = kc.evaluate(w);
  for (index_t j = 0; j < 4; ++j) {
    la::Matrix<double> wj(n, 1);
    std::copy_n(w.col(j), n, wj.col(0));
    auto uj = kc.evaluate(wj);
    for (index_t i = 0; i < n; ++i)
      EXPECT_NEAR(uj(i, 0), u(i, j), 1e-11) << "rhs " << j;
  }
}

// ----------------------------------------------------- config variants ----

TEST(GofmmConfig, CachedAndUncachedAgree) {
  const index_t n = 256;
  auto k = test_kernel(n);
  Config wide_budget = small_config();
  wide_budget.budget = 0.1;
  // The ASKIT preset leaves near lists unsymmetrised: pairs listed from one
  // side only are cached by that side alone.
  Config askit = baseline::askit_like_config(8);
  askit.leaf_size = 32;
  askit.max_rank = 32;
  askit.tolerance = 1e-7;
  for (const Config& base : {small_config(), wide_budget, askit}) {
    Config cached = base;
    cached.cache_blocks = true;
    Config lazy = cached;
    lazy.cache_blocks = false;

    auto kc1 = CompressedMatrix<double>::compress(k, cached);
    auto kc2 = CompressedMatrix<double>::compress(k, lazy);
    la::Matrix<double> w = la::Matrix<double>::random_normal(n, 2, 11);
    auto u1 = kc1.evaluate(w);
    auto u2 = kc2.evaluate(w);
    EXPECT_LT(la::diff_fro(u1, u2), 1e-11) << "budget " << base.budget;
    EXPECT_GT(kc1.stats().cached_bytes, 0u);
    EXPECT_EQ(kc2.stats().cached_bytes, 0u);
  }
}

class GofmmOrderings : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(GofmmOrderings, CompressesUnderEveryOrdering) {
  const index_t n = 384;
  auto k = test_kernel(n);
  Config cfg = small_config();
  cfg.distance = GetParam();
  cfg.max_rank = 48;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  la::Matrix<double> w = la::Matrix<double>::random_normal(n, 2, 12);
  auto u = kc.evaluate(w);
  const double err = kc.estimate_error(w, u, 150);
  // Distance-based orderings must do well; lexicographic/random merely
  // have to produce a finite, sane result on this easy matrix.
  if (tree::has_distance(GetParam()))
    EXPECT_LT(err, 1e-2) << to_string(GetParam());
  else
    EXPECT_LT(err, 1.0) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Orderings, GofmmOrderings,
                         ::testing::Values(DistanceKind::Kernel,
                                           DistanceKind::Angle,
                                           DistanceKind::Geometric,
                                           DistanceKind::Lexicographic,
                                           DistanceKind::Random));

TEST(GofmmConfig, InvalidArgumentsThrow) {
  auto k = test_kernel(64);
  Config cfg = small_config();
  cfg.budget = 2.0;
  EXPECT_THROW(CompressedMatrix<double>::compress(k, cfg),
               std::invalid_argument);
  cfg = small_config();
  cfg.leaf_size = 0;
  EXPECT_THROW(CompressedMatrix<double>::compress(k, cfg),
               std::invalid_argument);
  cfg = small_config();
  la::Matrix<double> w_bad(32, 1);
  auto kc = CompressedMatrix<double>::compress(k, small_config());
  EXPECT_THROW(kc.evaluate(w_bad), std::invalid_argument);
}

TEST(GofmmConfig, GeometricWithoutPointsThrows) {
  DenseSPD<double> k(la::Matrix<double>::identity(64));
  Config cfg = small_config();
  cfg.distance = DistanceKind::Geometric;
  EXPECT_THROW(CompressedMatrix<double>::compress(borrow(k), cfg),
               std::invalid_argument);
}

TEST(GofmmConfig, StatsArePopulated) {
  auto k = test_kernel(512);
  auto kc = CompressedMatrix<double>::compress(k, small_config());
  const auto& s = kc.stats();
  EXPECT_GT(s.total_seconds, 0.0);
  EXPECT_GT(s.avg_rank, 0.0);
  EXPECT_GT(s.num_far_pairs, 0);
  EXPECT_GT(s.num_near_pairs, 0);
  EXPECT_GT(s.near_fraction, 0.0);
  EXPECT_LT(s.near_fraction, 1.0);
  EXPECT_GT(s.skel_flops, 0u);
  la::Matrix<double> w = la::Matrix<double>::random_normal(512, 8, 13);
  kc.evaluate(w);
  EXPECT_GT(kc.last_eval_stats().flops, 0u);
  EXPECT_GT(kc.last_eval_stats().seconds, 0.0);
}

TEST(GofmmConfig, FixedRankModeHonoursMaxRank) {
  auto k = test_kernel(512);
  Config cfg = small_config();
  cfg.tolerance = 0;  // fixed rank
  cfg.max_rank = 12;
  auto kc = CompressedMatrix<double>::compress(k, cfg);
  for (index_t r : kc.skeleton_ranks()) EXPECT_LE(r, 12);
  EXPECT_EQ(kc.stats().max_rank, 12);
}

TEST(GofmmConfig, SinglePrecisionWorks) {
  const index_t n = 384;
  zoo::KernelParams p;
  p.kind = zoo::KernelKind::Gaussian;
  p.bandwidth = 0.3;
  zoo::KernelSPD<float> k(zoo::gaussian_mixture_cloud<float>(3, n, 6, 0.15, 1),
                          p);
  Config cfg = small_config();
  cfg.tolerance = 1e-4;
  auto kc = CompressedMatrix<float>::compress(borrow(k), cfg);
  la::Matrix<float> w = la::Matrix<float>::random_normal(n, 2, 14);
  auto u = kc.evaluate(w);
  EXPECT_LT(kc.estimate_error(w, u, 100), 1e-2);
}

}  // namespace
}  // namespace gofmm
