#include "stage/gbt/gbdt.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stage/common/macros.h"
#include "stage/common/rng.h"
#include "stage/common/serialize.h"
#include "stage/gbt/quantizer.h"

namespace stage::gbt {

namespace {

constexpr double kMinGain = 1e-12;

struct SplitCandidate {
  double gain = 0.0;
  int feature = -1;
  int bin = -1;  // Rows with binned value <= bin go left.
  bool valid() const { return feature >= 0; }
};

// One tree-fitting pass over a sampled row set. Rows are partitioned in
// place within `order` as nodes split.
//
// Histogram strategy (the LightGBM trick): per-node (feature, bin)
// gradient histograms live in an arena of reusable buffers — acquired when
// a node may still split, released when it becomes a leaf — and only the
// smaller child of a split is built with a row pass; the larger child's
// histogram is derived in place by subtracting the smaller child from the
// parent's buffer. Bin counts are integers, so subtraction keeps every
// min_samples_leaf decision exact; the summed gradients are derived in a
// different floating-point order than a direct build, which can move a
// gain by ~1 ulp (the kMinGain slack already absorbs ties). The arena is
// owned by the fitter and reused across every node of every tree it fits.
class TreeFitter {
 public:
  TreeFitter(const Dataset& data, const FeatureQuantizer& quantizer,
             const std::vector<uint8_t>& binned, const GbdtConfig& config)
      : data_(data),
        quantizer_(quantizer),
        binned_(binned),
        config_(config),
        d_(data.num_features()) {}

  RegressionTree Fit(std::vector<size_t>& order,
                     const std::vector<double>& grad,
                     const std::vector<double>& hess,
                     const std::vector<int>& features) {
    RegressionTree tree;
    double g_total = 0.0;
    double h_total = 0.0;
    for (size_t row : order) {
      g_total += grad[row];
      h_total += hess[row];
    }
    const int32_t root = tree.AddLeaf(0.0);
    struct Work {
      int32_t node;
      size_t begin, end;
      int depth;
      double gsum, hsum;
      int hist;  // Arena buffer id, -1 when the node is a guaranteed leaf.
    };
    int root_hist = -1;
    if (MaySplit(order.size(), 1)) {
      root_hist = AcquireHistogram(features);
      BuildHistogram(root_hist, order, 0, order.size(), grad, hess, features);
    }
    std::vector<Work> stack = {
        {root, 0, order.size(), 1, g_total, h_total, root_hist}};

    while (!stack.empty()) {
      const Work work = stack.back();
      stack.pop_back();

      SplitCandidate best;
      if (work.hist >= 0) {
        STAGE_DCHECK(MaySplit(work.end - work.begin, work.depth));
        best = FindBestSplit(work.hist, work.end - work.begin, features,
                             work.gsum, work.hsum);
      }
      if (!best.valid()) {
        MakeLeaf(&tree, work.node, work.gsum, work.hsum);
        if (work.hist >= 0) ReleaseHistogram(work.hist);
        continue;
      }

      // Partition rows: binned value <= bin goes left.
      double g_left = 0.0;
      double h_left = 0.0;
      size_t mid = work.begin;
      for (size_t i = work.begin; i < work.end; ++i) {
        const size_t row = order[i];
        if (binned_[row * d_ + best.feature] <= best.bin) {
          g_left += grad[row];
          h_left += hess[row];
          std::swap(order[i], order[mid]);
          ++mid;
        }
      }
      STAGE_DCHECK(mid > work.begin && mid < work.end);

      // Child histograms: build the smaller child with a row pass, derive
      // the larger one by subtracting it from the parent's buffer (which
      // the larger child then owns). Children that can never split skip
      // their histogram entirely.
      const size_t left_count = mid - work.begin;
      const size_t right_count = work.end - mid;
      const int child_depth = work.depth + 1;
      const bool left_smaller = left_count <= right_count;
      const bool need_left = MaySplit(left_count, child_depth);
      const bool need_right = MaySplit(right_count, child_depth);
      const bool need_smaller = left_smaller ? need_left : need_right;
      const bool need_larger = left_smaller ? need_right : need_left;
      int smaller_hist = -1;
      int larger_hist = -1;
      if (need_smaller || need_larger) {
        smaller_hist = AcquireHistogram(features);
        BuildHistogram(smaller_hist, order, left_smaller ? work.begin : mid,
                       left_smaller ? mid : work.end, grad, hess, features);
      }
      if (need_larger) {
        SubtractHistogram(work.hist, smaller_hist, features);
        larger_hist = work.hist;
      } else {
        ReleaseHistogram(work.hist);
      }
      if (!need_smaller && smaller_hist >= 0) {
        ReleaseHistogram(smaller_hist);
        smaller_hist = -1;
      }
      const int left_hist = left_smaller ? smaller_hist : larger_hist;
      const int right_hist = left_smaller ? larger_hist : smaller_hist;

      const float threshold = quantizer_.UpperBoundary(best.feature, best.bin);
      const auto [left, right] =
          tree.SplitLeaf(work.node, best.feature, threshold);
      stack.push_back({right, mid, work.end, child_depth,
                       work.gsum - g_left, work.hsum - h_left, right_hist});
      stack.push_back({left, work.begin, mid, child_depth, g_left, h_left,
                       left_hist});
    }
    STAGE_DCHECK(free_hists_.size() == hists_.size());
    return tree;
  }

 private:
  static constexpr int kBins = 256;

  struct Histogram {
    std::vector<double> g;
    std::vector<double> h;
    std::vector<int32_t> c;
  };

  bool MaySplit(size_t count, int depth) const {
    return depth <= config_.max_depth &&
           count >= 2 * static_cast<size_t>(config_.min_samples_leaf);
  }

  // Returns a buffer with the sampled features' bin rows zeroed. Buffers
  // come from a free list, so steady-state fitting allocates nothing.
  int AcquireHistogram(const std::vector<int>& features) {
    int id;
    if (free_hists_.empty()) {
      id = static_cast<int>(hists_.size());
      hists_.emplace_back();
      const size_t slots = static_cast<size_t>(d_) * kBins;
      hists_[id].g.assign(slots, 0.0);
      hists_[id].h.assign(slots, 0.0);
      hists_[id].c.assign(slots, 0);
      return id;
    }
    id = free_hists_.back();
    free_hists_.pop_back();
    Histogram& hist = hists_[id];
    for (int f : features) {
      const size_t base = static_cast<size_t>(f) * kBins;
      const size_t bins = static_cast<size_t>(quantizer_.NumBins(f));
      std::fill_n(hist.g.begin() + base, bins, 0.0);
      std::fill_n(hist.h.begin() + base, bins, 0.0);
      std::fill_n(hist.c.begin() + base, bins, 0);
    }
    return id;
  }

  void ReleaseHistogram(int id) { free_hists_.push_back(id); }

  void BuildHistogram(int id, const std::vector<size_t>& order, size_t begin,
                      size_t end, const std::vector<double>& grad,
                      const std::vector<double>& hess,
                      const std::vector<int>& features) {
    Histogram& hist = hists_[id];
    for (size_t i = begin; i < end; ++i) {
      const size_t row = order[i];
      const uint8_t* bins = &binned_[row * d_];
      const double g = grad[row];
      const double h = hess[row];
      for (int f : features) {
        const size_t slot = static_cast<size_t>(f) * kBins + bins[f];
        hist.g[slot] += g;
        hist.h[slot] += h;
        ++hist.c[slot];
      }
    }
  }

  // parent -= child over the sampled features; the parent buffer then
  // holds the sibling's histogram.
  void SubtractHistogram(int parent, int child, const std::vector<int>& features) {
    Histogram& into = hists_[parent];
    const Histogram& sub = hists_[child];
    for (int f : features) {
      const size_t base = static_cast<size_t>(f) * kBins;
      const size_t bins = static_cast<size_t>(quantizer_.NumBins(f));
      for (size_t b = base; b < base + bins; ++b) {
        into.g[b] -= sub.g[b];
        into.h[b] -= sub.h[b];
        into.c[b] -= sub.c[b];
      }
    }
  }

  void MakeLeaf(RegressionTree* tree, int32_t node, double gsum, double hsum) {
    double value = -gsum / (hsum + config_.lambda);
    value = std::clamp(value, -config_.max_leaf_delta, config_.max_leaf_delta);
    // Store the learning-rate-scaled step so Predict needs no extra state.
    tree->SetLeafValue(node, value * config_.learning_rate);
  }

  SplitCandidate FindBestSplit(int hist_id, size_t count,
                               const std::vector<int>& features, double gsum,
                               double hsum) {
    const Histogram& hist = hists_[hist_id];
    const double parent_score = gsum * gsum / (hsum + config_.lambda);
    SplitCandidate best;
    for (int f : features) {
      const int num_bins = quantizer_.NumBins(f);
      double g_left = 0.0;
      double h_left = 0.0;
      size_t c_left = 0;
      // The last bin has no upper boundary, so stop one short.
      for (int b = 0; b + 1 < num_bins; ++b) {
        const size_t slot = static_cast<size_t>(f) * kBins + b;
        g_left += hist.g[slot];
        h_left += hist.h[slot];
        c_left += static_cast<size_t>(hist.c[slot]);
        if (c_left < static_cast<size_t>(config_.min_samples_leaf)) continue;
        const size_t c_right = count - c_left;
        if (c_right < static_cast<size_t>(config_.min_samples_leaf)) break;
        const double h_right = hsum - h_left;
        if (h_left < config_.min_child_hessian ||
            h_right < config_.min_child_hessian) {
          continue;
        }
        const double g_right = gsum - g_left;
        const double gain = g_left * g_left / (h_left + config_.lambda) +
                            g_right * g_right / (h_right + config_.lambda) -
                            parent_score;
        if (gain > best.gain + kMinGain) {
          best.gain = gain;
          best.feature = f;
          best.bin = b;
        }
      }
    }
    return best;
  }

  const Dataset& data_;
  const FeatureQuantizer& quantizer_;
  const std::vector<uint8_t>& binned_;
  const GbdtConfig& config_;
  const int d_;
  // Histogram arena + free list; see the class comment.
  std::vector<Histogram> hists_;
  std::vector<int> free_hists_;
};

// The boosting loop: trees[round][output], with the rounds past the best
// validation round dropped when early stopping applies.
std::vector<std::vector<RegressionTree>> Boost(
    const Dataset& data, const Loss& loss, const GbdtConfig& config,
    const std::vector<double>& base_scores) {
  std::vector<std::vector<RegressionTree>> trees;
  if (data.empty() || config.num_rounds == 0) return trees;

  const size_t n = data.num_rows();
  const int num_outputs = loss.num_outputs();
  Rng rng(config.seed);

  // Random validation split for early stopping (the paper holds out 20%).
  std::vector<size_t> train_rows;
  std::vector<size_t> val_rows;
  const bool use_early_stopping =
      config.early_stopping_rounds > 0 && config.validation_fraction > 0.0 &&
      n >= 20;
  if (use_early_stopping) {
    const std::vector<size_t> perm = rng.Permutation(n);
    const size_t num_val = std::max<size_t>(
        1, static_cast<size_t>(config.validation_fraction *
                               static_cast<double>(n)));
    val_rows.assign(perm.begin(), perm.begin() + num_val);
    train_rows.assign(perm.begin() + num_val, perm.end());
  } else {
    train_rows.resize(n);
    for (size_t i = 0; i < n; ++i) train_rows[i] = i;
  }

  const FeatureQuantizer quantizer(data, config.max_bins);
  const std::vector<uint8_t> binned = quantizer.Transform(data);
  TreeFitter fitter(data, quantizer, binned, config);

  // Current predictions for every row (train + validation).
  std::vector<double> preds(n * static_cast<size_t>(num_outputs));
  for (size_t i = 0; i < n; ++i) {
    for (int p = 0; p < num_outputs; ++p) {
      preds[i * num_outputs + p] = base_scores[p];
    }
  }

  std::vector<double> val_labels(val_rows.size());
  for (size_t i = 0; i < val_rows.size(); ++i) {
    val_labels[i] = data.label(val_rows[i]);
  }
  std::vector<double> val_preds(val_rows.size() *
                                static_cast<size_t>(num_outputs));

  double best_val_loss = std::numeric_limits<double>::infinity();
  int best_round = -1;

  std::vector<double> grad;
  std::vector<double> hess;
  std::vector<size_t> sampled;
  std::vector<int> features;
  const int num_sampled_features = std::max(
      1, static_cast<int>(config.colsample * data.num_features()));

  for (int round = 0; round < config.num_rounds; ++round) {
    // Row bagging for this round (shared across the round's output trees).
    sampled.clear();
    if (config.subsample < 1.0) {
      for (size_t row : train_rows) {
        if (rng.NextBernoulli(config.subsample)) sampled.push_back(row);
      }
      if (sampled.empty()) sampled = train_rows;
    } else {
      sampled = train_rows;
    }
    // Feature sampling.
    features.clear();
    if (num_sampled_features < data.num_features()) {
      const std::vector<size_t> perm =
          rng.Permutation(static_cast<size_t>(data.num_features()));
      for (int i = 0; i < num_sampled_features; ++i) {
        features.push_back(static_cast<int>(perm[i]));
      }
      std::sort(features.begin(), features.end());
    } else {
      for (int f = 0; f < data.num_features(); ++f) features.push_back(f);
    }

    trees.emplace_back();
    for (int p = 0; p < num_outputs; ++p) {
      loss.GradHess(data.labels(), preds, p, &grad, &hess);
      RegressionTree tree = fitter.Fit(sampled, grad, hess, features);
      for (size_t i = 0; i < n; ++i) {
        preds[i * num_outputs + p] += tree.Predict(data.row(i));
      }
      trees.back().push_back(std::move(tree));
    }

    if (use_early_stopping) {
      for (size_t i = 0; i < val_rows.size(); ++i) {
        for (int p = 0; p < num_outputs; ++p) {
          val_preds[i * num_outputs + p] =
              preds[val_rows[i] * num_outputs + p];
        }
      }
      const double val_loss = loss.Eval(val_labels, val_preds);
      if (val_loss < best_val_loss - 1e-9) {
        best_val_loss = val_loss;
        best_round = round;
      } else if (round - best_round >= config.early_stopping_rounds) {
        break;
      }
    }
  }

  if (use_early_stopping && best_round >= 0) {
    trees.resize(static_cast<size_t>(best_round) + 1);
  }
  return trees;
}

}  // namespace

GbdtModel GbdtModel::Train(
    const Dataset& data, const Loss& loss, const GbdtConfig& config,
    std::vector<std::vector<RegressionTree>>* node_trees) {
  STAGE_CHECK(config.num_rounds >= 0);
  STAGE_CHECK(config.max_depth >= 1);
  STAGE_CHECK(config.subsample > 0.0 && config.subsample <= 1.0);
  STAGE_CHECK(config.colsample > 0.0 && config.colsample <= 1.0);

  const std::vector<double> base_scores = loss.InitScores(data.labels());
  std::vector<std::vector<RegressionTree>> trees =
      Boost(data, loss, config, base_scores);
  GbdtModel model;
  model.num_features_ = data.num_features();
  model.flat_ = FlatForest::Compile(base_scores, trees);
  if (node_trees != nullptr) *node_trees = std::move(trees);
  return model;
}

std::vector<double> GbdtModel::Predict(const float* row) const {
  std::vector<double> out(static_cast<size_t>(num_outputs()));
  flat_.PredictInto(row, out);
  return out;
}

void GbdtModel::PredictInto(const float* row, std::span<double> out) const {
  flat_.PredictInto(row, out);
}

double GbdtModel::PredictScalar(const float* row) const {
  STAGE_DCHECK(num_outputs() >= 1);
  return flat_.PredictScalar(row);
}

double GbdtModel::AddSplitCounts(std::span<double> counts) const {
  STAGE_DCHECK(counts.size() == static_cast<size_t>(num_features_));
  return flat_.AddSplitCounts(counts);
}

std::vector<double> GbdtModel::FeatureImportance() const {
  std::vector<double> importance(num_features_, 0.0);
  const double total = AddSplitCounts(importance);
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

int GbdtModel::rounds_used() const {
  return flat_.empty() ? 0
                       : static_cast<int>(flat_.num_trees()) / num_outputs();
}

namespace {
constexpr uint32_t kGbdtMagic = 0x53474254;  // "SGBT".
// v1 streamed each tree's 24-byte node vector and compiled the flat forest
// on load; v2 streams the flat forest itself. v1 streams are rejected.
constexpr uint32_t kGbdtVersion = 2;
}  // namespace

void GbdtModel::Save(std::ostream& out) const {
  WriteHeader(out, kGbdtMagic, kGbdtVersion);
  WritePod<int32_t>(out, num_features_);
  flat_.Save(out);
}

bool GbdtModel::Load(std::istream& in) {
  if (!ReadHeader(in, kGbdtMagic, kGbdtVersion)) return false;
  int32_t num_features = 0;
  if (!ReadPod(in, &num_features) || num_features < 0) return false;
  FlatForest flat;
  if (!flat.Load(in, num_features)) return false;
  num_features_ = num_features;
  flat_ = std::move(flat);
  return true;
}

}  // namespace stage::gbt
