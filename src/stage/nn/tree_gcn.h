#ifndef STAGE_NN_TREE_GCN_H_
#define STAGE_NN_TREE_GCN_H_

#include <cstdint>
#include <vector>

#include "stage/common/rng.h"
#include "stage/common/thread_pool.h"
#include "stage/nn/gemm.h"
#include "stage/nn/linear.h"
#include "stage/nn/tree_batch.h"

namespace stage::nn {

// A directed graph-convolution network over a tree, the architecture of the
// paper's global model (§4.4): at every layer each node combines its own
// features with the mean of its children's features through two learned
// linear maps, followed by ReLU (and dropout in training). After L layers
// the root's representation summarizes the whole plan.
//
// Execution is batched over slots (see tree_batch.h): because layer l+1
// activations depend only on layer-l activations, every layer runs as one
// child-aggregation sweep plus exactly two GEMMs (self and child
// transforms) over a slot range of ALL trees in the batch — instead of
// 2 * num_nodes matrix-vector products. A training pass computes every
// slot in the batch's tree-major order. An eval pass computes only the
// roots' receptive field: only the root rows leave the GCN, so layer l
// runs over just the nodes within depth L-1-l of their root, one slot
// prefix of the level-major layout. Results are bit-for-bit identical to
// the naive per-node walk on the weights the pass reads, bf16-rounded for
// eval and fp32 for training (linear.h; the kernels keep each element's
// naive accumulation order; aggregation sums children in their original
// order).
class TreeGcn {
 public:
  struct Config {
    int input_dim = 0;
    int hidden_dim = 64;
    int num_layers = 3;
    float dropout = 0.2f;
  };

  // Scratch for a forward pass and its matching backward. Everything lives
  // in one Arena rewound (not freed) per Forward, so repeated calls make
  // zero heap allocations once warmed up to the largest batch seen.
  struct Workspace {
    Arena arena;
    // acts[l]: layer-l activations, row-major [rows x dim_l] in slot
    // order, where dim_0 = input_dim and dim_{l>0} = hidden_dim. A
    // training pass has every slot of the batch; an eval pass only the
    // level-major slots layer l-1 computed. acts[0] aliases the slots'
    // feature matrix (never written).
    std::vector<float*> acts;
    // aggs[l]: mean-of-children inputs to layer l, [rows x dim_l].
    std::vector<float*> aggs;
    // masks[l]: dropout multipliers for layer l outputs (nullptr in eval).
    std::vector<float*> masks;
    // Root representations, [num_trees x hidden_dim].
    float* roots = nullptr;
    int num_nodes = 0;
    // Whether the last forward was a training pass; backward needs one,
    // since an eval pass neither keeps tree-major order nor computes every
    // slot.
    bool train = false;

    // Single-tree convenience batch used by Forward/Backward.
    TreeBatch single;
    // The eval pass's level-major copy of its batch.
    TreeBatch levels;

    // Heap floats retained across calls; stops growing once warm.
    size_t CapacityFloats() const { return arena.CapacityFloats(); }
  };

  TreeGcn() = default;

  void Init(const Config& config, Rng& rng);

  int hidden_dim() const { return config_.hidden_dim; }
  int input_dim() const { return config_.input_dim; }

  // Runs message passing over a tree given per-node input features
  // (row-major [n x input_dim]) and each node's children indices.
  // Returns a pointer to the root (node 0) representation inside `ws`.
  const float* Forward(const float* node_features, int num_nodes,
                       const std::vector<std::vector<int32_t>>& children,
                       Workspace* ws, bool train = false,
                       Rng* rng = nullptr) const;

  // Batched forward over a whole forest (a tree-major TreeBatch). Returns
  // the root representations, row-major [batch.num_trees() x hidden_dim],
  // inside `ws`. Each tree's root row is bit-for-bit identical to Forward
  // on that tree alone and to the naive per-node walk. An eval pass
  // (`train` false) lays the batch out level-major in `ws` and computes
  // only the rows the roots read. A training pass computes every slot in
  // the batch's own order; its dropout masks are drawn serially on the
  // calling thread in slot-major order, so results are independent of
  // `pool` (which only fans out the GEMMs).
  const float* ForwardBatch(const TreeBatch& batch, Workspace* ws,
                            bool train = false, Rng* rng = nullptr,
                            ThreadPool* pool = nullptr) const;

  // Accumulates parameter gradients given dL/d(root representation).
  // `ws` must hold a training forward (Forward with `train` true).
  void Backward(const float* droot,
                const std::vector<std::vector<int32_t>>& children,
                Workspace& ws);

  // Batched backward: `droots` is [batch.num_trees() x hidden_dim] for the
  // batch of the matching training ForwardBatch. Gradient bytes are
  // identical for any pool width, including none.
  void BackwardBatch(const float* droots, const TreeBatch& batch,
                     Workspace& ws, ThreadPool* pool = nullptr);

  void ZeroGrad();
  void Step(const AdamConfig& config, double grad_divisor);
  size_t MemoryBytes() const;
  void Save(std::ostream& out) const;
  // Fails, leaving this network untouched, unless every layer maps
  // LayerInDim(l) -> hidden_dim as the stream's header says.
  bool Load(std::istream& in);

 private:
  int LayerInDim(int layer) const {
    return layer == 0 ? config_.input_dim : config_.hidden_dim;
  }

  Config config_;
  std::vector<Linear> self_;   // One per layer: transforms the node itself.
  std::vector<Linear> child_;  // One per layer: transforms the child mean.
};

}  // namespace stage::nn

#endif  // STAGE_NN_TREE_GCN_H_
