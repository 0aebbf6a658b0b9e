#ifndef STAGE_NN_PARAM_H_
#define STAGE_NN_PARAM_H_

#include <cstddef>
#include <istream>
#include <ostream>
#include <vector>

#include "stage/common/rng.h"

namespace stage::nn {

// Optimizer hyper-parameters (Adam).
struct AdamConfig {
  float learning_rate = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
  float weight_decay = 0.0f;
};

// A learnable tensor with its gradient accumulator and Adam moments.
// Training protocol: ZeroGrad() -> accumulate into grad -> Step().
class Param {
 public:
  Param() = default;

  // Allocates `size` values initialized uniformly in [-scale, scale].
  void Init(size_t size, float scale, Rng& rng);

  void ZeroGrad();

  // One Adam update using the accumulated gradient divided by
  // `grad_divisor` (the mini-batch size).
  void Step(const AdamConfig& config, double grad_divisor);

  // Checkpointing: values only (optimizer moments reset on load, which is
  // sufficient for inference and a fresh fine-tune). Load fails, leaving
  // this Param untouched, on a short stream or a non-finite value.
  void Save(std::ostream& out) const;
  bool Load(std::istream& in);

  float* data() { return value_.data(); }
  const float* data() const { return value_.data(); }
  float* grad() { return grad_.data(); }
  size_t size() const { return value_.size(); }
  size_t MemoryBytes() const { return value_.size() * sizeof(float); }

 private:
  std::vector<float> value_;
  std::vector<float> grad_;
  std::vector<float> m_;
  std::vector<float> v_;
  long step_count_ = 0;
};

}  // namespace stage::nn

#endif  // STAGE_NN_PARAM_H_
