#include "stage/nn/param.h"

#include <cmath>
#include <utility>

#include "stage/common/macros.h"
#include "stage/common/serialize.h"

namespace stage::nn {

void Param::Init(size_t size, float scale, Rng& rng) {
  value_.resize(size);
  grad_.assign(size, 0.0f);
  m_.assign(size, 0.0f);
  v_.assign(size, 0.0f);
  for (float& v : value_) {
    v = static_cast<float>(rng.NextUniform(-scale, scale));
  }
  step_count_ = 0;
}

void Param::ZeroGrad() {
  for (float& g : grad_) g = 0.0f;
}

void Param::Step(const AdamConfig& config, double grad_divisor) {
  STAGE_CHECK(grad_divisor > 0.0);
  ++step_count_;
  const float inv = static_cast<float>(1.0 / grad_divisor);
  const float bias1 =
      1.0f - std::pow(config.beta1, static_cast<float>(step_count_));
  const float bias2 =
      1.0f - std::pow(config.beta2, static_cast<float>(step_count_));
  for (size_t i = 0; i < value_.size(); ++i) {
    float g = grad_[i] * inv + config.weight_decay * value_[i];
    m_[i] = config.beta1 * m_[i] + (1.0f - config.beta1) * g;
    v_[i] = config.beta2 * v_[i] + (1.0f - config.beta2) * g * g;
    const float m_hat = m_[i] / bias1;
    const float v_hat = v_[i] / bias2;
    value_[i] -=
        config.learning_rate * m_hat / (std::sqrt(v_hat) + config.epsilon);
  }
}

void Param::Save(std::ostream& out) const { WriteVector(out, value_); }

bool Param::Load(std::istream& in) {
  std::vector<float> value;
  if (!ReadVector(in, &value)) return false;
  // A NaN or infinite weight would make every forward through it
  // non-finite, which the serving path turns into a silent 0 s prediction.
  for (const float v : value) {
    if (!std::isfinite(v)) return false;
  }
  value_ = std::move(value);
  grad_.assign(value_.size(), 0.0f);
  m_.assign(value_.size(), 0.0f);
  v_.assign(value_.size(), 0.0f);
  step_count_ = 0;
  return true;
}

}  // namespace stage::nn
