#include "stage/fleet_serve/tenant_stack.h"

namespace stage::fleet_serve {

std::string TenantStackConfig::Validate() const {
  if (cache_shards == 0) return "cache_shards must be positive";
  return predictor.Validate();
}

TenantStack::TenantStack(const TenantStackConfig& config,
                         const core::StagePredictorOptions& options)
    : core::StagePredictor(config.predictor, options, config.cache_shards) {}

}  // namespace stage::fleet_serve
