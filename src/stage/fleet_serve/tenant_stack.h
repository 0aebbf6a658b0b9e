#ifndef STAGE_FLEET_SERVE_TENANT_STACK_H_
#define STAGE_FLEET_SERVE_TENANT_STACK_H_

#include <cstddef>
#include <string>

#include "stage/core/stage_predictor.h"

namespace stage::fleet_serve {

// Per-tenant knobs: one instance's predictor stack shape. (The retrain
// execution mode — inline vs background — is a fleet-level policy and lives
// in FleetServiceConfig, not here.)
struct TenantStackConfig {
  core::StagePredictorConfig predictor;

  // Shards of the exec-time cache front. 1 shard reproduces the paper's
  // single cache bit-for-bit (same eviction order); more shards let
  // concurrent lookups proceed without serializing.
  size_t cache_shards = 8;

  // Empty when usable, else a description of the first problem.
  std::string Validate() const;
};

// One tenant's predictor stack: a core::StagePredictor with a sharded
// exec-time cache. It never owns a worker — Observe(query, seconds, false)
// reports when the §4.3 cadence wants a retrain and FleetService's
// fairness-capped executor runs TrainOnce. `final`, so FleetService's calls
// through a TenantStack pointer bind statically.
class TenantStack final : public core::StagePredictor {
 public:
  // `options` collaborators are borrowed and must outlive the stack.
  explicit TenantStack(const TenantStackConfig& config,
                       const core::StagePredictorOptions& options = {});
};

}  // namespace stage::fleet_serve

#endif  // STAGE_FLEET_SERVE_TENANT_STACK_H_
