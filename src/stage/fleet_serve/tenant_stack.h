#ifndef STAGE_FLEET_SERVE_TENANT_STACK_H_
#define STAGE_FLEET_SERVE_TENANT_STACK_H_

#include "stage/core/stage_predictor.h"

namespace stage::fleet_serve {

// Per-tenant knobs: one instance's predictor stack shape. (The retrain
// execution mode — inline vs background — is a fleet-level policy and lives
// in FleetServiceConfig, not here.)
struct TenantStackConfig {
  core::StagePredictorConfig predictor;
};

// One tenant's predictor stack: exactly a core::StagePredictor, kept as its
// own name because the serving benchmark (perfbench/) builds stacks by it.
// It never owns a worker — Observe(query, seconds, false) reports when the
// §4.3 cadence wants a retrain and FleetService's fairness-capped executor
// runs TrainOnce. `final`, so FleetService's calls through a TenantStack
// pointer bind statically.
class TenantStack final : public core::StagePredictor {
 public:
  // `options` collaborators are borrowed and must outlive the stack.
  explicit TenantStack(const TenantStackConfig& config,
                       const core::StagePredictorOptions& options = {})
      : core::StagePredictor(config.predictor, options) {}
};

}  // namespace stage::fleet_serve

#endif  // STAGE_FLEET_SERVE_TENANT_STACK_H_
