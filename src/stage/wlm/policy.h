#ifndef STAGE_WLM_POLICY_H_
#define STAGE_WLM_POLICY_H_

#include <string_view>
#include <vector>

#include "stage/core/autowlm.h"
#include "stage/core/stage_predictor.h"
#include "stage/fleet/workload.h"
#include "stage/global/global_model.h"
#include "stage/wlm/closed_loop.h"

namespace stage::wlm {

// The policies the closed-loop benchmark compares end-to-end (§1, §5.2:
// better predictions -> better scheduling, as a measured property):
//  * kOracle    — scheduling sees the true exec-times; the lower bound any
//                 predictor chases.
//  * kStage     — the Stage stack (exec-time cache -> local model ->
//                 optional global model) driven live in the loop, observing
//                 every completion: the paper's deployment shape.
//  * kAutoWlm   — the prior single-GBT AutoWLM predictor ([50]) driven live
//                 in the same loop: the baseline.
//  * kOpenLoop  — the pre-closed-loop pipeline: Stage predictions
//                 precomputed on an arrival-order replay, then fed to the
//                 simulator as a fixed vector (predictor never adapts to
//                 completion order or queueing). The ablation that isolates
//                 what closing the loop buys.
enum class WlmPolicy { kOracle = 0, kStage, kAutoWlm, kOpenLoop };

inline constexpr int kNumWlmPolicies = 4;

std::string_view WlmPolicyName(WlmPolicy policy);

// Parses "oracle" / "stage" / "autowlm" / "open_loop"; false on anything
// else.
bool ParseWlmPolicy(std::string_view name, WlmPolicy* out);

// Everything needed to build a policy's predictor and run it.
struct PolicyRunConfig {
  ClosedLoopConfig loop;
  // Predictor stacks are built fresh per run (each run is one instance's
  // cold-start-to-warm trajectory, like the paper's per-instance replays).
  core::StagePredictorConfig stage;    // kStage / kOpenLoop.
  core::AutoWlmConfig autowlm;         // kAutoWlm.
  // Optional borrowed collaborators for the Stage policies.
  const global::GlobalModel* global_model = nullptr;
  const fleet::InstanceConfig* instance = nullptr;
};

// Runs `policy` over `trace` and returns the closed-loop result. Stage
// policies run deterministically (inline retrain), so repeated runs are
// bit-for-bit reproducible.
ClosedLoopResult RunWlmPolicy(const std::vector<fleet::QueryEvent>& trace,
                              WlmPolicy policy,
                              const PolicyRunConfig& config);

}  // namespace stage::wlm

#endif  // STAGE_WLM_POLICY_H_
