#include "src/dst/shrink.h"

#include <utility>
#include <vector>

#include "src/util/ddmin.h"

namespace configerator {

namespace {

// One probe: does `candidate` still violate the same invariant?
bool Reproduces(const ScenarioOptions& scenario, const FaultPlan& candidate,
                const std::string& invariant, RunResult* out) {
  Harness harness(scenario);
  Result<RunResult> result = harness.Run(candidate);
  bool reproduced = result.ok() && result->violated &&
                    result->violation.invariant == invariant;
  if (reproduced && out != nullptr) {
    *out = std::move(result).value();
  }
  return reproduced;
}

FaultPlan KeepEvents(const FaultPlan& plan, const std::vector<size_t>& kept) {
  FaultPlan out;
  out.events.reserve(kept.size());
  for (size_t i : kept) {
    out.events.push_back(plan.events[i]);
  }
  return out;
}

}  // namespace

ShrinkResult ShrinkFaultPlan(const ScenarioOptions& scenario,
                             const FaultPlan& failing_plan,
                             const std::string& invariant,
                             const ShrinkOptions& options) {
  ShrinkResult result;
  result.original_events = failing_plan.events.size();

  std::vector<size_t> kept = DdminSubset(
      failing_plan.events.size(),
      [&](const std::vector<size_t>& candidate) {
        return Reproduces(scenario, KeepEvents(failing_plan, candidate),
                          invariant, &result.run);
      },
      options.max_runs, &result.runs);
  result.plan = KeepEvents(failing_plan, kept);

  // The final plan's own run (fills the trace when no probe ever succeeded —
  // i.e. the plan was already minimal).
  if (result.run.trace.empty()) {
    ++result.runs;
    Harness harness(scenario);
    result.run = harness.Run(result.plan).value_or(RunResult{});
  }
  result.final_events = result.plan.events.size();
  return result;
}

}  // namespace configerator
