// Shared compilation path for Gatekeeper project configs (paper §4).
//
// Both evaluators in the tree — the concurrent shared-snapshot runtime
// (GatekeeperRuntime) and the naive reference evaluator (NaiveEvaluator) —
// compile the same JSON through CompileProjectSpec(), as do Sandcastle's
// raw-config validator and the Mutator, so validation and semantics can
// never diverge between them. Restraints come out as shared_ptr<const>:
// after creation a restraint is immutable and pure, so one compiled instance
// can be shared across snapshot generations and across threads without
// copying or locking.
//
// The deterministic per-(project,user) sampling die also lives here, keyed
// by a precomputed 64-bit project salt instead of a per-check string
// concatenation — all evaluators must cast exactly the same die or the
// differential test battery (tests/gatekeeper_differential_test.cc) fails.
//
// A project is an ordered list of if-statements, each a conjunction of
// restraints plus a pass probability for user sampling (1% → 10% → 100%
// rollouts):
//   {
//     "project": "ProjectX",
//     "rules": [
//       {"restraints": [{"type": "employee"}, ...], "pass_probability": 0.01},
//       ...
//     ]
//   }

#ifndef SRC_GATEKEEPER_COMPILE_H_
#define SRC_GATEKEEPER_COMPILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/gatekeeper/restraint.h"
#include "src/json/json.h"
#include "src/util/rng.h"
#include "src/util/status.h"

namespace configerator {

// One if-statement: a conjunction of restraints plus a pass probability.
struct CompiledRuleSpec {
  std::vector<std::shared_ptr<const Restraint>> restraints;
  double pass_probability = 0;
};

// A validated, compiled project config. Immutable after compilation; cheap
// to copy (restraints are shared).
struct CompiledProjectSpec {
  std::string name;
  uint64_t salt = 0;  // ProjectSalt(name), precomputed for the die.
  std::vector<CompiledRuleSpec> rules;
};

// Compiles and validates a project config. Rejects malformed specs.
Result<CompiledProjectSpec> CompileProjectSpec(
    const Json& config,
    const RestraintRegistry& registry = RestraintRegistry::Builtin());

// The die salt for a project name (hashed once at compile time).
inline uint64_t ProjectSalt(const std::string& project) {
  return StableHash64(project);
}

// Deterministic per-(project,user) die in [0,1): the same user consistently
// passes or fails a given percentage rollout, so features don't flicker.
// Mixing the precomputed salt with the user id avoids the string
// concatenation + hash the hot path used to pay per check.
inline double GatekeeperDie(uint64_t project_salt, int64_t user_id) {
  uint64_t state = project_salt ^ (static_cast<uint64_t>(user_id) +
                                   0x9e3779b97f4a7c15ULL);
  uint64_t h = SplitMix64(state);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Evaluates one rule's conjunction in declared order.
inline bool RuleMatches(const CompiledRuleSpec& rule, const UserContext& user,
                        const LaserStore* laser) {
  for (const auto& restraint : rule.restraints) {
    if (!restraint->Test(user, laser)) {
      return false;
    }
  }
  return true;
}

}  // namespace configerator

#endif  // SRC_GATEKEEPER_COMPILE_H_
