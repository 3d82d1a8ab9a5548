// Gatekeeper inputs shared by commit_storm and serve_mix: projects of mixed
// shape (employee gate, Figure 5 DNF, laser-heavy, hash-range rollout) whose
// parameters move with a version number, and a deterministic user pool.

#ifndef PERFBENCH_SRC_GK_PROJECTS_H_
#define PERFBENCH_SRC_GK_PROJECTS_H_

#include <cstdint>
#include <string>

#include "src/gatekeeper/context.h"
#include "src/gatekeeper/laser.h"

namespace perfbench {

// "gk07" and "gatekeeper/gk07.json".
std::string GkProjectName(int project);
std::string GkProjectPath(int project);

// The JSON config of `project` at `version`. The shape is fixed by the
// project index; versions only move thresholds, so every version compiles.
std::string GkProjectJson(int project, int version);

// User `id` of the deterministic pool (country, platform, age, friends and
// app version all vary with the id).
configerator::UserContext GkUser(int64_t id);

// The laser() scores the laser-heavy projects read, for users [0, users).
void FillLaser(configerator::LaserStore* laser, int64_t users);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_GK_PROJECTS_H_
