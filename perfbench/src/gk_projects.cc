#include "perfbench/src/gk_projects.h"

#include "src/util/strings.h"

namespace perfbench {

using configerator::StrFormat;

std::string GkProjectName(int project) { return StrFormat("gk%02d", project); }

std::string GkProjectPath(int project) {
  return "gatekeeper/" + GkProjectName(project) + ".json";
}

std::string GkProjectJson(int project, int version) {
  std::string name = GkProjectName(project);
  switch (project % 4) {
    case 0:  // Employee dogfooding plus a user-id slice.
      return StrFormat(R"({"project": "%s", "rules": [
  {"restraints": [{"type": "employee"}], "pass_probability": 1.0},
  {"restraints": [{"type": "id_mod", "params": {"mod": 100, "lo": 0, "hi": %d}}],
   "pass_probability": 1.0}
]})",
                       name.c_str(), 1 + (project + version) % 50);
    case 1:  // The Figure 5 shape: several conjunctions.
      return StrFormat(R"({"project": "%s", "rules": [
  {"restraints": [{"type": "employee"}], "pass_probability": 1.0},
  {"restraints": [{"type": "country", "params": {"countries": ["US", "CA"]}},
                  {"type": "min_friend_count", "params": {"count": %d}},
                  {"type": "platform", "params": {"platforms": ["android"]}}],
   "pass_probability": 0.%d},
  {"restraints": [{"type": "new_user", "params": {"max_days": 30}},
                  {"type": "min_app_version", "params": {"version": %d}}],
   "pass_probability": 0.5},
  {"restraints": [{"type": "hash_range",
                   "params": {"salt": "%s", "lo": 0.0, "hi": 0.05}}],
   "pass_probability": 1.0}
]})",
                       name.c_str(), 100 + version % 300, 1 + version % 9,
                       280 + version % 40, name.c_str());
    case 2:  // Laser-heavy: an expensive store lookup in front of a cheap test.
      return StrFormat(R"({"project": "%s", "rules": [
  {"restraints": [{"type": "laser",
                   "params": {"project": "Trend", "threshold": 0.%d}},
                  {"type": "country", "params": {"countries": ["JP", "BR"]}}],
   "pass_probability": 1.0}
]})",
                       name.c_str(), 1 + version % 9);
    default:  // Staged hash-range rollout gated on app version.
      return StrFormat(R"({"project": "%s", "rules": [
  {"restraints": [{"type": "min_app_version", "params": {"version": 300}},
                  {"type": "hash_range",
                   "params": {"salt": "%s", "lo": 0.0, "hi": 0.%02d}}],
   "pass_probability": 1.0}
]})",
                       name.c_str(), name.c_str(), 1 + version % 99);
  }
}

configerator::UserContext GkUser(int64_t id) {
  configerator::UserContext user;
  user.user_id = id;
  static const char* kCountries[] = {"US", "BR", "CA", "JP", "IN"};
  user.country = kCountries[id % 5];
  user.locale = "en_US";
  user.app = "fb4a";
  user.device = "pixel";
  user.platform = id % 2 == 0 ? "android" : "ios";
  user.is_employee = id % 1000 == 0;
  user.account_age_days = static_cast<int32_t>(id % 2000);
  user.friend_count = static_cast<int32_t>(id % 700);
  user.app_version = 250 + static_cast<int32_t>(id % 100);
  return user;
}

void FillLaser(configerator::LaserStore* laser, int64_t users) {
  for (int64_t id = 0; id < users; ++id) {
    laser->Put("Trend-" + std::to_string(id), static_cast<double>(id % 100) / 100.0);
  }
}

}  // namespace perfbench
