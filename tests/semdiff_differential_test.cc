// Differential soundness battery for the semantic differ: across ~500
// seeded random commits over a small config repo, every symbol the differ
// certifies as *no-op* must evaluate concretely identical on both sides —
// entry exports compile to byte-identical JSON, and no-op Gatekeeper
// projects agree with the old spec on random schema-valid user contexts.
// The other classifications are over-approximations and are free to be
// conservative; the no-op certificate is the one claim that must be exact,
// because Sandcastle skips reverse-closure re-analysis on its strength.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/semdiff.h"
#include "src/gatekeeper/context.h"
#include "src/gatekeeper/naive.h"
#include "src/lang/compiler.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace configerator {
namespace {

constexpr int kCommits = 500;
constexpr int kUsersPerProject = 32;

struct Tree {
  int a = 7;
  std::string c = "alpha";
  bool d = true;
  int scale = 10;
  int arm_on = 4096;
  int arm_off = 512;
  int lib_rev = 0;     // Comment revision counters (semantic no-ops).
  int entry_rev = 0;
  bool gk_employee = true;
  double gk_prob = 0.5;
  bool gk_pretty = false;

  std::string Lib() const {
    return StrFormat("# rev %d\nA = %d\nB = A * 2\nC = \"%s\"\nD = %s\n",
                     lib_rev, a, c.c_str(), d ? "True" : "False");
  }
  std::string Util() const {
    return StrFormat("SCALE = %d\nOFFSET = SCALE + 1\n", scale);
  }
  std::string Entry1() const {
    return StrFormat(
        "# rev %d\n"
        "import_python(\"lib.cinc\", \"*\")\n"
        "import_python(\"util.cinc\", \"SCALE\")\n"
        "export_if_last({\"a\": A, \"b\": B, \"c\": C, \"scale\": SCALE})\n",
        entry_rev);
  }
  std::string Entry2() const {
    return StrFormat(
        "import_python(\"lib.cinc\", \"*\")\n"
        "if D:\n"
        "    export_if_last({\"mem\": %d})\n"
        "else:\n"
        "    export_if_last({\"mem\": %d})\n",
        arm_on, arm_off);
  }
  std::string Gatekeeper() const {
    std::string restraint =
        gk_employee
            ? R"({"type": "employee"})"
            : R"({"type": "country", "params": {"countries": ["US", "BR"]}})";
    const char* religion = gk_pretty ? "{\n  \"project\": \"ramp\",\n  "
                                       "\"rules\": [{\"restraints\": [%s], "
                                       "\"pass_probability\": %.3f}]\n}\n"
                                     : "{\"project\": \"ramp\", \"rules\": "
                                       "[{\"restraints\": [%s], "
                                       "\"pass_probability\": %.3f}]}";
    return StrFormat(religion, restraint.c_str(), gk_prob);
  }

  InMemorySources Sources() const {
    InMemorySources sources;
    sources.Put("lib.cinc", Lib());
    sources.Put("util.cinc", Util());
    sources.Put("entry1.cconf", Entry1());
    sources.Put("entry2.cconf", Entry2());
    sources.Put("gatekeeper/ramp.json", Gatekeeper());
    return sources;
  }
};

UserContext RandomUser(Rng& rng) {
  static const char* kCountries[] = {"US", "CA", "BR", "JP"};
  static const char* kPlatforms[] = {"ios", "android", "www"};
  UserContext user;
  user.user_id = static_cast<int64_t>(rng.NextBounded(1'000'000));
  user.country = kCountries[rng.NextBounded(4)];
  user.platform = kPlatforms[rng.NextBounded(3)];
  user.is_employee = rng.NextBool(0.2);
  user.account_age_days = static_cast<int32_t>(rng.NextBounded(3000));
  user.friend_count = static_cast<int32_t>(rng.NextBounded(900));
  user.app_version = static_cast<int32_t>(rng.NextBounded(100));
  return user;
}

// Compiles `entry` in both trees and returns whether the generated configs
// are byte-identical (missing on both sides counts as identical).
bool CompiledEqual(const Tree& old_tree, const Tree& new_tree,
                   const std::string& entry) {
  InMemorySources old_sources = old_tree.Sources();
  InMemorySources new_sources = new_tree.Sources();
  ConfigCompiler old_compiler(old_sources.AsReader());
  ConfigCompiler new_compiler(new_sources.AsReader());
  auto old_out = old_compiler.Compile(entry);
  auto new_out = new_compiler.Compile(entry);
  if (!old_out.ok() || !new_out.ok()) {
    return old_out.ok() == new_out.ok();
  }
  if (old_out->configs.size() != new_out->configs.size()) {
    return false;
  }
  for (size_t i = 0; i < old_out->configs.size(); ++i) {
    if (old_out->configs[i].path != new_out->configs[i].path ||
        old_out->configs[i].content.Dump() !=
            new_out->configs[i].content.Dump()) {
      return false;
    }
  }
  return true;
}

TEST(SemdiffDifferentialTest, NoOpCertificatesNeverLie) {
  Rng rng(20260809);
  Tree tree;

  size_t noop_export_checks = 0;
  size_t provable_noop_commits = 0;
  size_t gk_noop_checks = 0;

  for (int commit = 0; commit < kCommits; ++commit) {
    Tree old_tree = tree;
    std::vector<std::string> touched;

    // One or two random mutations per commit.
    int mutations = 1 + static_cast<int>(rng.NextBounded(2));
    for (int m = 0; m < mutations; ++m) {
      switch (rng.NextBounded(10)) {
        case 0:  // Comment-only edit: semantically nothing.
          tree.lib_rev++;
          touched.push_back("lib.cinc");
          break;
        case 1:  // Value bump.
          tree.a = static_cast<int>(rng.NextBounded(100));
          touched.push_back("lib.cinc");
          break;
        case 2:  // String change.
          tree.c = rng.NextBool(0.5) ? "alpha" : "omega";
          touched.push_back("lib.cinc");
          break;
        case 3:  // Guard flip: control shift in untouched entry2.
          tree.d = !tree.d;
          touched.push_back("lib.cinc");
          break;
        case 4:  // Branch-arm constant edit (touches entry2 itself).
          tree.arm_on = 1024 + static_cast<int>(rng.NextBounded(8)) * 512;
          touched.push_back("entry2.cconf");
          break;
        case 5:  // Specific-import dependency edit.
          tree.scale = 1 + static_cast<int>(rng.NextBounded(50));
          touched.push_back("util.cinc");
          break;
        case 6:  // Entry comment edit.
          tree.entry_rev++;
          touched.push_back("entry1.cconf");
          break;
        case 7:  // Gatekeeper reformat: JSON-equal, so no-op.
          tree.gk_pretty = !tree.gk_pretty;
          touched.push_back("gatekeeper/ramp.json");
          break;
        case 8:  // Sampling probability: value-delta.
          tree.gk_prob = 0.1 * static_cast<double>(1 + rng.NextBounded(9));
          touched.push_back("gatekeeper/ramp.json");
          break;
        case 9:  // Restraint swap: control-shift.
          tree.gk_employee = !tree.gk_employee;
          touched.push_back("gatekeeper/ramp.json");
          break;
      }
    }

    InMemorySources old_sources = old_tree.Sources();
    InMemorySources new_sources = tree.Sources();
    SemanticDiffer differ(old_sources.AsReader(), new_sources.AsReader());
    SemanticDiffReport report =
        differ.Classify(touched, {"entry1.cconf", "entry2.cconf"});
    ASSERT_TRUE(report.sound) << "commit " << commit;

    // 1. Every export certified no-op compiles byte-identically.
    for (const SymbolImpact& impact : report.impacts) {
      if (impact.kind != ImpactKind::kNoOp ||
          !impact.symbol.ends_with(".json") ||
          !impact.file.ends_with(".cconf")) {
        continue;
      }
      ++noop_export_checks;
      EXPECT_TRUE(CompiledEqual(old_tree, tree, impact.file))
          << "commit " << commit << ": export certified no-op but concrete "
          << "compile differs: " << impact.Describe();
    }

    // 2. A provably-no-op commit leaves EVERY entry's output untouched.
    if (report.provably_noop) {
      ++provable_noop_commits;
      for (const char* entry : {"entry1.cconf", "entry2.cconf"}) {
        EXPECT_TRUE(CompiledEqual(old_tree, tree, entry))
            << "commit " << commit << " was certified provably no-op but "
            << entry << " compiles differently";
      }
    }

    // 3. A no-op Gatekeeper project decides identically on random users.
    const SymbolImpact* gk = report.Find("gatekeeper/ramp.json", "ramp");
    if (gk != nullptr && gk->kind == ImpactKind::kNoOp) {
      auto old_json = Json::Parse(old_tree.Gatekeeper());
      auto new_json = Json::Parse(tree.Gatekeeper());
      ASSERT_TRUE(old_json.ok() && new_json.ok());
      auto old_project = NaiveEvaluator::FromJson(*old_json);
      auto new_project = NaiveEvaluator::FromJson(*new_json);
      ASSERT_TRUE(old_project.ok() && new_project.ok());
      ++gk_noop_checks;
      for (int u = 0; u < kUsersPerProject; ++u) {
        UserContext user = RandomUser(rng);
        EXPECT_EQ(old_project->Check(user, nullptr),
                  new_project->Check(user, nullptr))
            << "commit " << commit << ": no-op gatekeeper spec diverges";
      }
    }
  }

  // The battery must actually exercise the certificates, or it proves
  // nothing: expect a healthy number of no-op verdicts across 500 commits.
  EXPECT_GE(noop_export_checks, 100u);
  EXPECT_GE(provable_noop_commits, 20u);
  EXPECT_GE(gk_noop_checks, 10u);
}

}  // namespace
}  // namespace configerator
