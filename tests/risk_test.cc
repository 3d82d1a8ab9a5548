#include <gtest/gtest.h>

#include "src/pipeline/risk.h"

namespace configerator {
namespace {

constexpr int64_t kDay = 24LL * 3600 * 1000;

class RiskTest : public ::testing::Test {
 protected:
  // Commits `path` at the given day with the given author.
  void Touch(const std::string& path, const std::string& author, int day,
             const std::string& content = "v\n") {
    ASSERT_TRUE(repo_.Commit(author, "m", {{path, content}}, day * kDay).ok());
  }

  RiskAssessment Assess(const std::string& path, const std::string& author,
                        int day, std::optional<std::string> content = "new\n",
                        const DependencyService* deps = nullptr) {
    RiskAdvisor advisor;
    EXPECT_TRUE(advisor.IndexHistory(repo_).ok());
    ProposedDiff diff = MakeProposedDiff(repo_, author, "change",
                                         {{path, std::move(content)}}, day * kDay);
    return advisor.Assess(diff, deps);
  }

  Repository repo_;
};

TEST_F(RiskTest, HistoryIndexCollectsAuthorsAndTimes) {
  Touch("cfg", "alice", 1);
  Touch("cfg", "bob", 5, "v2\n");
  Touch("other", "carol", 6);
  RiskAdvisor advisor;
  ASSERT_TRUE(advisor.IndexHistory(repo_).ok());
  const RiskAdvisor::PathHistory* history = advisor.HistoryFor("cfg");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->update_times_ms.size(), 2u);
  EXPECT_EQ(history->update_times_ms[0], 1 * kDay);
  EXPECT_EQ(history->authors.size(), 2u);
  EXPECT_EQ(advisor.HistoryFor("missing"), nullptr);
}

TEST_F(RiskTest, IncrementalIndexingMatchesFullReindex) {
  Touch("cfg", "alice", 1);
  RiskAdvisor incremental;
  ASSERT_TRUE(incremental.IndexHistory(repo_).ok());
  Touch("cfg", "bob", 5, "v2\n");
  Touch("other", "carol", 6);
  ASSERT_TRUE(incremental.IndexHistory(repo_).ok());  // Only the new commits.

  RiskAdvisor full;
  ASSERT_TRUE(full.IndexHistory(repo_).ok());

  for (const char* path : {"cfg", "other"}) {
    const RiskAdvisor::PathHistory* a = incremental.HistoryFor(path);
    const RiskAdvisor::PathHistory* b = full.HistoryFor(path);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(a->update_times_ms, b->update_times_ms) << path;
    EXPECT_EQ(a->authors, b->authors) << path;
    EXPECT_EQ(a->change_count, b->change_count) << path;
    EXPECT_DOUBLE_EQ(a->mean_change_lines, b->mean_change_lines) << path;
  }
  // Re-indexing with no new commits is a no-op.
  ASSERT_TRUE(incremental.IndexHistory(repo_).ok());
  EXPECT_EQ(incremental.HistoryFor("cfg")->update_times_ms.size(), 2u);
}

TEST_F(RiskTest, ChangeSizeIsUnixLineDiff) {
  Touch("cfg", "alice", 1, "a\nb\n");  // Two lines added.
  Touch("cfg", "alice", 2, "a\nc\n");  // One delete plus one add.
  RiskAdvisor advisor;
  ASSERT_TRUE(advisor.IndexHistory(repo_).ok());
  const RiskAdvisor::PathHistory* history = advisor.HistoryFor("cfg");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->change_count, 2u);
  EXPECT_DOUBLE_EQ(history->mean_change_lines, 2.0);
}

TEST_F(RiskTest, FileReplacedByDirectoryCountsItsDeletion) {
  Touch("x", "alice", 1, "one\ntwo\n");
  ASSERT_TRUE(repo_.Commit("bob", "m", {{"x", std::nullopt}, {"x/y", "v\n"}},
                           2 * kDay)
                  .ok());
  RiskAdvisor advisor;
  ASSERT_TRUE(advisor.IndexHistory(repo_).ok());
  const RiskAdvisor::PathHistory* history = advisor.HistoryFor("x");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->update_times_ms.size(), 2u);
  EXPECT_EQ(history->change_count, history->update_times_ms.size());
  EXPECT_DOUBLE_EQ(history->mean_change_lines, 2.0);  // Added 2, deleted 2.
}

TEST_F(RiskTest, FreshConfigByKnownAuthorIsLowRisk) {
  Touch("cfg", "alice", 100);
  RiskAssessment assessment = Assess("cfg", "alice", 102);
  EXPECT_FALSE(assessment.high_risk);
  EXPECT_EQ(assessment.score, 0);
}

TEST_F(RiskTest, DormantConfigFlagged) {
  Touch("cfg", "alice", 1);
  RiskAssessment assessment = Assess("cfg", "alice", 400);
  ASSERT_FALSE(assessment.reasons.empty());
  EXPECT_NE(assessment.reasons[0].find("dormant"), std::string::npos);
  EXPECT_GE(assessment.score, 1.0);
}

TEST_F(RiskTest, HighlySharedConfigFlagged) {
  for (int i = 0; i < 12; ++i) {
    Touch("shared", "eng" + std::to_string(i), i + 1,
          "v" + std::to_string(i) + "\n");
  }
  RiskAssessment assessment = Assess("shared", "eng0", 13);
  bool found = false;
  for (const std::string& reason : assessment.reasons) {
    if (reason.find("highly shared") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RiskTest, FirstTimeAuthorNoted) {
  Touch("cfg", "alice", 10);
  RiskAssessment assessment = Assess("cfg", "stranger", 11);
  bool found = false;
  for (const std::string& reason : assessment.reasons) {
    if (reason.find("never been updated by stranger") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // A single mild signal alone is not high-risk.
  EXPECT_FALSE(assessment.high_risk);
}

TEST_F(RiskTest, DormantPlusSharedIsHighRisk) {
  for (int i = 0; i < 12; ++i) {
    Touch("critical", "eng" + std::to_string(i), i + 1,
          "v" + std::to_string(i) + "\n");
  }
  // 300 days later a new author rewrites it: dormant + shared + first-time.
  RiskAssessment assessment = Assess("critical", "newbie", 320);
  EXPECT_TRUE(assessment.high_risk);
  EXPECT_GE(assessment.reasons.size(), 3u);
}

TEST_F(RiskTest, UnusuallyLargeChangeFlagged) {
  // History of tiny changes.
  for (int i = 0; i < 5; ++i) {
    Touch("tiny", "alice", i + 1, "line1\nv" + std::to_string(i) + "\n");
  }
  std::string huge(200, 'x');
  std::string big_content;
  for (int i = 0; i < 120; ++i) {
    big_content += "line " + std::to_string(i) + "\n";
  }
  RiskAssessment assessment = Assess("tiny", "alice", 10, big_content);
  bool found = false;
  for (const std::string& reason : assessment.reasons) {
    if (reason.find("historical mean") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RiskTest, DeletionNoted) {
  Touch("cfg", "alice", 1);
  RiskAssessment assessment = Assess("cfg", "alice", 2, std::nullopt);
  bool found = false;
  for (const std::string& reason : assessment.reasons) {
    if (reason.find("deleted") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RiskTest, HighFanInFlaggedWithDeps) {
  Touch("shared.cinc", "alice", 1);
  DependencyService deps;
  for (int i = 0; i < 15; ++i) {
    deps.UpdateEntry("entry" + std::to_string(i) + ".cconf", {"shared.cinc"});
  }
  RiskAssessment assessment = Assess("shared.cinc", "alice", 2, "new\n", &deps);
  bool found = false;
  for (const std::string& reason : assessment.reasons) {
    if (reason.find("entry configs depend on") != std::string::npos) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(RiskTest, NewPathHasNoSignals) {
  Touch("existing", "alice", 1);
  RiskAssessment assessment = Assess("brand-new", "alice", 400);
  EXPECT_TRUE(assessment.reasons.empty());
  EXPECT_FALSE(assessment.high_risk);
}

}  // namespace
}  // namespace configerator
