#include <gtest/gtest.h>

#include <algorithm>

#include "src/util/rng.h"
#include "src/vcs/diff.h"
#include "src/vcs/multirepo.h"
#include "src/vcs/objects.h"
#include "src/vcs/repository.h"

namespace configerator {
namespace {

// ---- Objects ----------------------------------------------------------------

TEST(ObjectStoreTest, BlobRoundTrip) {
  ObjectStore store;
  ObjectId id = store.PutBlob("hello");
  auto blob = store.GetBlob(id);
  ASSERT_TRUE(blob.ok());
  EXPECT_EQ(*blob, "hello");
}

TEST(ObjectStoreTest, PutIsIdempotent) {
  ObjectStore store;
  ObjectId a = store.PutBlob("same");
  ObjectId b = store.PutBlob("same");
  EXPECT_EQ(a, b);
  EXPECT_EQ(store.object_count(), 1u);
}

TEST(ObjectStoreTest, DistinctContentDistinctIds) {
  ObjectStore store;
  EXPECT_NE(store.PutBlob("a"), store.PutBlob("b"));
}

TEST(ObjectStoreTest, KindConfusionRejected) {
  ObjectStore store;
  ObjectId blob = store.PutBlob("data");
  auto as_tree = store.GetTree(blob);
  EXPECT_EQ(as_tree.status().code(), StatusCode::kCorruption);
}

TEST(ObjectStoreTest, MissingObjectNotFound) {
  ObjectStore store;
  EXPECT_EQ(store.GetBlob(Sha256::Hash("ghost")).status().code(),
            StatusCode::kNotFound);
}

TEST(TreeObjectTest, EncodeDecodeRoundTrip) {
  TreeObject tree;
  tree.entries["file.json"] = {Sha256::Hash("f"), false};
  tree.entries["subdir"] = {Sha256::Hash("d"), true};
  tree.entries["name with spaces"] = {Sha256::Hash("s"), false};
  auto decoded = TreeObject::Decode(tree.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->entries, tree.entries);
}

TEST(TreeObjectTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(TreeObject::Decode("not a tree").ok());
  EXPECT_FALSE(TreeObject::Decode("x " + std::string(64, 'a') + " name\n").ok());
}

TEST(CommitObjectTest, EncodeDecodeRoundTrip) {
  CommitObject commit;
  commit.tree = Sha256::Hash("tree");
  commit.parents = {Sha256::Hash("p1"), Sha256::Hash("p2")};
  commit.author = "alice";
  commit.message = "multi\nline\nmessage";
  commit.timestamp_ms = 123456789;
  auto decoded = CommitObject::Decode(commit.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->tree, commit.tree);
  EXPECT_EQ(decoded->parents, commit.parents);
  EXPECT_EQ(decoded->author, commit.author);
  EXPECT_EQ(decoded->message, commit.message);
  EXPECT_EQ(decoded->timestamp_ms, commit.timestamp_ms);
}

// ---- Diff --------------------------------------------------------------------

TEST(DiffTest, IdenticalTexts) {
  LineDiff diff = DiffLines("a\nb\n", "a\nb\n");
  EXPECT_TRUE(diff.identical());
  EXPECT_EQ(diff.changed_lines(), 0u);
}

TEST(DiffTest, SingleLineModificationCountsTwo) {
  // Unix diff semantics (Table 2): modify = delete + add.
  LineDiff diff = DiffLines("a\nb\nc\n", "a\nB\nc\n");
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.deleted, 1u);
  EXPECT_EQ(diff.changed_lines(), 2u);
}

TEST(DiffTest, PureAddition) {
  LineDiff diff = DiffLines("a\nc\n", "a\nb\nc\n");
  EXPECT_EQ(diff.added, 1u);
  EXPECT_EQ(diff.deleted, 0u);
}

TEST(DiffTest, PureDeletion) {
  LineDiff diff = DiffLines("a\nb\nc\n", "a\nc\n");
  EXPECT_EQ(diff.added, 0u);
  EXPECT_EQ(diff.deleted, 1u);
}

TEST(DiffTest, EmptyToContent) {
  LineDiff diff = DiffLines("", "x\ny\n");
  EXPECT_EQ(diff.added, 2u);
  EXPECT_EQ(diff.deleted, 0u);
}

TEST(DiffTest, RenderShowsOnlyChanges) {
  LineDiff diff = DiffLines("keep\nold\n", "keep\nnew\n");
  std::string rendered = RenderDiff(diff);
  EXPECT_EQ(rendered, "-old\n+new\n");
}

TEST(DiffTest, OpsReconstructBothSides) {
  // Property: keeps+deletes = old, keeps+adds = new.
  std::string old_text = "a\nb\nc\nd\ne\n";
  std::string new_text = "a\nx\nc\ny\ne\nz\n";
  LineDiff diff = DiffLines(old_text, new_text);
  std::string old_rebuilt;
  std::string new_rebuilt;
  for (const DiffOp& op : diff.ops) {
    if (op.kind != DiffOp::Kind::kAdd) {
      old_rebuilt += op.text + "\n";
    }
    if (op.kind != DiffOp::Kind::kDelete) {
      new_rebuilt += op.text + "\n";
    }
  }
  EXPECT_EQ(old_rebuilt, old_text);
  EXPECT_EQ(new_rebuilt, new_text);
}

class DiffPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DiffPropertyTest, RandomEditsReconstruct) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    size_t n = 1 + rng.NextBounded(60);
    std::vector<std::string> lines;
    for (size_t i = 0; i < n; ++i) {
      lines.push_back("line" + std::to_string(rng.NextBounded(20)));
    }
    std::vector<std::string> edited = lines;
    size_t edits = rng.NextBounded(10);
    for (size_t e = 0; e < edits && !edited.empty(); ++e) {
      size_t pos = rng.NextBounded(edited.size());
      switch (rng.NextBounded(3)) {
        case 0:
          edited[pos] = "edited" + std::to_string(rng.NextBounded(100));
          break;
        case 1:
          edited.erase(edited.begin() + static_cast<long>(pos));
          break;
        default:
          edited.insert(edited.begin() + static_cast<long>(pos),
                        "inserted" + std::to_string(rng.NextBounded(100)));
      }
    }
    auto join = [](const std::vector<std::string>& v) {
      std::string out;
      for (const std::string& s : v) {
        out += s + "\n";
      }
      return out;
    };
    std::string old_text = join(lines);
    std::string new_text = join(edited);
    LineDiff diff = DiffLines(old_text, new_text);
    std::string old_rebuilt;
    std::string new_rebuilt;
    for (const DiffOp& op : diff.ops) {
      if (op.kind != DiffOp::Kind::kAdd) {
        old_rebuilt += op.text + "\n";
      }
      if (op.kind != DiffOp::Kind::kDelete) {
        new_rebuilt += op.text + "\n";
      }
    }
    EXPECT_EQ(old_rebuilt, old_text);
    EXPECT_EQ(new_rebuilt, new_text);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DiffPropertyTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---- Repository ---------------------------------------------------------------

TEST(RepositoryTest, CommitAndRead) {
  Repository repo;
  auto commit = repo.Commit("alice", "init",
                            {{"feed/a.json", "content-a"},
                             {"tao/b.json", "content-b"}});
  ASSERT_TRUE(commit.ok()) << commit.status();
  EXPECT_EQ(*repo.ReadFile("feed/a.json"), "content-a");
  EXPECT_EQ(*repo.ReadFile("tao/b.json"), "content-b");
  EXPECT_EQ(repo.file_count(), 2u);
  EXPECT_EQ(repo.commit_count(), 1u);
}

TEST(RepositoryTest, OverwriteAndDelete) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"x", "v1"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"x", "v2"}}).ok());
  EXPECT_EQ(*repo.ReadFile("x"), "v2");
  ASSERT_TRUE(repo.Commit("a", "3", {{"x", std::nullopt}}).ok());
  EXPECT_FALSE(repo.FileExists("x"));
  EXPECT_EQ(repo.ReadFile("x").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, DeleteNonexistentFails) {
  Repository repo;
  EXPECT_FALSE(repo.Commit("a", "del", {{"ghost", std::nullopt}}).ok());
}

TEST(RepositoryTest, PathValidation) {
  Repository repo;
  EXPECT_FALSE(repo.Commit("a", "m", {{"", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"/abs", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"dir/", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"a//b", "x"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "m", {{"bad\nname", "x"}}).ok());
}

TEST(RepositoryTest, HistoricalReads) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"cfg", "v1"}});
  auto c2 = repo.Commit("a", "2", {{"cfg", "v2"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_EQ(*repo.ReadFileAt(*c1, "cfg"), "v1");
  EXPECT_EQ(*repo.ReadFileAt(*c2, "cfg"), "v2");
}

TEST(RepositoryTest, LogWalksFirstParents) {
  Repository repo;
  std::vector<ObjectId> commits;
  for (int i = 0; i < 5; ++i) {
    auto c = repo.Commit("a", "m" + std::to_string(i),
                         {{"f", "v" + std::to_string(i)}});
    ASSERT_TRUE(c.ok());
    commits.push_back(*c);
  }
  auto log = repo.Log(10);
  ASSERT_TRUE(log.ok());
  ASSERT_EQ(log->size(), 5u);
  EXPECT_EQ((*log)[0], commits[4]);  // Newest first.
  EXPECT_EQ((*log)[4], commits[0]);

  auto limited = repo.Log(2);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(limited->size(), 2u);
}

TEST(RepositoryTest, CommitMetadataPreserved) {
  Repository repo;
  auto c = repo.Commit("bob", "my message", {{"f", "v"}}, 777);
  ASSERT_TRUE(c.ok());
  auto commit = repo.GetCommit(*c);
  ASSERT_TRUE(commit.ok());
  EXPECT_EQ(commit->author, "bob");
  EXPECT_EQ(commit->message, "my message");
  EXPECT_EQ(commit->timestamp_ms, 777);
}

TEST(RepositoryTest, ListFilesUnderPrefix) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "m",
                          {{"feed/a", "1"}, {"feed/b", "2"}, {"tao/c", "3"}})
                  .ok());
  auto feed = repo.ListFilesUnder("feed/");
  EXPECT_EQ(feed.size(), 2u);
  auto all = repo.ListFiles();
  EXPECT_EQ(all.size(), 3u);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end()));
}

TEST(RepositoryTest, DiffCommits) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"keep", "same"}, {"mod", "v1"}, {"del", "x"}});
  auto c2 = repo.Commit("a", "2",
                        {{"mod", "v2"}, {"del", std::nullopt}, {"new", "y"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  auto deltas = repo.DiffCommits(*c1, *c2);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 3u);
  std::map<std::string, FileDelta::Kind> by_path;
  for (const FileDelta& d : *deltas) {
    by_path[d.path] = d.kind;
  }
  EXPECT_EQ(by_path.at("mod"), FileDelta::Kind::kModified);
  EXPECT_EQ(by_path.at("del"), FileDelta::Kind::kDeleted);
  EXPECT_EQ(by_path.at("new"), FileDelta::Kind::kAdded);
}

TEST(RepositoryTest, DiffAgainstEmptyHistory) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"f", "v"}});
  ASSERT_TRUE(c1.ok());
  auto deltas = repo.DiffCommits(std::nullopt, *c1);
  ASSERT_TRUE(deltas.ok());
  ASSERT_EQ(deltas->size(), 1u);
  EXPECT_EQ((*deltas)[0].kind, FileDelta::Kind::kAdded);
}

TEST(RepositoryTest, DiffCommitsCarriesBlobIds) {
  Repository repo;
  auto c1 = repo.Commit("a", "1",
                        {{"keep", "same"}, {"mod", "v1"}, {"del", "x"},
                         {"f2d", "file"}, {"d2f/inner", "nested"}});
  ASSERT_TRUE(c1.ok());
  // File -> directory in one batch; directory -> file needs the directory
  // emptied first.
  ASSERT_TRUE(repo.Commit("a", "2",
                          {{"mod", "v2"}, {"del", std::nullopt}, {"new", "y"},
                           {"f2d", std::nullopt}, {"f2d/child", "c"},
                           {"d2f/inner", std::nullopt}})
                  .ok());
  auto c3 = repo.Commit("a", "3", {{"d2f", "now a file"}});
  ASSERT_TRUE(c3.ok());

  auto deltas = repo.DiffCommits(*c1, *c3);
  ASSERT_TRUE(deltas.ok());
  std::map<std::string, FileDelta::Kind> by_path;
  for (const FileDelta& d : *deltas) {
    by_path[d.path] = d.kind;
    // Each side's id is set exactly when the path-addressed read finds a
    // file there, and names the same content.
    for (const auto& [blob, commit] :
         {std::pair{d.old_blob, *c1}, std::pair{d.new_blob, *c3}}) {
      auto by_path_read = repo.ReadFileAt(commit, d.path);
      ASSERT_EQ(blob.has_value(), by_path_read.ok()) << d.path;
      if (blob.has_value()) {
        auto by_id = repo.store().GetBlob(*blob);
        ASSERT_TRUE(by_id.ok()) << d.path;
        EXPECT_EQ(*by_id, *by_path_read) << d.path;
      }
    }
  }
  std::map<std::string, FileDelta::Kind> expected = {
      {"mod", FileDelta::Kind::kModified},  {"del", FileDelta::Kind::kDeleted},
      {"new", FileDelta::Kind::kAdded},     {"f2d", FileDelta::Kind::kDeleted},
      {"f2d/child", FileDelta::Kind::kAdded},
      {"d2f/inner", FileDelta::Kind::kDeleted},
      {"d2f", FileDelta::Kind::kAdded}};
  EXPECT_EQ(by_path, expected);
  EXPECT_EQ(deltas->size(), expected.size());
}

TEST(RepositoryTest, NestedDirectoriesPrunedOnDelete) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"x/y/z/file", "v"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"x/y/z/file", std::nullopt}}).ok());
  // Re-adding under the pruned directory works.
  ASSERT_TRUE(repo.Commit("a", "3", {{"x/y/other", "w"}}).ok());
  EXPECT_EQ(*repo.ReadFile("x/y/other"), "w");
}

TEST(RepositoryTest, ContentAddressingDeduplicates) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"f1", "same content"}}).ok());
  size_t objects_before = repo.store().object_count();
  ASSERT_TRUE(repo.Commit("a", "2", {{"f2", "same content"}}).ok());
  // Only new tree + commit objects; the blob is shared.
  EXPECT_LE(repo.store().object_count(), objects_before + 2);
}

TEST(RepositoryTest, FileToDirectoryTransition) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"path", "file"}}).ok());
  ASSERT_TRUE(repo.Commit("a", "2", {{"path", std::nullopt}}).ok());
  ASSERT_TRUE(repo.Commit("a", "3", {{"path/nested", "v"}}).ok());
  EXPECT_EQ(*repo.ReadFile("path/nested"), "v");
}

TEST(RepositoryTest, FileDirectoryNamespaceCollisionsRejected) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"a", "file"}}).ok());
  // A path through an existing file is invalid...
  EXPECT_FALSE(repo.Commit("a", "2", {{"a/b", "nested"}}).ok());
  // ...and a file over an existing directory is invalid.
  ASSERT_TRUE(repo.Commit("a", "3", {{"dir/child", "v"}}).ok());
  EXPECT_FALSE(repo.Commit("a", "4", {{"dir", "file"}}).ok());
  // State was not corrupted by the rejected writes.
  EXPECT_EQ(*repo.ReadFile("a"), "file");
  EXPECT_EQ(*repo.ReadFile("dir/child"), "v");
}

TEST(RepositoryTest, FailedBatchLeavesNoPhantomState) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "1", {{"exists", "v"}}).ok());
  // Batch whose second write is invalid: the first must not leak.
  auto bad = repo.Commit("a", "2",
                         {{"new_file", "content"}, {"ghost", std::nullopt}});
  ASSERT_FALSE(bad.ok());
  EXPECT_FALSE(repo.FileExists("new_file"));
  EXPECT_EQ(repo.file_count(), 1u);
  EXPECT_EQ(repo.commit_count(), 1u);
  // And the repository is still fully functional.
  ASSERT_TRUE(repo.Commit("a", "3", {{"new_file", "content"}}).ok());
  EXPECT_EQ(*repo.ReadFile("new_file"), "content");
}

TEST(RepositoryTest, BatchInternalCreateThenDeleteAllowed) {
  Repository repo;
  auto c = repo.Commit("a", "m",
                       {{"temp", "v"}, {"temp", std::nullopt}, {"keep", "k"}});
  ASSERT_TRUE(c.ok()) << c.status();
  EXPECT_FALSE(repo.FileExists("temp"));
  EXPECT_TRUE(repo.FileExists("keep"));
}

TEST(RepositoryTest, EmptyCommitAllowed) {
  Repository repo;
  auto c = repo.Commit("automation", "heartbeat", {});
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(repo.commit_count(), 1u);
  EXPECT_EQ(repo.file_count(), 0u);
}

TEST(RepositoryTest, LogOnEmptyRepo) {
  Repository repo;
  auto log = repo.Log(10);
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->empty());
  EXPECT_FALSE(repo.head().has_value());
}

TEST(RepositoryTest, StoreTracksBytes) {
  Repository repo;
  ASSERT_TRUE(repo.Commit("a", "m", {{"f", "0123456789"}}).ok());
  EXPECT_GT(repo.store().total_bytes(), 10u);  // Blob + tree + commit.
}

TEST(RepositoryTest, ReadFileAtRejectsDirectoryPath) {
  Repository repo;
  auto c = repo.Commit("a", "m", {{"dir/file", "v"}});
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(repo.ReadFileAt(*c, "dir").ok());
  EXPECT_FALSE(repo.ReadFileAt(*c, "dir/file/extra").ok());
  EXPECT_EQ(repo.ReadFileAt(*c, "nope").status().code(), StatusCode::kNotFound);
}

TEST(RepositoryTest, SameContentCommitStillAdvancesHead) {
  Repository repo;
  auto c1 = repo.Commit("a", "1", {{"f", "same"}});
  auto c2 = repo.Commit("a", "2", {{"f", "same"}});
  ASSERT_TRUE(c1.ok());
  ASSERT_TRUE(c2.ok());
  EXPECT_NE(*c1, *c2);  // Distinct commits (different parents/messages)...
  auto deltas = repo.DiffCommits(*c1, *c2);
  ASSERT_TRUE(deltas.ok());
  EXPECT_TRUE(deltas->empty());  // ...but no content difference.
}

// ---- MultiRepo -----------------------------------------------------------------

TEST(MultiRepoTest, PartitionRouting) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.AddPartition("tao/").ok());
  auto commits = multi.Commit("a", "m",
                              {{"feed/x", "1"}, {"tao/y", "2"}, {"misc/z", "3"}});
  ASSERT_TRUE(commits.ok());
  EXPECT_EQ(commits->size(), 3u);  // Three partitions touched.
  EXPECT_EQ(*multi.ReadFile("feed/x"), "1");
  EXPECT_EQ(*multi.ReadFile("tao/y"), "2");
  EXPECT_EQ(*multi.ReadFile("misc/z"), "3");

  // Per-partition isolation: feed's repo only holds feed files.
  EXPECT_EQ(multi.RepoFor("feed/x")->file_count(), 1u);
}

TEST(MultiRepoTest, LongestPrefixWins) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.AddPartition("feed/ranking/").ok());
  ASSERT_TRUE(multi.Commit("a", "m", {{"feed/ranking/model", "v"}}).ok());
  EXPECT_EQ(multi.RepoFor("feed/ranking/model")->name(), "feed/ranking/");
}

TEST(MultiRepoTest, DuplicatePartitionRejected) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  EXPECT_EQ(multi.AddPartition("feed/").code(), StatusCode::kAlreadyExists);
  EXPECT_FALSE(multi.AddPartition("").ok());
}

TEST(MultiRepoTest, ListFilesSpansPartitions) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.Commit("a", "m", {{"feed/b", "1"}, {"a", "2"}}).ok());
  auto files = multi.ListFiles();
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(files[0], "a");
  EXPECT_EQ(files[1], "feed/b");
}

TEST(MultiRepoTest, FileExists) {
  MultiRepo multi;
  ASSERT_TRUE(multi.AddPartition("feed/").ok());
  ASSERT_TRUE(multi.Commit("a", "m", {{"feed/x", "1"}}).ok());
  EXPECT_TRUE(multi.FileExists("feed/x"));
  EXPECT_FALSE(multi.FileExists("feed/y"));
}

}  // namespace
}  // namespace configerator
