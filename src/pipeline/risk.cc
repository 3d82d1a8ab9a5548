#include "src/pipeline/risk.h"

#include <algorithm>
#include <utility>

#include "src/util/strings.h"
#include "src/vcs/diff.h"

namespace configerator {

// How far back a first index walks; older history does not feed the scores.
constexpr size_t kMaxHistoryCommits = 10'000;

Status RiskAdvisor::IndexHistory(const Repository& repo) {
  if (repo.head() == last_indexed_) {
    return OkStatus();  // Already current.
  }
  // First parents from head back to the last indexed head, newest first.
  std::vector<std::pair<ObjectId, CommitObject>> fresh;
  for (std::optional<ObjectId> id = repo.head();
       id.has_value() && id != last_indexed_ &&
       fresh.size() < kMaxHistoryCommits;) {
    ASSIGN_OR_RETURN(CommitObject commit, repo.GetCommit(*id));
    fresh.emplace_back(*id, std::move(commit));
    const std::vector<ObjectId>& parents = fresh.back().second.parents;
    id = parents.empty() ? std::nullopt : std::optional(parents.front());
  }
  std::optional<ObjectId> previous = last_indexed_;
  for (auto it = fresh.rbegin(); it != fresh.rend(); ++it) {
    const auto& [commit_id, commit] = *it;
    ASSIGN_OR_RETURN(std::vector<FileDelta> deltas,
                     repo.DiffCommits(previous, commit_id));
    for (const FileDelta& delta : deltas) {
      PathHistory& entry = history_[delta.path];
      entry.update_times_ms.push_back(commit.timestamp_ms);
      entry.authors.insert(commit.author);
      // Change size: line diff of the two blobs; a missing side is empty.
      std::string old_text;
      std::string new_text;
      if (delta.old_blob.has_value()) {
        ASSIGN_OR_RETURN(old_text, repo.store().GetBlob(*delta.old_blob));
      }
      if (delta.new_blob.has_value()) {
        ASSIGN_OR_RETURN(new_text, repo.store().GetBlob(*delta.new_blob));
      }
      double lines =
          static_cast<double>(DiffLines(old_text, new_text).changed_lines());
      entry.mean_change_lines =
          (entry.mean_change_lines * static_cast<double>(entry.change_count) +
           lines) /
          static_cast<double>(entry.change_count + 1);
      ++entry.change_count;
    }
    previous = commit_id;
  }
  last_indexed_ = repo.head();
  return OkStatus();
}

const RiskAdvisor::PathHistory* RiskAdvisor::HistoryFor(
    const std::string& path) const {
  auto it = history_.find(path);
  return it == history_.end() ? nullptr : &it->second;
}

RiskAssessment RiskAdvisor::Assess(
    const ProposedDiff& diff, const DependencyService* deps,
    const std::map<std::string, std::optional<std::set<std::string>>>*
        changed_symbols,
    const std::vector<SymbolImpact>* impacts,
    const std::vector<InvariantOutcome>* invariants) const {
  RiskAssessment assessment;

  // Invariants newly in jeopardy: the diff did not break them, but it
  // removed the abstract proof that they *cannot* break — the joint
  // consistency now rests on the specific values at head. Violated outcomes
  // block at Sandcastle and are not double-counted here.
  if (invariants != nullptr) {
    for (const InvariantOutcome& outcome : *invariants) {
      if (outcome.status == InvariantStatus::kInJeopardy) {
        assessment.score += 0.75;
        assessment.reasons.push_back(
            "invariant '" + outcome.name +
            "' is in jeopardy: it holds concretely but is no longer "
            "abstractly provable (" + outcome.detail + ")");
      }
    }
  }

  for (const FileWrite& write : diff.writes) {
    const PathHistory* history = HistoryFor(write.path);
    if (history == nullptr) {
      continue;  // New path: no history-based signal.
    }

    // Dormant config suddenly changed.
    if (!history->update_times_ms.empty() && diff.timestamp_ms > 0) {
      int64_t idle = diff.timestamp_ms - history->update_times_ms.back();
      if (idle >= options_.dormant_ms) {
        assessment.score += 1.0;
        assessment.reasons.push_back(StrFormat(
            "%s has been dormant for %lld days", write.path.c_str(),
            static_cast<long long>(idle / (24LL * 3600 * 1000))));
      }
    }

    // Highly-shared config.
    if (history->authors.size() >= options_.shared_author_threshold) {
      assessment.score += 1.0;
      assessment.reasons.push_back(StrFormat(
          "%s is highly shared (%zu distinct authors)", write.path.c_str(),
          history->authors.size()));
    }

    // First-time author on a config others own.
    if (!history->authors.empty() && history->authors.count(diff.author) == 0) {
      assessment.score += 0.5;
      assessment.reasons.push_back(StrFormat(
          "%s has never been updated by %s before", write.path.c_str(),
          diff.author.c_str()));
    }

    // Unusually large change vs this config's own history.
    if (write.content.has_value() && history->change_count >= 3 &&
        history->mean_change_lines > 0) {
      // The proposed change size is unknown without the base content; use
      // the new content's line count as an upper bound when the file is
      // being replaced wholesale, which is the risky case.
      double new_lines = static_cast<double>(SplitLines(*write.content).size());
      if (new_lines >
          history->mean_change_lines * options_.unusual_size_multiplier &&
          new_lines > 20) {
        assessment.score += 1.0;
        assessment.reasons.push_back(StrFormat(
            "%s: change touches ~%.0f lines vs a historical mean of %.1f",
            write.path.c_str(), new_lines, history->mean_change_lines));
      }
    }

    // Deleting a config many entries depend on.
    if (!write.content.has_value()) {
      assessment.score += 0.5;
      assessment.reasons.push_back(write.path + " is being deleted");
    }

    // High fan-in source file. With a symbol-level view of the edit, count
    // only entries that consume a changed symbol — the true blast radius —
    // instead of every file-level dependent. With a semantic classification
    // of the edit, weight by the worst impact on this path: blast radius is
    // fan-in times severity, not fan-in alone.
    if (deps != nullptr) {
      size_t fan_in = deps->EntriesAffectedBy({write.path}).size();
      bool symbol_refined = false;
      if (changed_symbols != nullptr) {
        auto it = changed_symbols->find(write.path);
        if (it != changed_symbols->end() && it->second.has_value()) {
          fan_in = deps->EntriesAffectedBySymbols(write.path, *it->second).size();
          symbol_refined = true;
        }
      }
      int max_severity = -1;  // -1 = no semantic view of this path.
      if (impacts != nullptr) {
        for (const SymbolImpact& impact : *impacts) {
          if (impact.file == write.path) {
            max_severity = std::max(max_severity, impact.severity());
          }
        }
      }
      if (fan_in >= options_.fan_in_threshold) {
        if (max_severity == 0) {
          assessment.reasons.push_back(StrFormat(
              "%s has %zu dependents but the edit is provably no-op; "
              "fan-in signal skipped",
              write.path.c_str(), fan_in));
        } else {
          static constexpr double kSeverityWeight[4] = {0.0, 0.5, 1.0, 1.5};
          double weight =
              max_severity < 0 ? 1.0 : kSeverityWeight[max_severity];
          assessment.score += weight;
          std::string reason = StrFormat(
              "%zu entry configs %s %s", fan_in,
              symbol_refined ? "consume symbols changed in" : "depend on",
              write.path.c_str());
          if (max_severity > 0) {
            reason += StrFormat(
                " (worst semantic impact: %s, weight %.1f)",
                std::string(ImpactKindName(
                                static_cast<ImpactKind>(max_severity)))
                    .c_str(),
                weight);
          }
          assessment.reasons.push_back(std::move(reason));
        }
      }
    }
  }

  assessment.high_risk = assessment.score >= options_.high_risk_score;
  return assessment;
}

}  // namespace configerator
