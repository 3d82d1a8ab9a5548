// An immutable compiled snapshot of every live Gatekeeper project, shared
// by all worker threads (paper §4: gating logic is evaluated "billions of
// times per second" across many threads while configs are swapped live
// underneath it).
//
// Concurrency model:
//   * Everything reachable from a snapshot is logically immutable — project
//     map, rules, evaluation orders, restraints. Check() is const and
//     thread-safe; any number of threads can evaluate one snapshot forever.
//   * The only mutable state is execution statistics, kept in striped
//     relaxed atomics: each thread bumps its own stripe (separate cache
//     lines), so the hot path never contends and never locks. FoldStats()
//     sums the stripes; the runtime's epoch job uses the fold to compute a
//     better evaluation order for the *next* snapshot — reordering never
//     happens in place.
//   * Stats blocks are shared (by shared_ptr) between snapshot generations
//     whose compiled project did not change, so learning survives both
//     unrelated config updates and epoch reorders. Statistics are indexed
//     by *declared* restraint position, which is stable across reorders.
//
// Versioning: snapshots carry a monotonically increasing version; the
// runtime publishes them RCU-style (readers finish in-flight checks on the
// old snapshot, new checks see the new one).

#ifndef SRC_GATEKEEPER_SNAPSHOT_H_
#define SRC_GATEKEEPER_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/gatekeeper/compile.h"

namespace configerator {

// Per-restraint evaluation counters for one stripe. Relaxed atomics: the
// counts are statistics, not synchronization — exactness at a fold point is
// guaranteed only once the writing threads have quiesced (joined).
struct RestraintCell {
  std::atomic<uint64_t> evals{0};
  std::atomic<uint64_t> passes{0};
};

// Striped statistics for one compiled project. Stripe s holds a private
// array of cells (one per restraint, flattened across rules); threads map to
// stripes by a cheap thread-local slot id, so concurrent writers touch
// disjoint allocations.
class ProjectStats {
 public:
  static constexpr size_t kStripes = 8;

  explicit ProjectStats(size_t restraint_count);

  // The calling thread's stripe.
  RestraintCell* StripeCells();

  // Folded (summed over stripes) totals, indexed like StripeCells.
  struct Folded {
    uint64_t evals = 0;
    uint64_t passes = 0;
    double pass_rate(double if_unobserved = 0.5) const {
      return evals == 0 ? if_unobserved
                        : static_cast<double>(passes) /
                              static_cast<double>(evals);
    }
  };
  std::vector<Folded> Fold() const;

  size_t restraint_count() const { return restraint_count_; }

 private:
  struct Stripe {
    std::unique_ptr<RestraintCell[]> cells;
  };
  size_t restraint_count_;
  std::array<Stripe, kStripes> stripes_;
};

// One project compiled into a snapshot: the shared spec plus a baked
// evaluation order per rule and the (possibly shared) stats block.
class CompiledProject {
 public:
  // `orders` must contain one permutation of [0, restraints) per rule;
  // empty → declared order. `stats` empty → fresh stats.
  CompiledProject(CompiledProjectSpec spec,
                  std::vector<std::vector<size_t>> orders,
                  std::shared_ptr<ProjectStats> stats);

  const std::string& name() const { return spec_.name; }
  const CompiledProjectSpec& spec() const { return spec_; }
  const std::vector<std::vector<size_t>>& orders() const { return orders_; }
  const std::shared_ptr<ProjectStats>& stats() const { return stats_; }

  // Thread-safe const check: evaluates rules in declared order, each
  // conjunction in this snapshot's baked order, recording stats into the
  // calling thread's stripe.
  bool Check(const UserContext& user, const LaserStore* laser) const;

  // Execution-statistics view per rule, in this snapshot's evaluation order.
  struct RestraintStatsView {
    std::string type;
    double cost = 0;
    uint64_t evals = 0;
    uint64_t passes = 0;
    double pass_rate() const {
      return evals == 0 ? 0.0
                        : static_cast<double>(passes) /
                              static_cast<double>(evals);
    }
  };
  std::vector<std::vector<RestraintStatsView>> StatsView() const;

  size_t restraint_count() const { return stats_->restraint_count(); }

 private:
  friend class GatekeeperSnapshot;

  CompiledProjectSpec spec_;
  std::vector<std::vector<size_t>> orders_;  // Per rule, over its restraints.
  std::vector<size_t> rule_base_;            // Flattened stats offset per rule.
  std::shared_ptr<ProjectStats> stats_;
};

// The immutable project map one version of the world. Built only by
// GatekeeperRuntime's writer path; readers hold it via shared_ptr and never
// block.
class GatekeeperSnapshot {
 public:
  using ProjectMap =
      std::map<std::string, std::shared_ptr<const CompiledProject>, std::less<>>;

  GatekeeperSnapshot(uint64_t version, ProjectMap projects)
      : version_(version), projects_(std::move(projects)) {}

  uint64_t version() const { return version_; }
  size_t project_count() const { return projects_.size(); }

  const CompiledProject* Find(std::string_view project) const {
    auto it = projects_.find(project);
    return it == projects_.end() ? nullptr : it->second.get();
  }
  const ProjectMap& projects() const { return projects_; }

 private:
  uint64_t version_;
  ProjectMap projects_;
};

// Computes the cost-based evaluation order for each rule from folded stats:
// ascending cost / P(short-circuit), i.e. cheap, usually-false restraints
// first (the paper's SQL-style optimization). Unobserved restraints assume a
// 0.5 pass rate. Stable, so ties keep declared order.
std::vector<std::vector<size_t>> CostBasedOrders(
    const CompiledProjectSpec& spec, const std::vector<ProjectStats::Folded>& folded);

// Declared-order permutations (the identity), one per rule.
std::vector<std::vector<size_t>> DeclaredOrders(const CompiledProjectSpec& spec);

}  // namespace configerator

#endif  // SRC_GATEKEEPER_SNAPSHOT_H_
