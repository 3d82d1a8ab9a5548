// commit_storm: config commits driven one at a time through the whole
// control plane of ConfigManagementStack — ProposeChange (compile + CI),
// Approve, TestAndLand with the default two-phase canary, then the simulator
// until every subscribed proxy holds the commit's outputs.
//
// The repository is the 980-file synthetic repo of bench/synthetic_repo.h
// plus a hot module star-imported by 200 entries, 20 Gatekeeper projects and
// a small invariant registry. 40 app servers each subscribe to 20 of the 800
// outputs; 10 of them also subscribe to every project and feed a
// GatekeeperRuntime. A 16-host ProxyFleet of frontend servers also holds
// every project. The seed picks the files each commit touches.

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "bench/synthetic_repo.h"
#include "perfbench/src/common.h"
#include "perfbench/src/gk_projects.h"
#include "src/analysis/absint.h"
#include "src/core/stack.h"
#include "src/distribution/fleet.h"
#include "src/gatekeeper/naive.h"
#include "src/gatekeeper/runtime.h"
#include "src/util/rng.h"
#include "src/util/strings.h"

namespace perfbench {
namespace {

using namespace configerator;

constexpr int kProjects = 20;
constexpr int kOutputsPerServer = 20;
constexpr int kGkServerEvery = 4;  // Every 4th app server runs Gatekeeper.
// The frontend fleet: hosts 14-17 of every cluster, the ones the stack's
// Zeus members, observers, tailer and the app servers leave free. Each
// Gatekeeper commit therefore also fans out through ProxyFleet.
constexpr int kFleetHostFirst = 14;
constexpr int kFleetHostLast = 17;
// The stack's tracer keeps 1 commit tree in 4, as a fleet-scale one does.
constexpr uint64_t kTraceSampleEvery = 4;
// The timed phase is split between this many worlds, each set up from the
// same seed, so set-up is timed at the start, a third and two thirds of the
// run rather than in one burst. The worlds run the same exact prefix (below);
// after it each draws its own commits, so a run covers more distinct edits
// and its figures depend less on what one seed happened to pick.
constexpr int kWorlds = 3;
// Commits come in blocks of 20 with a fixed mix in a fixed order: 7 comment
// edits, 6 module value edits, 3 hot-module edits, 3 Gatekeeper edits and 1
// planted schema break. The seed picks the files each commit touches. The
// order is fixed because a commit's cost spills into the next one (the risk
// advisor indexes commit N lazily, inside proposal N+1, so the commit after
// a hot edit pays ~0.4 s); a seeded order would move p50 and p90 with the
// number of such neighbours. Here each hot edit is followed by a comment or
// value edit, and 6 of the 19 commits that land are slow, which keeps p50
// and p90 inside a mode rather than on the edge between two.
constexpr char kBlockOrder[] = "HCVGCVCHVCGVCBHCVGVC";
constexpr int kBlock = sizeof(kBlockOrder) - 1;
// Exact per-commit counts (sim events, messages, canary sim time) are taken
// over this fixed prefix of the seeded commit sequence, so they repeat
// bit for bit whatever the host's speed; every world runs it and must agree.
constexpr int kExactPrefix = 2 * kBlock;
// The run's work is fixed, not its time: --seconds buys one block per
// kBlockSeconds of budget (at least the exact prefix per world), whatever
// the host's speed, so a slow host runs the same commits as a fast one.
constexpr double kBlockSeconds = 2.5;
constexpr SimTime kDrainCap = 10 * kSimMinute;
constexpr SimTime kCanaryCap = 60 * kSimMinute;

const char kHotModule[] = "lib/hot.cinc";
const char kPortFloor[] = "conf/port_floor.json";

bool ImportsHot(int entry) { return entry % 4 == 0; }

std::string HotSource(int version) {
  return StrFormat("HOT_TAG = \"hot:%d\"\n", version);
}

std::string EntrySource(int entry) {
  std::string source = SyntheticRepo::EntrySource(entry);
  if (!ImportsHot(entry)) {
    return source;
  }
  const std::string tail = "export_if_last(svc)\n";
  source.replace(source.rfind(tail), tail.size(),
                 "append(svc.tags, HOT_TAG)\n" + tail);
  return StrFormat("import_python(\"%s\", \"*\")\n", kHotModule) + source;
}

// Modules whose BASE_PORT is a literal (every tenth module derives its port
// from the previous one, so a port bump would not change its source).
bool HasLiteralPort(int module) { return module == 0 || module % 10 != 0; }

// The module with its port set to a string: every importer then fails the
// i32 schema check, which must reject the commit.
std::string BrokenModuleSource(int module, int rev, int bump) {
  std::string source = SyntheticRepo::ModuleSource(module, rev, bump);
  std::string key = StrFormat("BASE_PORT_%d = ", module);
  size_t at = source.find(key);
  size_t eol = source.find('\n', at);
  return source.substr(0, at) + key + "\"broken\"" + source.substr(eol);
}

std::string InvariantsJson() {
  std::string invariants;
  for (int entry : {1, 37, 222, 415, 799}) {
    invariants += StrFormat(
        R"(%s{"name": "port-floor-%03d", "kind": "ordering", "severity": "error",
     "lhs": {"config": "svc/entry%03d.json", "field": "port"}, "relation": ">=",
     "rhs": {"config": "%s", "field": "port"}})",
        invariants.empty() ? "" : ",\n    ", entry, entry, kPortFloor);
  }
  return "{\"invariants\": [\n    " + invariants + "\n]}\n";
}

enum class CommitKind { kComment, kValue, kHot, kGatekeeper, kBreak };

const char* KindName(CommitKind kind) {
  switch (kind) {
    case CommitKind::kComment: return "comment";
    case CommitKind::kValue: return "value";
    case CommitKind::kHot: return "hot";
    case CommitKind::kGatekeeper: return "gatekeeper";
    case CommitKind::kBreak: return "break";
  }
  return "?";
}

struct CommitTiming {
  CommitKind kind = CommitKind::kComment;
  bool landed = false;
  bool traced = false;
  double propose_ms = 0;
  double approve_ms = 0;
  double canary_land_ms = 0;
  double drain_ms = 0;
  double wall_ms = 0;
};

// Per-layer tallies over the traced commits.
struct LayerTally {
  SampleSet propose_ms, approve_ms, canary_land_ms, drain_ms, wall_ms;
  SampleSet untraced_wall_ms;
  double entries_compiled = 0, reanalyzed = 0, pruned = 0, invariants = 0;
  double noop_certified = 0, closure_truncated = 0, ci_commits = 0;
  double vcs_objects = 0, vcs_bytes = 0, landed = 0;
  double drain_s = 0, drain_events = 0;
  SampleSet apply_update_us;
  double stage_sum_ms = 0;  // The four stage times, summed over commits.
  double wall_sum_ms = 0;
};

// Exact counts over the first kExactPrefix commits.
struct ExactTally {
  uint64_t events = 0, messages = 0, bytes = 0;
  double canary_sim_s = 0;
  int commits = 0, landed = 0;
  SampleSet delivery_sim_s;  // Landing -> subscribed proxy, per delivery.
};

// Wall times of one world's set-up and of its phases.
struct SetupTimes {
  double total_s = 0, compile_s = 0, land_s = 0, subscribe_s = 0, warm_s = 0;
  double import_land_us = 0;  // The LandingStrip::Land call of the import.
};

class World {
 public:
  World(uint64_t seed, int index, Report* report)
      : seed_(seed),
        index_(index),
        report_(report),
        rng_(seed * 0x9E3779B97F4A7C15ULL + 11),
        stack_(StackOptions(seed)),
        healthy_(ConfigDefect::kNone, DefectServiceModel::Params{}, seed + 3),
        module_rev_(SyntheticRepo::kModules, 0),
        module_bump_(SyntheticRepo::kModules, 0),
        gk_version_(kProjects, 0) {}

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // The whole set-up, timed phase by phase.
  SetupTimes Setup();

  // The kind of the next commit in the block order.
  CommitKind NextKind();
  // One commit through the whole pipeline.
  CommitTiming RunCommit(CommitKind kind, bool traced, LayerTally* tally,
                         ExactTally* exact);

  // Output checks after the timed phase.
  void CheckOutputs();

  ConfigManagementStack& stack() { return stack_; }
  uint64_t ProxyUpdates();
  uint64_t StaleDiscarded();
  const std::map<CommitKind, int>& kind_counts() const { return kind_counts_; }

 private:
  static ConfigManagementStack::Options StackOptions(uint64_t seed) {
    ConfigManagementStack::Options options;
    options.seed = seed;
    return options;
  }

  void Subscribe(int server, const std::string& path);
  void OnUpdate(int server, const std::string& key, const std::string& value);
  void SubscribeFleet();
  // Steps the simulator until every app server and fleet host subscribed to
  // a pending path holds its expected value; false if the cap passes first.
  bool Drain(SimTime cap);
  // Marks every subscription of a changed path pending.
  void ExpectChanges(const std::map<std::string, std::string>& changed);
  std::vector<FileWrite> NextWrites(CommitKind kind);

  uint64_t seed_;
  int index_;  // Which of the run's worlds this is.
  Report* report_;
  Rng rng_;
  ConfigManagementStack stack_;
  DefectServiceModel healthy_;
  std::vector<ServerId> servers_;
  std::vector<std::unique_ptr<GatekeeperRuntime>> runtimes_;  // Per server.
  std::map<std::string, std::vector<int>> subscribers_;       // By path.
  std::map<std::pair<int, std::string>, std::string> applied_;
  std::set<std::pair<int, std::string>> pending_;
  std::unique_ptr<ProxyFleet> fleet_;
  std::map<std::string, size_t> fleet_keys_;  // Project path -> fleet key.
  std::set<std::pair<size_t, size_t>> fleet_pending_;  // (host, key).
  std::map<std::string, std::string> expected_;
  std::vector<int> module_rev_, module_bump_, gk_version_;
  int hot_version_ = 0;
  int commit_index_ = 0;
  SampleSet* apply_update_us_ = nullptr;
  SampleSet* delivery_sim_s_ = nullptr;  // Set while an exact-prefix commit drains.
  SimTime landed_at_ = 0;
  std::map<CommitKind, int> kind_counts_;
};

void World::Subscribe(int server, const std::string& path) {
  subscribers_[path].push_back(server);
  stack_.SubscribeServer(
      servers_[static_cast<size_t>(server)], path,
      [this, server](const std::string& key, const std::string& value, int64_t) {
        OnUpdate(server, key, value);
      });
}

void World::OnUpdate(int server, const std::string& key, const std::string& value) {
  applied_[{server, key}] = value;
  GatekeeperRuntime* runtime = runtimes_[static_cast<size_t>(server)].get();
  if (runtime != nullptr && key.starts_with("gatekeeper/")) {
    Clock::time_point start = Clock::now();
    Status status = runtime->ApplyConfigUpdate(key, value);
    if (apply_update_us_ != nullptr) {
      apply_update_us_->Add(SecondsSince(start) * 1e6);
    }
    report_->Check(status.ok(), "ApplyConfigUpdate " + key + ": " + status.ToString());
  }
  auto it = expected_.find(key);
  if (it != expected_.end() && it->second == value) {
    if (pending_.erase({server, key}) > 0 && delivery_sim_s_ != nullptr) {
      delivery_sim_s_->Add(SimToSeconds(stack_.sim().now() - landed_at_));
    }
  }
}

void World::SubscribeFleet() {
  std::vector<ServerId> hosts;
  const auto& options = stack_.options();
  for (int r = 0; r < options.regions; ++r) {
    for (int c = 0; c < options.clusters_per_region; ++c) {
      for (int s = kFleetHostFirst; s <= kFleetHostLast; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  fleet_ = std::make_unique<ProxyFleet>(&stack_.network(), &stack_.zeus(), std::move(hosts),
                                        seed_ + 5);
  fleet_->set_update_hook([this](size_t host, size_t key, const ZeusTxn& txn) {
    auto it = expected_.find(fleet_->key_name(key));
    if (it != expected_.end() && it->second == txn.value) {
      fleet_pending_.erase({host, key});
    }
  });
  for (int p = 0; p < kProjects; ++p) {
    fleet_keys_[GkProjectPath(p)] = fleet_->key_count();
    fleet_->SubscribeAll(GkProjectPath(p));
  }
}

bool World::Drain(SimTime cap) {
  Simulator& sim = stack_.sim();
  SimTime deadline = sim.now() + cap;
  while (!pending_.empty() || !fleet_pending_.empty()) {
    if (sim.now() > deadline || !sim.Step()) {
      return false;
    }
  }
  return true;
}

void World::ExpectChanges(const std::map<std::string, std::string>& changed) {
  for (const auto& [path, content] : changed) {
    expected_[path] = content;
    auto it = subscribers_.find(path);
    if (it != subscribers_.end()) {
      for (int server : it->second) {
        pending_.insert({server, path});
      }
    }
    auto key = fleet_keys_.find(path);
    if (key != fleet_keys_.end()) {
      for (size_t host = 0; host < fleet_->size(); ++host) {
        fleet_pending_.insert({host, key->second});
      }
    }
  }
}

SetupTimes World::Setup() {
  SetupTimes times;
  Clock::time_point setup_start = Clock::now();
  stack_.obs().tracer.SetSampleEvery(kTraceSampleEvery);

  // Sources: the synthetic repo with the hot module spliced in.
  SyntheticRepo synthetic = BuildSyntheticRepo();
  InMemorySources sources;
  std::vector<FileWrite> writes;
  auto put = [&](const std::string& path, const std::string& content) {
    sources.Put(path, content);
    writes.push_back(FileWrite{path, content});
  };
  for (int s = 0; s < SyntheticRepo::kSchemas; ++s) {
    std::string path = StrFormat("schemas/svc%02d.thrift", s);
    put(path, *synthetic.sources.AsReader()(path));
  }
  for (int m = 0; m < SyntheticRepo::kModules; ++m) {
    put(SyntheticRepo::ModulePath(m), SyntheticRepo::ModuleSource(m));
  }
  put(kHotModule, HotSource(0));
  for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
    put(SyntheticRepo::EntryPath(e), EntrySource(e));
  }
  for (int p = 0; p < kProjects; ++p) {
    put(GkProjectPath(p), GkProjectJson(p, 0));
  }
  put(kPortFloor, "{\"port\": 1000}\n");
  put("invariants/perfbench.json", InvariantsJson());

  // Compile every entry and take its dependency slice.
  Clock::time_point compile_start = Clock::now();
  ConfigCompiler compiler(sources.AsReader());
  AbstractInterpreter absint(sources.AsReader());
  std::vector<std::pair<std::string, CompileOutput>> compiled;
  std::vector<std::pair<std::string, AbsintResult>> slices;
  for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
    std::string entry = SyntheticRepo::EntryPath(e);
    Result<CompileOutput> output = compiler.Compile(entry);
    if (!output.ok()) {
      report_->Fail("initial compile of " + entry + ": " + output.status().ToString());
      continue;
    }
    for (const CompiledConfig& config : output->configs) {
      writes.push_back(FileWrite{config.path, config.content.DumpPretty()});
    }
    compiled.emplace_back(entry, std::move(*output));
    slices.emplace_back(entry, absint.AnalyzePath(entry));
  }
  times.compile_s = SecondsSince(compile_start);

  // One commit lands the whole tree; the dependency service learns it.
  Clock::time_point land_start = Clock::now();
  ProposedDiff import = MakeProposedDiff(stack_.repo(), "importer", "initial import", writes, 0);
  Clock::time_point import_start = Clock::now();
  Result<ObjectId> landed = stack_.landing_strip().Land(import);
  times.import_land_us = SecondsSince(import_start) * 1e6;
  report_->Check(landed.ok(), "initial land: " + landed.status().ToString());
  for (const auto& [entry, output] : compiled) {
    stack_.deps().UpdateEntry(entry, output.dependencies);
  }
  for (auto& [entry, analysis] : slices) {
    if (analysis.analyzed) {
      stack_.deps().UpdateEntrySymbols(entry, std::move(analysis.used_symbols),
                                       analysis.slice_sound);
    }
  }
  times.land_s = SecondsSince(land_start);

  // App servers: ten per cluster, clear of Zeus members, observers and the
  // tailer host.
  Clock::time_point subscribe_start = Clock::now();
  const auto& options = stack_.options();
  for (int r = 0; r < options.regions; ++r) {
    for (int c = 0; c < options.clusters_per_region; ++c) {
      for (int s : {3, 4, 5, 6, 7, 8, 9, 11, 12, 13}) {
        servers_.push_back(ServerId{r, c, s});
      }
    }
  }
  runtimes_.resize(servers_.size());
  std::map<std::string, std::string> initial;
  for (size_t i = 0; i < servers_.size(); ++i) {
    std::set<int> outputs;
    while (outputs.size() < static_cast<size_t>(kOutputsPerServer)) {
      outputs.insert(static_cast<int>(rng_.NextBounded(SyntheticRepo::kEntries)));
    }
    for (int e : outputs) {
      std::string path = StrFormat("svc/entry%03d.json", e);
      initial[path] = *stack_.repo().ReadFile(path);
      Subscribe(static_cast<int>(i), path);
    }
    if (i % kGkServerEvery == 0) {
      runtimes_[i] = std::make_unique<GatekeeperRuntime>();
      for (int p = 0; p < kProjects; ++p) {
        initial[GkProjectPath(p)] = GkProjectJson(p, 0);
        Subscribe(static_cast<int>(i), GkProjectPath(p));
      }
    }
  }
  SubscribeFleet();
  ExpectChanges(initial);
  report_->Check(Drain(kDrainCap), "initial subscriptions did not fill");
  times.subscribe_s = SecondsSince(subscribe_start);

  // Warm-up commit: the first proposal after the bulk import pays the risk
  // advisor's lazy history index over the whole initial commit.
  Clock::time_point warm_start = Clock::now();
  ExactTally unused_exact;
  CommitTiming warm = RunCommit(CommitKind::kValue, false, nullptr, &unused_exact);
  report_->Check(warm.landed, "warm-up commit did not land");
  times.warm_s = SecondsSince(warm_start);
  commit_index_ = 0;
  kind_counts_.clear();
  times.total_s = SecondsSince(setup_start);
  return times;
}

std::vector<FileWrite> World::NextWrites(CommitKind kind) {
  auto pick_literal_module = [this] {
    int m = 0;
    do {
      m = static_cast<int>(rng_.NextBounded(SyntheticRepo::kModules));
    } while (!HasLiteralPort(m));
    return m;
  };
  switch (kind) {
    case CommitKind::kComment: {
      int m = static_cast<int>(rng_.NextBounded(SyntheticRepo::kModules));
      ++module_rev_[m];
      return {{SyntheticRepo::ModulePath(m),
               SyntheticRepo::ModuleSource(m, module_rev_[m], module_bump_[m])}};
    }
    case CommitKind::kValue: {
      int m = pick_literal_module();
      ++module_bump_[m];
      return {{SyntheticRepo::ModulePath(m),
               SyntheticRepo::ModuleSource(m, module_rev_[m], module_bump_[m])}};
    }
    case CommitKind::kHot:
      ++hot_version_;
      return {{kHotModule, HotSource(hot_version_)}};
    case CommitKind::kGatekeeper: {
      int p = static_cast<int>(rng_.NextBounded(kProjects));
      ++gk_version_[p];
      return {{GkProjectPath(p), GkProjectJson(p, gk_version_[p])}};
    }
    case CommitKind::kBreak: {
      int m = pick_literal_module();
      return {{SyntheticRepo::ModulePath(m),
               BrokenModuleSource(m, module_rev_[m], module_bump_[m])}};
    }
  }
  return {};
}

CommitKind World::NextKind() {
  switch (kBlockOrder[commit_index_ % kBlock]) {
    case 'C': return CommitKind::kComment;
    case 'V': return CommitKind::kValue;
    case 'H': return CommitKind::kHot;
    case 'G': return CommitKind::kGatekeeper;
    default: return CommitKind::kBreak;
  }
}

CommitTiming World::RunCommit(CommitKind kind, bool traced, LayerTally* tally,
                              ExactTally* exact) {
  ++kind_counts_[kind];
  if (commit_index_ == kExactPrefix) {
    rng_.Seed(seed_ * 0x9E3779B97F4A7C15ULL + 101 + static_cast<uint64_t>(index_));
  }
  std::vector<FileWrite> writes = NextWrites(kind);
  bool in_prefix = commit_index_++ < kExactPrefix;

  CommitTiming timing;
  timing.kind = kind;
  timing.traced = traced;
  stack_.sandcastle().set_metrics(traced ? &stack_.obs().metrics : nullptr);
  Simulator& sim = stack_.sim();
  Network& net = stack_.network();
  uint64_t events0 = sim.processed_events();
  uint64_t messages0 = net.messages_sent();
  uint64_t bytes0 = net.bytes_sent();

  // Each stage is timed around its own calls only; the benchmark's own
  // bookkeeping between them counts in the wall time but in no stage.
  Clock::time_point start = Clock::now();
  Result<PendingChange> change =
      stack_.ProposeChange("author", StrFormat("%s edit", KindName(kind)), writes);
  timing.propose_ms = SecondsSince(start) * 1e3;

  if (kind == CommitKind::kBreak) {
    bool rejected = !change.ok() || !change->ci_report.passed;
    report_->Check(rejected, "planted schema break was not rejected");
    timing.wall_ms = timing.propose_ms;
    if (in_prefix) {
      ++exact->commits;
    }
    return timing;
  }
  if (!change.ok() || !change->ci_report.passed) {
    report_->Fail(StrFormat("%s commit rejected: %s", KindName(kind),
                            change.ok() ? change->ci_report.Summary().c_str()
                                        : change.status().ToString().c_str()));
    return timing;
  }

  // What the commit changes at head: only those outputs must propagate.
  std::map<std::string, std::string> changed;
  for (const FileWrite& write : change->diff.writes) {
    if (!write.content.has_value()) {
      continue;
    }
    Result<std::string> old = stack_.repo().ReadFile(write.path);
    if (!old.ok() || *old != *write.content) {
      changed[write.path] = *write.content;
    }
  }
  if (traced) {
    const CiReport& ci = change->ci_report;
    tally->entries_compiled += static_cast<double>(ci.compiled_entries.size());
    tally->reanalyzed += static_cast<double>(ci.reanalyzed_entries.size());
    tally->pruned += static_cast<double>(ci.pruned_dependents);
    tally->invariants += static_cast<double>(ci.invariant_outcomes.size());
    tally->noop_certified += ci.provably_noop ? 1 : 0;
    tally->closure_truncated += ci.closure_truncated ? 1 : 0;
    tally->ci_commits += 1;
  }

  Clock::time_point approve_start = Clock::now();
  Status approved = stack_.Approve(&*change, "reviewer");
  timing.approve_ms = SecondsSince(approve_start) * 1e3;
  report_->Check(approved.ok(), "approve: " + approved.ToString());

  size_t objects0 = stack_.repo().store().object_count();
  size_t store_bytes0 = stack_.repo().store().total_bytes();
  bool done = false;
  Status verdict;
  SimTime canary_start = sim.now();
  Clock::time_point land_start = Clock::now();
  stack_.TestAndLand(std::move(*change), CanarySpec::Default(), &healthy_,
                     [&](Result<ObjectId> result) {
                       done = true;
                       verdict = result.status();
                     });
  SimTime canary_deadline = sim.now() + kCanaryCap;
  while (!done && sim.now() < canary_deadline && sim.Step()) {
  }
  timing.canary_land_ms = SecondsSince(land_start) * 1e3;
  SimTime canary_sim = sim.now() - canary_start;
  if (!done || !verdict.ok()) {
    report_->Fail(StrFormat("%s commit did not land: %s", KindName(kind),
                            done ? verdict.ToString().c_str() : "canary timed out"));
    return timing;
  }
  timing.landed = true;

  uint64_t drain_events0 = sim.processed_events();
  apply_update_us_ = traced ? &tally->apply_update_us : nullptr;
  delivery_sim_s_ = in_prefix ? &exact->delivery_sim_s : nullptr;
  landed_at_ = sim.now();
  ExpectChanges(changed);
  Clock::time_point drain_start = Clock::now();
  bool drained = Drain(kDrainCap);
  Clock::time_point end = Clock::now();
  timing.drain_ms = Seconds(drain_start, end) * 1e3;
  timing.wall_ms = Seconds(start, end) * 1e3;
  report_->Check(drained, StrFormat("%s commit did not reach every subscribed proxy",
                                    KindName(kind)));
  apply_update_us_ = nullptr;
  delivery_sim_s_ = nullptr;

  if (traced) {
    tally->propose_ms.Add(timing.propose_ms);
    tally->approve_ms.Add(timing.approve_ms);
    tally->canary_land_ms.Add(timing.canary_land_ms);
    tally->drain_ms.Add(timing.drain_ms);
    tally->wall_ms.Add(timing.wall_ms);
    tally->stage_sum_ms +=
        timing.propose_ms + timing.approve_ms + timing.canary_land_ms + timing.drain_ms;
    tally->wall_sum_ms += timing.wall_ms;
    tally->vcs_objects +=
        static_cast<double>(stack_.repo().store().object_count() - objects0);
    tally->vcs_bytes +=
        static_cast<double>(stack_.repo().store().total_bytes() - store_bytes0);
    tally->landed += 1;
    tally->drain_s += timing.drain_ms / 1e3;
    tally->drain_events += static_cast<double>(sim.processed_events() - drain_events0);
  } else if (tally != nullptr) {
    tally->untraced_wall_ms.Add(timing.wall_ms);
  }
  if (in_prefix) {
    ++exact->commits;
    ++exact->landed;
    exact->events += sim.processed_events() - events0;
    exact->messages += net.messages_sent() - messages0;
    exact->bytes += net.bytes_sent() - bytes0;
    exact->canary_sim_s += SimToSeconds(canary_sim);
  }
  return timing;
}

void World::CheckOutputs() {
  // Every subscribed proxy serves exactly what head holds.
  size_t checked = 0;
  for (const auto& [path, servers] : subscribers_) {
    Result<std::string> head = stack_.repo().ReadFile(path);
    for (int server : servers) {
      const OnDiskCache::Entry* entry =
          stack_.ClientOn(servers_[static_cast<size_t>(server)]).Get(path);
      ++checked;
      report_->Check(head.ok() && entry != nullptr && entry->value == *head,
                     "proxy on server " + servers_[server].ToString() +
                         " does not hold head of " + path);
    }
  }
  // Every Gatekeeper runtime holds the last version of every project: it was
  // fed head's text and decides like the reference evaluator on it.
  for (size_t i = 0; i < runtimes_.size(); ++i) {
    if (runtimes_[i] == nullptr) {
      continue;
    }
    for (int p = 0; p < kProjects; ++p) {
      std::string path = GkProjectPath(p);
      Result<std::string> head = stack_.repo().ReadFile(path);
      auto applied = applied_.find({static_cast<int>(i), path});
      report_->Check(head.ok() && applied != applied_.end() &&
                         applied->second == *head,
                     "runtime on " + servers_[i].ToString() + " missed " + path);
      if (!head.ok()) {
        continue;
      }
      Result<Json> json = Json::Parse(*head);
      Result<NaiveEvaluator> naive =
          json.ok() ? NaiveEvaluator::FromJson(*json) : Result<NaiveEvaluator>(json.status());
      report_->Check(naive.ok(), "reference evaluator rejects " + path);
      if (!naive.ok()) {
        continue;
      }
      for (int64_t id = 0; id < 64; ++id) {
        UserContext user = GkUser(id * 131 + p);
        report_->Check(runtimes_[i]->Check(GkProjectName(p), user) ==
                           naive->Check(user, nullptr),
                       "runtime disagrees with the reference on " + path);
      }
    }
  }
  // The fleet holds Zeus's last version of every project, which is head's.
  for (const auto& [path, key] : fleet_keys_) {
    Result<std::string> head = stack_.repo().ReadFile(path);
    const ZeusValue* value = stack_.zeus().Lookup(path);
    report_->Check(head.ok() && value != nullptr && value->value == *head &&
                       fleet_->CountAtLeast(key, value->zxid) == fleet_->size(),
                   "fleet does not hold head of " + path);
  }
  report_->Check(checked > 0, "no subscription was checked");
}

uint64_t World::ProxyUpdates() {
  uint64_t total = fleet_->updates_received();
  for (const ServerId& server : servers_) {
    total += stack_.ProxyOn(server)->updates_received();
  }
  return total;
}

uint64_t World::StaleDiscarded() {
  uint64_t total = 0;
  for (const ServerId& server : servers_) {
    total += stack_.ProxyOn(server)->stale_discarded();
  }
  return total;
}

double Ratio(const MetricsRegistry& metrics, const char* hits, const char* misses) {
  const Counter* h = metrics.FindCounter(hits);
  const Counter* m = metrics.FindCounter(misses);
  double total = static_cast<double>((h ? h->value() : 0) + (m ? m->value() : 0));
  return total == 0 ? 0 : static_cast<double>(h ? h->value() : 0) / total;
}

}  // namespace

void RunCommitStorm(const Options& options, Report* report) {
  // Each world is set up (timed), runs the same blocks of commits from the
  // same seed, and has its outputs checked. The traced run alternates traced
  // and untraced blocks, so the tracing overhead is measured on the same
  // commit mix.
  const int commits_per_world =
      kBlock * static_cast<int>(std::max<long>(
                   kExactPrefix / kBlock, std::lround(options.seconds / kBlockSeconds / kWorlds)));
  std::vector<SetupTimes> setups;
  LayerTally tally;
  std::vector<ExactTally> exacts(kWorlds);
  SampleSet wall_ms;
  std::map<CommitKind, SampleSet> kind_wall_ms;
  int commits = 0, rejected = 0;
  double timed_s = 0;
  uint64_t proxy_updates = 0, stale = 0, conflicts = 0;
  std::unique_ptr<World> world;
  for (int w = 0; w < kWorlds; ++w) {
    world.reset();
    world = std::make_unique<World>(options.seed, w, report);
    setups.push_back(world->Setup());

    uint64_t proxy_updates0 = world->ProxyUpdates();
    uint64_t stale0 = world->StaleDiscarded();
    uint64_t conflicts0 = world->stack().landing_strip().conflicts();
    Clock::time_point start = Clock::now();
    for (int i = 0; i < commits_per_world; ++i) {
      bool traced = options.trace && (i / kBlock) % 2 == 0;
      CommitTiming timing = world->RunCommit(world->NextKind(), traced, &tally, &exacts[w]);
      ++commits;
      report->Attempt();
      if (timing.kind == CommitKind::kBreak) {
        ++rejected;
      } else if (timing.landed && !timing.traced) {
        wall_ms.Add(timing.wall_ms);
      }
      kind_wall_ms[timing.kind].Add(timing.wall_ms);
    }
    timed_s += SecondsSince(start);
    proxy_updates += world->ProxyUpdates() - proxy_updates0;
    stale += world->StaleDiscarded() - stale0;
    conflicts += world->stack().landing_strip().conflicts() - conflicts0;
    world->CheckOutputs();
    // Every world replays the same seed, so its exact counts must agree.
    const ExactTally& first = exacts.front();
    const ExactTally& exact = exacts[static_cast<size_t>(w)];
    report->Check(exact.events == first.events && exact.messages == first.messages &&
                      exact.bytes == first.bytes && exact.canary_sim_s == first.canary_sim_s &&
                      exact.landed == first.landed,
                  "worlds of one seed disagree on sim counts");
  }
  auto phase_values = [&setups](double SetupTimes::*phase) {
    std::vector<double> values;
    for (const SetupTimes& times : setups) {
      values.push_back(times.*phase);
    }
    return values;
  };
  report->Rounds("setup_s", phase_values(&SetupTimes::total_s));

  report->EndToEnd("setup_s", Median(phase_values(&SetupTimes::total_s)), "s");
  report->EndToEnd("ops_per_s", commits / timed_s, "1/s");
  SampleSet& e2e_wall = options.trace ? tally.wall_ms : wall_ms;
  report->EndToEnd("commit_wall_p50_ms", e2e_wall.Percentile(50), "ms");
  report->EndToEnd("commit_wall_p90_ms", e2e_wall.Percentile(90), "ms");
  report->Headline("commits", commits, "count");
  report->Headline("landed_commit_samples", static_cast<double>(e2e_wall.size()), "count");
  report->Headline("rejected_breaks", rejected, "count");
  for (const auto& [kind, count] : world->kind_counts()) {
    report->Headline(std::string("mix_per_world.") + KindName(kind), count, "count");
  }
  for (const auto& [kind, walls] : kind_wall_ms) {
    report->Headline(std::string("wall_p50_ms.") + KindName(kind), walls.Percentile(50),
                     "ms");
  }
  if (!options.trace) {
    return;
  }

  // Counters of the stack itself come from the last world.
  const ExactTally& exact = exacts.front();
  ConfigManagementStack& stack = world->stack();
  const MetricsRegistry& metrics = stack.obs().metrics;
  report->Layer("core.propose_ms.p50", tally.propose_ms.Percentile(50), "ms");
  report->Layer("core.propose_ms.p90", tally.propose_ms.Percentile(90), "ms");
  report->Layer("core.approve_ms.p50", tally.approve_ms.Percentile(50), "ms");
  report->Layer("core.canary_land_ms.p50", tally.canary_land_ms.Percentile(50), "ms");
  report->Layer("core.canary_land_ms.p90", tally.canary_land_ms.Percentile(90), "ms");
  report->Layer("distribution.drain_ms.p50", tally.drain_ms.Percentile(50), "ms");
  report->Layer("distribution.drain_ms.p90", tally.drain_ms.Percentile(90), "ms");
  report->Layer("canary.sim_s", exact.canary_sim_s / std::max(exact.landed, 1), "sim_s");
  const Histogram* compile_us = metrics.FindHistogram("csl.compile_micros");
  const Histogram* execute_us = metrics.FindHistogram("csl.execute_micros");
  report->Layer("lang.compile_us", compile_us ? compile_us->Percentile(50) : 0, "us");
  report->Layer("lang.execute_us", execute_us ? execute_us->Percentile(50) : 0, "us");
  report->Layer("lang.unit_cache_hit_ratio",
                Ratio(metrics, "csl.unit_cache.hits", "csl.unit_cache.misses"), "ratio");
  report->Layer("lang.output_memo_hit_ratio",
                Ratio(metrics, "csl.output_cache.hits", "csl.output_cache.misses"),
                "ratio");
  double ci_commits = std::max(tally.ci_commits, 1.0);
  report->Layer("pipeline.ci.entries_compiled", tally.entries_compiled / ci_commits, "count");
  report->Layer("pipeline.ci.reanalyzed", tally.reanalyzed / ci_commits, "count");
  report->Layer("pipeline.ci.pruned_dependents", tally.pruned / ci_commits, "count");
  report->Layer("analysis.invariants_evaluated", tally.invariants / ci_commits, "count");
  report->Layer("pipeline.ci.noop_certified_frac", tally.noop_certified / ci_commits, "ratio");
  report->Layer("pipeline.ci.closure_truncated", tally.closure_truncated, "count");
  report->Layer("pipeline.landing.conflicts", static_cast<double>(conflicts), "count");
  double landed = std::max(tally.landed, 1.0);
  report->Layer("vcs.objects_per_commit", tally.vcs_objects / landed, "count");
  report->Layer("vcs.bytes_per_commit", tally.vcs_bytes / landed, "B");
  report->Layer("distribution.proxy_updates", static_cast<double>(proxy_updates), "count");
  report->Layer("distribution.stale_discarded", static_cast<double>(stale), "count");
  double prefix_landed = std::max(exact.landed, 1);
  report->Layer("sim.events_per_commit", exact.events / prefix_landed, "count");
  report->Layer("sim.network.messages_per_commit", exact.messages / prefix_landed, "count");
  report->Layer("sim.network.bytes_per_commit", exact.bytes / prefix_landed, "B");
  report->Layer("fleet_sim_p99_s", exact.delivery_sim_s.Percentile(99), "sim_s");
  report->Layer("sim.ns_per_event",
                tally.drain_events > 0 ? tally.drain_s * 1e9 / tally.drain_events : 0, "ns");
  report->Layer("sim.network.materialized_links",
                static_cast<double>(stack.network().materialized_links()), "count");
  report->Layer("obs.traces_recorded", static_cast<double>(stack.obs().tracer.trace_count()),
                "count");
  report->Layer("obs.traces_sampled_out", static_cast<double>(stack.obs().tracer.sampled_out()),
                "count");
  report->Layer("distribution.fleet.subscribe_s", Median(phase_values(&SetupTimes::subscribe_s)),
                "s");
  report->Layer("pipeline.landing.land_us", Median(phase_values(&SetupTimes::import_land_us)),
                "us");
  report->Layer("gatekeeper.apply_update_us", tally.apply_update_us.Percentile(50), "us");
  report->Layer("setup.compile_s", Median(phase_values(&SetupTimes::compile_s)), "s");
  report->Layer("setup.land_s", Median(phase_values(&SetupTimes::land_s)), "s");
  report->Layer("setup.warm_commit_s", Median(phase_values(&SetupTimes::warm_s)), "s");
  double untraced = tally.untraced_wall_ms.Percentile(50);
  report->Layer("trace.overhead_frac",
                untraced > 0 ? tally.wall_ms.Percentile(50) / untraced - 1 : 0, "ratio");
  // The stages are timed around their own calls, so time spent outside them
  // (the benchmark's bookkeeping, or a stage the list misses) shows here.
  double layer_sum = tally.wall_sum_ms > 0 ? tally.stage_sum_ms / tally.wall_sum_ms : 0;
  report->Layer("trace.layer_sum_frac", layer_sum, "ratio");
  report->Check(layer_sum >= 0.95 && layer_sum <= 1.05,
                "per-layer times do not sum to within 5% of the commit wall time");
}

}  // namespace perfbench
