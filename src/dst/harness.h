// Deterministic simulation-testing harness (FoundationDB-style) for the full
// Configerator stack. One Harness owns one scenario: a Zeus ensemble fed by a
// git tailer, a fleet of config proxies with on-disk caches and application
// clients, Gatekeeper runtimes fed through the distribution path, and a
// PackageVessel swarm pulling a large config — all over the discrete-event
// simulator. Run() executes the scenario under a FaultPlan and checks
// continuous safety invariants after *every* simulator event, plus
// convergence invariants after the final heal.
//
// Invariant catalog (docs/TESTING.md has the full rationale):
//   monotonic-version     A proxy/app never observes a config version (zxid)
//                         going backwards.
//   phantom-version       No replica serves a zxid newer than the commit point.
//   no-torn-config        Every observed value is one that was actually
//                         committed — never a torn/partial write.
//   last-known-good       Once a config has been observed on a server, reads
//                         never regress to "not found" — even with the whole
//                         control plane dead (paper §3.4 availability story).
//   vessel-metadata-hash  Delivered PackageVessel metadata always matches the
//                         publisher's content hash for that version.
//   gatekeeper-consistency A Gatekeeper runtime's decisions always match a
//                         reference evaluation of the exact config JSON that
//                         was delivered to it (cost-based reordering and
//                         live updates must not change semantics).
//   cross-config-invariant No proxy ever serves a jointly-inconsistent config
//                         pair (a shed threshold above the kill threshold it
//                         must stay below, split across two keys). Such pairs
//                         are only produced by the inconsistent-commit fault;
//                         in "gated" mode the cross-config InvariantChecker
//                         blocks them before commit, so only "bypass" (a
//                         simulated force-land) can trip this.
//   convergence-*         After every fault heals and the network settles,
//                         observers and proxies converge to Zeus ground truth
//                         and the swarm completes.
//   freshness-slo         (opt-in, freshness_slo > 0) After the final heal,
//                         the fleet-wide p99.9 config propagation latency —
//                         rolled up from every proxy's metrics-registry
//                         histogram — is within the configured bound. The
//                         violation report embeds the span tree of the
//                         slowest commit.
//
// Every run produces a replayable text trace (scenario options + fault plan +
// event log + violation); Replay() re-executes it bit-for-bit from the trace
// alone. shrink.h minimizes failing plans.

#ifndef SRC_DST_HARNESS_H_
#define SRC_DST_HARNESS_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/distribution/proxy.h"
#include "src/distribution/tailer.h"
#include "src/dst/fault_plan.h"
#include "src/gatekeeper/naive.h"
#include "src/gatekeeper/runtime.h"
#include "src/obs/observability.h"
#include "src/p2p/vessel.h"
#include "src/sim/network.h"
#include "src/util/status.h"
#include "src/vcs/repository.h"
#include "src/zeus/zeus.h"

namespace configerator {

// Everything needed to reconstruct a scenario deterministically. Serializes
// to one "key=value ..." line in the trace header.
struct ScenarioOptions {
  uint64_t seed = 1;
  int regions = 2;
  int clusters_per_region = 2;
  int servers_per_cluster = 16;
  int members = 5;
  int observers = 4;
  int proxies = 8;
  int keys = 5;
  int writes = 40;
  SimTime chaos_duration = 60 * kSimSecond;  // Faults land before this.
  SimTime settle = 30 * kSimSecond;          // Heal-to-convergence budget.
  bool enable_vessel = true;
  bool enable_gatekeeper = true;
  int64_t vessel_bytes = 24 << 20;
  // Freshness SLO (0 = disabled): after the final heal, the fleet-wide p99.9
  // config propagation latency (from the metrics registry) must be within
  // this bound. Serialized as slo_us; absent in old traces, which therefore
  // replay with the invariant off.
  SimTime freshness_slo = 0;
  // Run the continuous-invariant sweep every Nth simulator event instead of
  // after every one. The sweep is O(proxies × keys); at 1k+ proxies checking
  // per event dominates the run without sharpening the invariants (a
  // violation is still caught, at worst stride-1 events later — and the final
  // pre-convergence sweep always runs). Serialized as check_stride; absent in
  // old traces, which replay with the original stride of 1.
  int check_stride = 1;

  std::string ToLine() const;
  static Result<ScenarioOptions> Parse(const std::string& line);
};

struct Violation {
  SimTime at = 0;
  std::string invariant;  // One of the catalog names above.
  std::string message;
  // Span tree (Tracer::DumpTree) of the commit implicated in the violation,
  // when one can be identified by zxid; "" otherwise. Embedded in the trace
  // between span-tree-begin/end markers (ignored by ParseTrace).
  std::string span_tree;
};

struct RunResult {
  bool violated = false;
  Violation violation;
  // Replayable trace: scenario line + fault plan + event log + outcome.
  std::string trace;
  int64_t committed_zxid = 0;
  uint64_t published = 0;
  size_t vessel_completed = 0;
  NetStats net;
  uint64_t sim_events = 0;
};

class Harness {
 public:
  explicit Harness(const ScenarioOptions& options);
  ~Harness();

  // The concrete servers a FaultPlan may target in this scenario.
  FaultPlanShape shape() const;

  // Executes the scenario under `plan`. Single-shot: build a fresh Harness
  // per run (the shrinker does exactly that). A plan that names a server
  // outside the scenario's topology is rejected with InvalidArgument before
  // anything runs.
  Result<RunResult> Run(const FaultPlan& plan);

  // --- Replay ---------------------------------------------------------------

  struct ReplaySpec {
    ScenarioOptions scenario;
    FaultPlan plan;
  };
  static Result<ReplaySpec> ParseTrace(const std::string& trace_text);
  // ParseTrace + fresh Harness + Run (so a trace whose plan names a server
  // outside its scenario is rejected the same way). Determinism guarantee:
  // replaying a failing run's trace reproduces the same violation at the
  // same sim time.
  static Result<RunResult> Replay(const std::string& trace_text);

  // --- Test hooks -----------------------------------------------------------

  const Network& net() const { return *net_; }
  const ZeusEnsemble& zeus() const { return *zeus_; }
  const VesselSwarm* swarm() const { return swarm_.get(); }
  // The run's metrics registry + commit tracer. Attached to every component
  // with staleness probes OFF, so instrumentation adds no network messages
  // and the event/rng sequence matches an uninstrumented run exactly.
  Observability& obs() { return obs_; }
  const Observability& obs() const { return obs_; }

 private:
  void ScheduleWorkload();
  void ApplyFault(const FaultEvent& event);
  void CorruptDisk(int index, const std::string& key);
  void SeedInconsistentCommit(bool gated);
  void FinalHeal();
  void CheckContinuous();
  void CheckGatekeeper(size_t proxy_idx);
  void CheckConvergence();
  void CheckFreshness();
  // Reference compilation of a delivered Gatekeeper config: the naive
  // declared-order evaluator (no stats, no reordering), so the concurrent
  // snapshot runtime is checked against plain evaluation. nullptr = the JSON
  // does not compile.
  const NaiveEvaluator* ReferenceProject(const std::string& json_text);
  // `zxid` >= 0 attaches that commit's span tree to the violation report.
  void Fail(const std::string& invariant, std::string message,
            int64_t zxid = -1);
  std::string SpanTreeForZxid(int64_t zxid) const;
  void Log(std::string line);
  std::string BuildTrace(const FaultPlan& plan) const;

  ScenarioOptions options_;
  Topology topology_;
  // Declared before the components that cache pointers into it.
  Observability obs_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  Repository repo_;
  std::unique_ptr<ZeusEnsemble> zeus_;
  std::unique_ptr<GitTailer> tailer_;
  std::vector<ServerId> member_ids_;
  std::vector<ServerId> observer_ids_;
  std::vector<ServerId> proxy_hosts_;
  ServerId tailer_host_;
  ServerId storage_host_;
  std::vector<std::unique_ptr<OnDiskCache>> disks_;
  std::vector<std::unique_ptr<ConfigProxy>> proxies_;
  std::vector<std::unique_ptr<AppConfigClient>> apps_;
  std::vector<std::unique_ptr<GatekeeperRuntime>> gk_runtimes_;
  // Per proxy: the Gatekeeper JSON most recently delivered to it (""= none).
  std::vector<std::string> gk_delivered_;
  std::unique_ptr<VesselPublisher> vessel_pub_;
  std::unique_ptr<VesselSwarm> swarm_;

  std::string gk_key_;
  std::string vessel_key_;
  std::string vessel_name_;
  std::vector<std::string> tracked_keys_;
  // Every value ever scheduled for commit, per key — the "not torn" universe.
  std::map<std::string, std::set<std::string>> written_values_;

  // Continuous-invariant state, per proxy per key.
  std::vector<std::map<std::string, int64_t>> last_seen_zxid_;
  std::vector<std::map<std::string, bool>> ever_seen_;
  std::map<std::string, std::unique_ptr<NaiveEvaluator>> gk_reference_cache_;
  std::vector<UserContext> gk_users_;

  bool violated_ = false;
  Violation violation_;
  std::vector<std::string> log_;
  uint64_t published_ = 0;
  bool ran_ = false;
};

}  // namespace configerator

#endif  // SRC_DST_HARNESS_H_
