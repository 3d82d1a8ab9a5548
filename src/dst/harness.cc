#include "src/dst/harness.h"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <utility>

#include "src/analysis/invariant.h"
#include "src/json/json.h"
#include "src/util/strings.h"

namespace configerator {

namespace {

constexpr char kTraceHeader[] = "# dst-trace v1";

std::string SidStr(const ServerId& id) {
  return StrFormat("%d.%d.%d", id.region, id.cluster, id.server);
}

// The Gatekeeper config the workload rolls forward: an employee bypass rule
// plus an id_mod bucket whose width and pass probability change every step —
// exercising live recompiles, sampling, and the cost-based optimizer.
std::string GatekeeperConfigJson(int step) {
  Json employee_restraint = Json::MakeObject();
  employee_restraint.Set("type", Json(std::string("employee")));
  Json rule0 = Json::MakeObject();
  Json rule0_restraints = Json::MakeArray();
  rule0_restraints.Append(std::move(employee_restraint));
  rule0.Set("restraints", std::move(rule0_restraints));
  rule0.Set("pass_probability", Json(1.0));

  Json params = Json::MakeObject();
  params.Set("mod", Json(static_cast<int64_t>(100)));
  params.Set("lo", Json(static_cast<int64_t>(0)));
  params.Set("hi", Json(static_cast<int64_t>(10 + (step * 7) % 90)));
  Json id_mod = Json::MakeObject();
  id_mod.Set("type", Json(std::string("id_mod")));
  id_mod.Set("params", std::move(params));
  Json rule1 = Json::MakeObject();
  Json rule1_restraints = Json::MakeArray();
  rule1_restraints.Append(std::move(id_mod));
  rule1.Set("restraints", std::move(rule1_restraints));
  rule1.Set("pass_probability", Json(0.5 * (step % 3)));

  Json rules = Json::MakeArray();
  rules.Append(std::move(rule0));
  rules.Append(std::move(rule1));
  Json project = Json::MakeObject();
  project.Set("project", Json(std::string("dst_rollout")));
  project.Set("rules", std::move(rules));
  return project.Dump();
}

}  // namespace

// --- ScenarioOptions --------------------------------------------------------

std::string ScenarioOptions::ToLine() const {
  return StrFormat(
      "seed=%llu regions=%d clusters=%d spc=%d members=%d observers=%d "
      "proxies=%d keys=%d writes=%d chaos_us=%lld settle_us=%lld vessel=%d "
      "gatekeeper=%d vessel_bytes=%lld slo_us=%lld check_stride=%d",
      static_cast<unsigned long long>(seed), regions, clusters_per_region,
      servers_per_cluster, members, observers, proxies, keys, writes,
      static_cast<long long>(chaos_duration), static_cast<long long>(settle),
      enable_vessel ? 1 : 0, enable_gatekeeper ? 1 : 0,
      static_cast<long long>(vessel_bytes),
      static_cast<long long>(freshness_slo), check_stride);
}

Result<ScenarioOptions> ScenarioOptions::Parse(const std::string& line) {
  ScenarioOptions options;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    size_t eq = token.find('=');
    if (eq == std::string::npos) {
      return InvalidArgumentError("bad scenario token: " + token);
    }
    std::string key = token.substr(0, eq);
    long long value = std::strtoll(token.c_str() + eq + 1, nullptr, 10);
    if (key == "seed") {
      options.seed = static_cast<uint64_t>(value);
    } else if (key == "regions") {
      options.regions = static_cast<int>(value);
    } else if (key == "clusters") {
      options.clusters_per_region = static_cast<int>(value);
    } else if (key == "spc") {
      options.servers_per_cluster = static_cast<int>(value);
    } else if (key == "members") {
      options.members = static_cast<int>(value);
    } else if (key == "observers") {
      options.observers = static_cast<int>(value);
    } else if (key == "proxies") {
      options.proxies = static_cast<int>(value);
    } else if (key == "keys") {
      options.keys = static_cast<int>(value);
    } else if (key == "writes") {
      options.writes = static_cast<int>(value);
    } else if (key == "chaos_us") {
      options.chaos_duration = value;
    } else if (key == "settle_us") {
      options.settle = value;
    } else if (key == "vessel") {
      options.enable_vessel = value != 0;
    } else if (key == "gatekeeper") {
      options.enable_gatekeeper = value != 0;
    } else if (key == "vessel_bytes") {
      options.vessel_bytes = value;
    } else if (key == "slo_us") {
      options.freshness_slo = value;
    } else if (key == "check_stride") {
      options.check_stride = static_cast<int>(value);
    } else {
      return InvalidArgumentError("unknown scenario option: " + key);
    }
  }
  return options;
}

// --- Harness ----------------------------------------------------------------

Harness::Harness(const ScenarioOptions& options)
    : options_(options),
      topology_(options.regions, options.clusters_per_region,
                options.servers_per_cluster) {
  assert(options_.servers_per_cluster >= 8 && "scenario needs server room");
  sim_ = std::make_unique<Simulator>();
  net_ = std::make_unique<Network>(sim_.get(), topology_, options_.seed);

  const int R = options_.regions;
  const int C = options_.clusters_per_region;
  const int S = options_.servers_per_cluster;
  // Deterministic host allocation, spread across regions/clusters so
  // partitions bite: members at low server indices, observers at the top,
  // proxies in the middle, tailer and storage on dedicated hosts.
  for (int i = 0; i < options_.members; ++i) {
    member_ids_.push_back({i % R, (i / R) % C, i / (R * C)});
  }
  for (int i = 0; i < options_.observers; ++i) {
    observer_ids_.push_back({i % R, (i / R) % C, S - 1 - i / (R * C)});
  }
  for (int i = 0; i < options_.proxies; ++i) {
    proxy_hosts_.push_back({i % R, (i / R) % C, 4 + i / (R * C)});
  }
  tailer_host_ = {0, 0, S - 2};
  storage_host_ = {R - 1, C - 1, S - 2};

  zeus_ = std::make_unique<ZeusEnsemble>(net_.get(), member_ids_, observer_ids_);
  zeus_->AttachObservability(&obs_);

  GitTailer::Options tailer_options;
  tailer_options.poll_interval = 1 * kSimSecond;
  tailer_ = std::make_unique<GitTailer>(net_.get(), tailer_host_, &repo_,
                                        zeus_.get(), tailer_options);
  tailer_->AttachObservability(&obs_);
  tailer_->set_on_published([this](const std::string& path, int64_t zxid) {
    ++published_;
    Log(StrFormat("published %s zxid=%lld", path.c_str(),
                  static_cast<long long>(zxid)));
  });

  for (int k = 0; k < options_.keys; ++k) {
    tracked_keys_.push_back(StrFormat("cfg/key%d.json", k));
  }
  if (options_.enable_gatekeeper) {
    gk_key_ = "gatekeeper/dst_rollout.json";
    tracked_keys_.push_back(gk_key_);
  }
  vessel_name_ = "bigcfg";
  if (options_.enable_vessel) {
    vessel_key_ = VesselPublisher::MetadataKey(vessel_name_);
    tracked_keys_.push_back(vessel_key_);
  }

  gk_delivered_.resize(static_cast<size_t>(options_.proxies));
  last_seen_zxid_.resize(static_cast<size_t>(options_.proxies));
  ever_seen_.resize(static_cast<size_t>(options_.proxies));
  for (int i = 0; i < options_.proxies; ++i) {
    disks_.push_back(std::make_unique<OnDiskCache>());
    proxies_.push_back(std::make_unique<ConfigProxy>(
        net_.get(), zeus_.get(), proxy_hosts_[static_cast<size_t>(i)],
        disks_.back().get(), options_.seed * 131 + static_cast<uint64_t>(i)));
    // Probe interval 0: metrics + tracing only, no probe messages — the
    // network event/rng sequence is identical to an uninstrumented run, so
    // every recorded seed keeps replaying bit-for-bit.
    proxies_.back()->AttachObservability(&obs_);
    apps_.push_back(std::make_unique<AppConfigClient>(proxies_.back().get(),
                                                      disks_.back().get()));
    gk_runtimes_.push_back(std::make_unique<GatekeeperRuntime>());
    gk_runtimes_.back()->AttachObservability(&obs_, SidStr(proxy_hosts_[i]));
    ConfigProxy* proxy = proxies_.back().get();
    for (const std::string& key : tracked_keys_) {
      if (key == gk_key_) {
        GatekeeperRuntime* runtime = gk_runtimes_.back().get();
        std::string* delivered = &gk_delivered_[static_cast<size_t>(i)];
        proxy->Subscribe(key, [this, runtime, delivered](
                                   const std::string& path,
                                   const std::string& value, int64_t zxid) {
          *delivered = value;
          // Invalid JSON keeps the previous project live; the consistency
          // invariant then compares against the delivered (bad) config and
          // flags the divergence. The zxid parents a gatekeeper.snapshot_swap
          // span at the commit's trace.
          (void)runtime->ApplyConfigUpdate(path, value, zxid, sim_->now());
        });
      } else {
        proxy->Subscribe(key, nullptr);
      }
    }
  }

  if (options_.enable_vessel) {
    vessel_pub_ = std::make_unique<VesselPublisher>(net_.get(), zeus_.get(),
                                                    tailer_host_, storage_host_);
    vessel_pub_->AttachObservability(&obs_);
    VesselSwarm::Options swarm_options;
    swarm_options.chunk_size = 2 << 20;
    swarm_ = std::make_unique<VesselSwarm>(
        net_.get(), storage_host_, proxy_hosts_, options_.vessel_bytes,
        swarm_options, options_.seed ^ 0xbead5a17ULL);
    swarm_->AttachObservability(&obs_);
  }

  // Fixed evaluation panel for the Gatekeeper consistency invariant: an
  // employee, plus non-employees landing in different id_mod buckets.
  UserContext employee;
  employee.user_id = 1;
  employee.is_employee = true;
  UserContext low_bucket;
  low_bucket.user_id = 42;
  low_bucket.country = "US";
  UserContext mid_bucket;
  mid_bucket.user_id = 1077;
  UserContext high_bucket;
  high_bucket.user_id = 991;
  gk_users_ = {employee, low_bucket, mid_bucket, high_bucket};
}

Harness::~Harness() = default;

FaultPlanShape Harness::shape() const {
  FaultPlanShape shape;
  shape.members = member_ids_;
  shape.observers = observer_ids_;
  shape.proxies = proxy_hosts_;
  shape.other_hosts = {tailer_host_, storage_host_};
  shape.duration = options_.chaos_duration;
  return shape;
}

void Harness::ScheduleWorkload() {
  // Initial commit so every key exists before the chaos window.
  std::vector<FileWrite> initial;
  for (int k = 0; k < options_.keys; ++k) {
    std::string path = tracked_keys_[static_cast<size_t>(k)];
    std::string value = StrFormat("{\"key\":%d,\"step\":0}", k);
    written_values_[path].insert(value);
    initial.push_back(FileWrite{path, value});
  }
  if (options_.enable_gatekeeper) {
    std::string value = GatekeeperConfigJson(0);
    written_values_[gk_key_].insert(value);
    initial.push_back(FileWrite{gk_key_, value});
  }
  // Each commit (the seed included) roots a trace; the touched paths are
  // bound so the tailer's publish span — and everything downstream of the
  // zxid — joins the tree.
  TraceContext seed_root = obs_.tracer.StartTrace("commit step=0", "dst", 0);
  obs_.tracer.EndSpan(seed_root, 0);
  for (const FileWrite& write : initial) {
    obs_.tracer.BindPath(write.path, seed_root);
  }
  Result<ObjectId> seed_commit = repo_.Commit("dst", "seed configs", initial, 0);
  assert(seed_commit.ok());
  (void)seed_commit;

  // Ongoing writes, spread over the chaos window. Values are recorded here —
  // any observed value outside this universe is torn by construction.
  Rng workload_rng(options_.seed * 7919 + 17);
  for (int step = 1; step <= options_.writes; ++step) {
    SimTime at = kSimSecond + static_cast<SimTime>(workload_rng.NextBounded(
                     static_cast<uint64_t>(
                         std::max<SimTime>(options_.chaos_duration - 2 * kSimSecond, 1))));
    std::string path;
    std::string value;
    if (options_.enable_gatekeeper && step % 4 == 0) {
      path = gk_key_;
      value = GatekeeperConfigJson(step);
    } else {
      int k = static_cast<int>(
          workload_rng.NextBounded(static_cast<uint64_t>(options_.keys)));
      path = tracked_keys_[static_cast<size_t>(k)];
      value = StrFormat("{\"key\":%d,\"step\":%d,\"nonce\":%llu}", k, step,
                        static_cast<unsigned long long>(
                            workload_rng.Next() & 0xffffff));
    }
    written_values_[path].insert(value);
    sim_->ScheduleAt(at, [this, path, value, step] {
      TraceContext root = obs_.tracer.StartTrace(
          StrFormat("commit step=%d", step), "dst", sim_->now());
      obs_.tracer.EndSpan(root, sim_->now());
      obs_.tracer.BindPath(path, root);
      Result<ObjectId> commit = repo_.Commit(
          "dst", StrFormat("step %d", step), {FileWrite{path, value}}, step);
      assert(commit.ok());
      (void)commit;
      Log(StrFormat("commit step=%d path=%s", step, path.c_str()));
    });
  }

  if (options_.enable_vessel) {
    sim_->ScheduleAt(2 * kSimSecond, [this] {
      vessel_pub_->Publish(vessel_name_, 1, options_.vessel_bytes,
                           [this](Result<int64_t> zxid) {
                             Log(StrFormat("vessel-published ok=%d",
                                           zxid.ok() ? 1 : 0));
                           });
    });
    sim_->ScheduleAt(4 * kSimSecond, [this] {
      swarm_->Start([this](const ServerId& client, SimTime /*when*/) {
        Log("vessel-complete " + SidStr(client));
      });
    });
  }
}

void Harness::ApplyFault(const FaultEvent& event) {
  Log("apply " + event.ToLine());
  switch (event.op) {
    case FaultOp::kCrash:
      zeus_->Crash(event.group_a.at(0));
      break;
    case FaultOp::kRecover: {
      const ServerId& id = event.group_a.at(0);
      zeus_->Recover(id);
      if (swarm_ != nullptr &&
          std::find(proxy_hosts_.begin(), proxy_hosts_.end(), id) !=
              proxy_hosts_.end()) {
        swarm_->ResumeClient(id);
      }
      break;
    }
    case FaultOp::kCrashProxy:
      if (event.index >= 0 && event.index < options_.proxies) {
        proxies_[static_cast<size_t>(event.index)]->Crash();
      }
      break;
    case FaultOp::kRestartProxy:
      if (event.index >= 0 && event.index < options_.proxies) {
        proxies_[static_cast<size_t>(event.index)]->Restart();
      }
      break;
    case FaultOp::kPartition:
      net_->Partition(event.group_a, event.group_b);
      break;
    case FaultOp::kPartitionOneWay:
      net_->PartitionOneWay(event.group_a, event.group_b);
      break;
    case FaultOp::kHealPartitions:
      net_->HealAllPartitions();
      break;
    case FaultOp::kGlobalFault:
      net_->SetDefaultFault(event.fault);
      break;
    case FaultOp::kClearFaults:
      net_->ClearLinkFaults();
      break;
    case FaultOp::kCorruptDisk:
      CorruptDisk(event.index, event.key);
      break;
    case FaultOp::kInconsistentCommit:
      SeedInconsistentCommit(event.key != "bypass");
      break;
  }
}

void Harness::SeedInconsistentCommit(bool gated) {
  if (options_.keys < 2) {
    return;
  }
  // A jointly-inconsistent pair: key0's shed threshold lands above key1's
  // kill threshold. Each half is individually valid JSON that passes every
  // per-file check — only a cross-config predicate can see the problem.
  const std::string& path0 = tracked_keys_[0];
  const std::string& path1 = tracked_keys_[1];
  std::string value0 = "{\"key\":0,\"shed\":90}";
  std::string value1 = "{\"key\":1,\"kill\":50}";
  if (gated) {
    // The landing gate: the same InvariantChecker Sandcastle runs, over an
    // overlay of the proposed pair on the harness repository.
    InvariantRegistry registry;
    registry.AddSpecFile(
        "invariants/dst.json",
        "{\"invariants\":[{\"name\":\"shed-below-kill\",\"kind\":"
        "\"ordering\",\"severity\":\"error\","
        "\"lhs\":{\"config\":\"" + path0 + "\",\"field\":\"shed\"},"
        "\"relation\":\"<=\","
        "\"rhs\":{\"config\":\"" + path1 + "\",\"field\":\"kill\"}}]}");
    assert(registry.diagnostics.empty());
    std::map<std::string, std::string> pair = {{path0, value0},
                                               {path1, value1}};
    const Repository* repo = &repo_;
    InvariantChecker checker(
        [pair, repo](const std::string& path) -> Result<std::string> {
          auto it = pair.find(path);
          if (it != pair.end()) {
            return it->second;
          }
          return repo->ReadFile(path);
        });
    InvariantReport report = checker.Check(registry, {path0, path1});
    if (CountLintErrors(report.diagnostics) > 0) {
      Log("inconsistent-commit blocked by invariant gate");
      return;  // Never committed: the fleet never sees the pair.
    }
    Log("inconsistent-commit passed the gate unexpectedly; committing");
  }
  // Bypass (or a gate that failed to block): the pair lands like any other
  // commit and the continuous cross-config check must catch it downstream.
  written_values_[path0].insert(value0);
  written_values_[path1].insert(value1);
  TraceContext root =
      obs_.tracer.StartTrace("commit inconsistent-pair", "dst", sim_->now());
  obs_.tracer.EndSpan(root, sim_->now());
  obs_.tracer.BindPath(path0, root);
  obs_.tracer.BindPath(path1, root);
  Result<ObjectId> commit = repo_.Commit(
      "dst", "inconsistent pair",
      {FileWrite{path0, value0}, FileWrite{path1, value1}},
      options_.writes + 1);
  assert(commit.ok());
  (void)commit;
  Log("commit inconsistent-pair");
}

void Harness::CorruptDisk(int index, const std::string& key) {
  if (index < 0 || index >= options_.proxies) {
    return;
  }
  OnDiskCache* disk = disks_[static_cast<size_t>(index)].get();
  std::vector<std::string> targets;
  if (key.empty() || key == "*") {
    targets = tracked_keys_;
  } else {
    targets.push_back(key);
  }
  for (const std::string& target : targets) {
    const OnDiskCache::Entry* entry = disk->Get(target);
    if (entry == nullptr) {
      continue;
    }
    // A torn write: the first half of the value made it to disk, the rest is
    // garbage. The zxid stays — exactly the case a naive "version matches"
    // check would miss.
    std::string torn = entry->value.substr(0, entry->value.size() / 2) + "~TORN";
    disk->Put(target, std::move(torn), entry->zxid);
  }
}

void Harness::FinalHeal() {
  Log("final-heal");
  for (const ServerId& id : member_ids_) {
    zeus_->Recover(id);
  }
  for (const ServerId& id : observer_ids_) {
    zeus_->Recover(id);
  }
  for (const ServerId& id : proxy_hosts_) {
    net_->failures().Recover(id);
  }
  net_->failures().Recover(tailer_host_);
  net_->failures().Recover(storage_host_);
  net_->HealAllPartitions();
  net_->ClearLinkFaults();
  for (auto& proxy : proxies_) {
    if (proxy->crashed()) {
      proxy->Restart();
    } else {
      // The proxy's observer may have missed pushes while either end was
      // down or partitioned; a fresh subscription re-fetches current state.
      proxy->RepickObserver();
    }
  }
  if (swarm_ != nullptr) {
    for (const ServerId& id : proxy_hosts_) {
      swarm_->ResumeClient(id);
    }
  }
}

Result<RunResult> Harness::Run(const FaultPlan& plan) {
  assert(!ran_ && "Harness is single-shot; build a fresh one per run");
  // The network's per-server tables are sized by the topology; a server
  // outside it has no slot, so the whole plan is refused up front.
  for (const FaultEvent& event : plan.events) {
    for (const auto* group : {&event.group_a, &event.group_b}) {
      for (const ServerId& id : *group) {
        if (!topology_.Contains(id)) {
          return InvalidArgumentError("fault plan names server " +
                                      id.ToString() +
                                      " outside the scenario topology: " +
                                      event.ToLine());
        }
      }
    }
  }
  ran_ = true;

  ScheduleWorkload();
  tailer_->Start();
  for (const FaultEvent& event : plan.events) {
    // Faults land strictly before the final heal, so convergence invariants
    // always get a fully-healed network to judge.
    SimTime at = std::clamp<SimTime>(event.at, 0, options_.chaos_duration - 1);
    sim_->ScheduleAt(at, [this, event] { ApplyFault(event); });
  }
  sim_->ScheduleAt(options_.chaos_duration, [this] { FinalHeal(); });

  const SimTime end = options_.chaos_duration + options_.settle;
  const uint64_t stride =
      options_.check_stride > 1 ? static_cast<uint64_t>(options_.check_stride)
                                : 1;
  uint64_t steps = 0;
  while (!violated_ && sim_->now() <= end && sim_->Step()) {
    if (++steps % stride == 0) {
      CheckContinuous();
    }
  }
  if (!violated_ && stride > 1) {
    // Judge the tail events a stride boundary skipped before convergence.
    CheckContinuous();
  }
  if (!violated_) {
    CheckConvergence();
  }

  RunResult result;
  result.violated = violated_;
  result.violation = violation_;
  result.committed_zxid = zeus_->last_committed_zxid();
  result.published = published_;
  result.vessel_completed =
      swarm_ != nullptr ? swarm_->stats().completed_clients : 0;
  result.net = net_->stats();
  result.sim_events = sim_->processed_events();
  result.trace = BuildTrace(plan);
  return result;
}

void Harness::CheckContinuous() {
  if (violated_) {
    return;
  }
  for (size_t i = 0; i < proxies_.size(); ++i) {
    for (const std::string& key : tracked_keys_) {
      const OnDiskCache::Entry* entry = apps_[i]->Get(key);
      bool& seen = ever_seen_[i][key];
      int64_t& last_zxid = last_seen_zxid_[i][key];
      if (entry == nullptr) {
        if (seen) {
          Fail("last-known-good",
               StrFormat("proxy %zu lost previously-observed key %s", i,
                         key.c_str()));
          return;
        }
        continue;
      }
      if (entry->zxid < last_zxid) {
        Fail("monotonic-version",
             StrFormat("proxy %zu key %s went backwards: zxid %lld -> %lld", i,
                       key.c_str(), static_cast<long long>(last_zxid),
                       static_cast<long long>(entry->zxid)),
             entry->zxid);
        return;
      }
      if (entry->zxid > zeus_->last_committed_zxid()) {
        Fail("phantom-version",
             StrFormat("proxy %zu key %s has zxid %lld beyond commit point %lld",
                       i, key.c_str(), static_cast<long long>(entry->zxid),
                       static_cast<long long>(zeus_->last_committed_zxid())),
             entry->zxid);
        return;
      }
      if (key == vessel_key_) {
        Result<Json> parsed = Json::Parse(entry->value);
        bool ok = parsed.ok();
        if (ok) {
          Result<VesselMetadata> meta = VesselMetadata::FromJson(*parsed);
          ok = meta.ok() && meta->name == vessel_name_ &&
               meta->content_hash ==
                   VesselPublisher::SyntheticHash(meta->name, meta->version);
        }
        if (!ok) {
          Fail("vessel-metadata-hash",
               StrFormat("proxy %zu holds vessel metadata whose hash does not "
                         "match the published content (zxid %lld)",
                         i, static_cast<long long>(entry->zxid)));
          return;
        }
      } else if (written_values_[key].count(entry->value) == 0) {
        Fail("no-torn-config",
             StrFormat("proxy %zu key %s serves a value never committed "
                       "(zxid %lld, %zu bytes): torn or corrupt",
                       i, key.c_str(), static_cast<long long>(entry->zxid),
                       entry->value.size()));
        return;
      }
      seen = true;
      last_zxid = std::max(last_zxid, entry->zxid);
    }
    // cross-config-invariant: the shed/kill marker pair is only ever written
    // by the inconsistent-commit fault (the normal workload's values carry
    // neither field), so a proxy serving both halves in a violating state
    // means an inconsistent commit reached the fleet. The substring guard
    // keeps the JSON parse off the hot path for ordinary values.
    if (options_.keys >= 2) {
      const OnDiskCache::Entry* e0 = apps_[i]->Get(tracked_keys_[0]);
      const OnDiskCache::Entry* e1 = apps_[i]->Get(tracked_keys_[1]);
      if (e0 != nullptr && e1 != nullptr &&
          e0->value.find("\"shed\"") != std::string::npos &&
          e1->value.find("\"kill\"") != std::string::npos) {
        Result<Json> j0 = Json::Parse(e0->value);
        Result<Json> j1 = Json::Parse(e1->value);
        if (j0.ok() && j1.ok()) {
          const Json* shed = j0->Get("shed");
          const Json* kill = j1->Get("kill");
          if (shed != nullptr && kill != nullptr && shed->is_number() &&
              kill->is_number() && shed->as_double() > kill->as_double()) {
            Fail("cross-config-invariant",
                 StrFormat("proxy %zu serves shed=%g above kill=%g (zxids "
                           "%lld/%lld): a jointly-inconsistent pair reached "
                           "the fleet",
                           i, shed->as_double(), kill->as_double(),
                           static_cast<long long>(e0->zxid),
                           static_cast<long long>(e1->zxid)),
                 std::max(e0->zxid, e1->zxid));
            return;
          }
        }
      }
    }
    if (options_.enable_gatekeeper) {
      CheckGatekeeper(i);
      if (violated_) {
        return;
      }
    }
  }
}

const NaiveEvaluator* Harness::ReferenceProject(const std::string& json_text) {
  auto it = gk_reference_cache_.find(json_text);
  if (it != gk_reference_cache_.end()) {
    return it->second.get();
  }
  std::unique_ptr<NaiveEvaluator> compiled;
  Result<Json> parsed = Json::Parse(json_text);
  if (parsed.ok()) {
    // Plain declared-order evaluation: the runtime's compiled snapshot and
    // cost-based reordering are checked against unoptimized semantics.
    Result<NaiveEvaluator> project = NaiveEvaluator::FromJson(*parsed);
    if (project.ok()) {
      compiled = std::make_unique<NaiveEvaluator>(std::move(*project));
    }
  }
  const NaiveEvaluator* result = compiled.get();
  gk_reference_cache_[json_text] = std::move(compiled);
  return result;
}

void Harness::CheckGatekeeper(size_t proxy_idx) {
  const std::string& delivered = gk_delivered_[proxy_idx];
  const NaiveEvaluator* reference =
      delivered.empty() ? nullptr : ReferenceProject(delivered);
  if (!delivered.empty() && reference == nullptr) {
    Fail("gatekeeper-consistency",
         StrFormat("proxy %zu was delivered a Gatekeeper config that does not "
                   "compile (%zu bytes)",
                   proxy_idx, delivered.size()));
    return;
  }
  for (const UserContext& user : gk_users_) {
    bool actual = gk_runtimes_[proxy_idx]->Check("dst_rollout", user);
    bool expected = reference != nullptr && reference->Check(user, nullptr);
    if (actual != expected) {
      Fail("gatekeeper-consistency",
           StrFormat("proxy %zu gk_check(dst_rollout, user %lld) = %d but the "
                     "delivered config evaluates to %d",
                     proxy_idx, static_cast<long long>(user.user_id),
                     actual ? 1 : 0, expected ? 1 : 0));
      return;
    }
  }
}

void Harness::CheckConvergence() {
  for (const ServerId& observer : observer_ids_) {
    int64_t last = zeus_->ObserverLastZxid(observer);
    if (last != zeus_->last_committed_zxid()) {
      Fail("convergence-observer",
           StrFormat("observer %s stuck at zxid %lld, commit point %lld",
                     SidStr(observer).c_str(), static_cast<long long>(last),
                     static_cast<long long>(zeus_->last_committed_zxid())));
      return;
    }
  }
  for (size_t i = 0; i < proxies_.size(); ++i) {
    for (const std::string& key : tracked_keys_) {
      const ZeusValue* truth = zeus_->Lookup(key);
      if (truth == nullptr) {
        continue;  // Never committed (e.g. every write to it was lost).
      }
      const OnDiskCache::Entry* entry = apps_[i]->Get(key);
      if (entry == nullptr || entry->value != truth->value ||
          entry->zxid != truth->zxid) {
        Fail("convergence-proxy",
             StrFormat("proxy %zu key %s did not converge: have zxid %lld, "
                       "truth zxid %lld",
                       i, key.c_str(),
                       static_cast<long long>(entry != nullptr ? entry->zxid
                                                               : -1),
                       static_cast<long long>(truth->zxid)),
             truth->zxid);
        return;
      }
    }
  }
  if (swarm_ != nullptr && !swarm_->AllComplete()) {
    Fail("vessel-complete",
         StrFormat("swarm finished %zu of %zu clients",
                   swarm_->stats().completed_clients, proxy_hosts_.size()));
    return;
  }
  if (options_.freshness_slo > 0) {
    CheckFreshness();
  }
}

void Harness::CheckFreshness() {
  // Fleet-wide propagation latency: the merge of every proxy's log-linear
  // histogram equals recording the union stream, so the fleet p99.9 comes
  // straight out of the roll-up.
  Histogram fleet = obs_.metrics.MergedHistogram("proxy_propagation_seconds");
  if (fleet.count() == 0) {
    return;
  }
  double bound = SimToSeconds(options_.freshness_slo);
  double p999 = fleet.Quantile(0.999);
  if (p999 <= bound) {
    return;
  }
  // Identify the slowest proxy and the zxid of its slowest delivery so the
  // violation report can embed that commit's span tree.
  double worst = -1;
  ServerId worst_host{};
  for (const ServerId& host : proxy_hosts_) {
    const Histogram* h = obs_.metrics.FindHistogram(
        "proxy_propagation_seconds", {{"server", host.ToString()}});
    if (h != nullptr && h->count() > 0 && h->max() > worst) {
      worst = h->max();
      worst_host = host;
    }
  }
  int64_t slowest_zxid = -1;
  const Gauge* slow = obs_.metrics.FindGauge(
      "proxy_slowest_zxid", {{"server", worst_host.ToString()}});
  if (slow != nullptr) {
    slowest_zxid = static_cast<int64_t>(slow->value());
  }
  Fail("freshness-slo",
       StrFormat("fleet p99.9 propagation %.3fs exceeds SLO %.3fs "
                 "(worst %.3fs on proxy %s, zxid %lld)",
                 p999, bound, worst, worst_host.ToString().c_str(),
                 static_cast<long long>(slowest_zxid)),
       slowest_zxid);
}

void Harness::Fail(const std::string& invariant, std::string message,
                   int64_t zxid) {
  if (violated_) {
    return;
  }
  violated_ = true;
  violation_.at = sim_->now();
  violation_.invariant = invariant;
  violation_.message = std::move(message);
  if (zxid >= 0) {
    violation_.span_tree = SpanTreeForZxid(zxid);
  }
}

std::string Harness::SpanTreeForZxid(int64_t zxid) const {
  TraceContext ctx = obs_.tracer.ZxidContext(zxid);
  if (!ctx.valid()) {
    return "";
  }
  return obs_.tracer.DumpTree(ctx.trace_id);
}

void Harness::Log(std::string line) {
  log_.push_back(StrFormat("log %lld ", static_cast<long long>(sim_->now())) +
                 std::move(line));
}

std::string Harness::BuildTrace(const FaultPlan& plan) const {
  std::string out = std::string(kTraceHeader) + "\n";
  out += "scenario " + options_.ToLine() + "\n";
  out += "plan-begin\n";
  out += plan.ToString();
  out += "plan-end\n";
  for (const std::string& line : log_) {
    out += line + "\n";
  }
  if (violated_) {
    out += StrFormat("violation at=%lld invariant=%s :: %s\n",
                     static_cast<long long>(violation_.at),
                     violation_.invariant.c_str(), violation_.message.c_str());
    if (!violation_.span_tree.empty()) {
      // The implicated commit's span tree, for humans reading the trace.
      // ParseTrace ignores these lines, so replay is unaffected.
      out += "span-tree-begin\n";
      out += violation_.span_tree;
      out += "span-tree-end\n";
    }
  } else {
    out += "result ok\n";
  }
  return out;
}

Result<Harness::ReplaySpec> Harness::ParseTrace(const std::string& trace_text) {
  ReplaySpec spec;
  bool have_scenario = false;
  bool in_plan = false;
  std::string plan_text;
  std::istringstream in(trace_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line == "plan-begin") {
      in_plan = true;
    } else if (line == "plan-end") {
      in_plan = false;
    } else if (in_plan) {
      plan_text += line + "\n";
    } else if (line.rfind("scenario ", 0) == 0) {
      ASSIGN_OR_RETURN(spec.scenario, ScenarioOptions::Parse(line.substr(9)));
      have_scenario = true;
    }
  }
  if (!have_scenario) {
    return InvalidArgumentError("trace has no scenario line");
  }
  ASSIGN_OR_RETURN(spec.plan, FaultPlan::Parse(plan_text));
  return spec;
}

Result<RunResult> Harness::Replay(const std::string& trace_text) {
  ASSIGN_OR_RETURN(ReplaySpec spec, ParseTrace(trace_text));
  Harness harness(spec.scenario);
  return harness.Run(spec.plan);
}

}  // namespace configerator
