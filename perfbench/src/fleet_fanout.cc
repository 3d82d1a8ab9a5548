// fleet_fanout: commits through the distribution tree at 100k servers.
//
// The fleet is the fig14_scale 100k shape — 2 regions x 16 clusters x 3125
// hosts, 99,904 of them in a ProxyFleet subscribed to 4 keys. Each round
// builds the world from the seed, then lands 20 commits one every 10
// sim-seconds (an open loop in sim time) through LandingStrip -> GitTailer ->
// ZeusEnsemble -> observers -> fleet, and runs the simulator until every
// server holds every commit. Compile and CI do no work here.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/distribution/fleet.h"
#include "src/distribution/tailer.h"
#include "src/obs/observability.h"
#include "src/pipeline/landing_strip.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/strings.h"
#include "src/vcs/repository.h"
#include "src/zeus/zeus.h"

namespace perfbench {
namespace {

using namespace configerator;

constexpr int kRegions = 2;
constexpr int kClustersPerRegion = 16;
constexpr int kServersPerCluster = 3125;
constexpr int kKeys = 4;
constexpr int kCommits = 20;
// The run's work is fixed, not its time: --seconds buys one round per
// kRoundSeconds of budget (at least kMinRounds), whatever the host's speed.
constexpr int kMinRounds = 3;
constexpr double kRoundSeconds = 4;
constexpr SimTime kFirstCommit = 20 * kSimSecond;
constexpr SimTime kCommitSpacing = 10 * kSimSecond;
constexpr char kPayloadPrefix[] = "fanout-";

std::string KeyName(int k) { return StrFormat("conf/scale%02d.json", k); }

// Fleet hosts are layers [2, spc-1) of every cluster: layer 0 holds the Zeus
// members, layer 1 the tailer, the top layer one observer per cluster.
std::vector<ServerId> FleetHosts() {
  std::vector<ServerId> hosts;
  for (int r = 0; r < kRegions; ++r) {
    for (int c = 0; c < kClustersPerRegion; ++c) {
      for (int s = 2; s + 1 < kServersPerCluster; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  return hosts;
}

struct RoundResult {
  double setup_s = 0;
  double subscribe_s = 0;
  double land_s = 0;
  double timed_s = 0;
  std::vector<double> commit_wall_ms;
  SampleSet land_us;
  SampleSet sim_latency_s;  // Traced rounds: one sample per delivery.
  uint64_t events = 0, messages = 0, bytes = 0, updates = 0;
  size_t materialized_links = 0, traces_recorded = 0;
  uint64_t traces_sampled_out = 0;
};

// One world: built, subscribed, then driven through kCommits commits.
class FanoutWorld {
 public:
  explicit FanoutWorld(uint64_t seed)
      : net_(&sim_, Topology(kRegions, kClustersPerRegion, kServersPerCluster), seed),
        repo_("configerator"),
        strip_(&repo_) {
    std::vector<ServerId> members = {ServerId{0, 0, 0}, ServerId{1, 0, 0},
                                     ServerId{0, 1, 0}, ServerId{1, 1, 0},
                                     ServerId{0, 2, 0}};
    std::vector<ServerId> observers;
    for (int r = 0; r < kRegions; ++r) {
      for (int c = 0; c < kClustersPerRegion; ++c) {
        observers.push_back(ServerId{r, c, kServersPerCluster - 1});
      }
    }
    ZeusEnsemble::Options zeus_options;
    zeus_options.processing_delay = 100 * kSimMillisecond;
    zeus_ = std::make_unique<ZeusEnsemble>(&net_, members, observers, zeus_options);
    // At fleet scale the tracer keeps 1 commit tree in 8.
    obs_.tracer.SetSampleEvery(8);
    zeus_->AttachObservability(&obs_);
    strip_.AttachObservability(&obs_);
    tailer_ = std::make_unique<GitTailer>(&net_, ServerId{0, 0, 1}, &repo_,
                                          zeus_.get(), GitTailer::Options{});
    tailer_->AttachObservability(&obs_);
    tailer_->Start();
    fleet_ = std::make_unique<ProxyFleet>(&net_, zeus_.get(), FleetHosts(), seed + 7);
  }

  FanoutWorld(const FanoutWorld&) = delete;
  FanoutWorld& operator=(const FanoutWorld&) = delete;

  void Setup(RoundResult* result, Report* report);
  void RunCommits(bool traced, RoundResult* result, Report* report);

 private:
  Result<ObjectId> Land(int commit) {
    std::string payload = StrFormat("%s%03d", kPayloadPrefix, commit);
    return strip_.Land(MakeProposedDiff(repo_, "fanout", "fan-out commit",
                                        {{KeyName(commit % kKeys), payload}},
                                        sim_.now() / kSimMillisecond));
  }

  Simulator sim_;
  Network net_;
  Observability obs_;
  std::unique_ptr<ZeusEnsemble> zeus_;
  Repository repo_;
  LandingStrip strip_;
  std::unique_ptr<GitTailer> tailer_;
  std::unique_ptr<ProxyFleet> fleet_;
};

void FanoutWorld::Setup(RoundResult* result, Report* report) {
  Clock::time_point land_start = Clock::now();
  std::vector<FileWrite> initial;
  for (int k = 0; k < kKeys; ++k) {
    initial.push_back(FileWrite{KeyName(k), "initial"});
  }
  Result<ObjectId> landed =
      strip_.Land(MakeProposedDiff(repo_, "fanout", "initial keys", initial, 0));
  report->Check(landed.ok(), "initial land: " + landed.status().ToString());
  result->land_s = SecondsSince(land_start);

  Clock::time_point subscribe_start = Clock::now();
  for (int k = 0; k < kKeys; ++k) {
    fleet_->SubscribeAll(KeyName(k), /*spread=*/10 * kSimSecond);
  }
  sim_.RunUntil(kFirstCommit);
  result->subscribe_s = SecondsSince(subscribe_start);
  for (int k = 0; k < kKeys; ++k) {
    report->Check(fleet_->CountAtLeast(static_cast<size_t>(k), 1) == fleet_->size(),
                  "subscription to " + KeyName(k) + " did not fill the fleet");
  }
}

void FanoutWorld::RunCommits(bool traced, RoundResult* result, Report* report) {
  const size_t fleet_size = fleet_->size();
  std::vector<size_t> delivered(kCommits, 0);
  std::vector<SimTime> landed_at(kCommits, 0);
  std::vector<Clock::time_point> land_wall(kCommits), done_wall(kCommits);
  fleet_->set_update_hook([&](size_t, size_t, const ZeusTxn& txn) {
    if (!txn.value.starts_with(kPayloadPrefix)) {
      return;
    }
    int commit = std::atoi(txn.value.c_str() + sizeof(kPayloadPrefix) - 1);
    if (traced) {
      result->sim_latency_s.Add(SimToSeconds(sim_.now() - landed_at[commit]));
    }
    if (++delivered[commit] == fleet_size) {
      done_wall[commit] = Clock::now();
    }
  });
  for (int i = 0; i < kCommits; ++i) {
    sim_.ScheduleAt(kFirstCommit + i * kCommitSpacing, [&, i] {
      land_wall[i] = Clock::now();
      landed_at[i] = sim_.now();
      Result<ObjectId> landed = Land(i);
      if (traced) {
        result->land_us.Add(SecondsSince(land_wall[i]) * 1e6);
      }
      report->Check(landed.ok(), "land: " + landed.status().ToString());
    });
  }

  uint64_t events0 = sim_.processed_events();
  uint64_t messages0 = net_.messages_sent();
  uint64_t bytes0 = net_.bytes_sent();
  uint64_t updates0 = fleet_->updates_received();
  SimTime horizon = kFirstCommit + kCommits * kCommitSpacing;
  Clock::time_point start = Clock::now();
  sim_.RunUntil(horizon);
  result->timed_s = SecondsSince(start);
  result->events = sim_.processed_events() - events0;
  result->messages = net_.messages_sent() - messages0;
  result->bytes = net_.bytes_sent() - bytes0;
  result->updates = fleet_->updates_received() - updates0;
  result->materialized_links = net_.materialized_links();
  result->traces_recorded = obs_.tracer.trace_count();
  result->traces_sampled_out = obs_.tracer.sampled_out();
  fleet_->set_update_hook(nullptr);

  for (int i = 0; i < kCommits; ++i) {
    report->Attempt();
    if (delivered[i] != fleet_size) {
      report->Fail(StrFormat("commit %d reached %zu of %zu servers", i, delivered[i],
                             fleet_size));
      continue;
    }
    result->commit_wall_ms.push_back(Seconds(land_wall[i], done_wall[i]) * 1e3);
  }
  for (int k = 0; k < kKeys; ++k) {
    const ZeusValue* head = zeus_->Lookup(KeyName(k));
    report->Check(head != nullptr &&
                      fleet_->CountAtLeast(static_cast<size_t>(k), head->zxid) ==
                          fleet_size,
                  "fleet does not hold the last zxid of " + KeyName(k));
  }
}

}  // namespace

void RunFleetFanout(const Options& options, Report* report) {
  // Rounds alternate traced and untraced in the traced run, so the tracing
  // overhead is the ratio of their medians.
  std::vector<RoundResult> rounds;
  const size_t wanted = static_cast<size_t>(
      std::max<long>(kMinRounds, std::lround(options.seconds / kRoundSeconds)));
  while (rounds.size() < wanted) {
    bool traced = options.trace && rounds.size() % 2 == 0;
    RoundResult result;
    Clock::time_point setup_start = Clock::now();
    FanoutWorld world(options.seed);
    world.Setup(&result, report);
    result.setup_s = SecondsSince(setup_start);
    world.RunCommits(traced, &result, report);
    rounds.push_back(std::move(result));
  }

  // Every round replays the same seed, so the sim-side counts must agree.
  const RoundResult& first = rounds.front();
  std::vector<double> setups, per_commit_ms, traced_ms, untraced_ms, subscribes, lands;
  std::vector<double> all_walls;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const RoundResult& round = rounds[r];
    report->Check(round.events == first.events && round.messages == first.messages &&
                      round.bytes == first.bytes && round.updates == first.updates,
                  "rounds of one seed disagree on sim counts");
    setups.push_back(round.setup_s);
    subscribes.push_back(round.subscribe_s);
    lands.push_back(round.land_s);
    double ms = round.timed_s * 1e3 / kCommits;
    per_commit_ms.push_back(ms);
    (options.trace && r % 2 == 0 ? traced_ms : untraced_ms).push_back(ms);
    if (!options.trace || r % 2 == 0) {
      all_walls.insert(all_walls.end(), round.commit_wall_ms.begin(),
                       round.commit_wall_ms.end());
    }
  }
  report->Rounds("setup_s", setups);
  report->Rounds("fanout_wall_ms_per_commit", per_commit_ms);

  const std::vector<double>& e2e_ms = options.trace ? traced_ms : untraced_ms;
  SampleSet walls;
  for (double w : all_walls) {
    walls.Add(w);
  }
  double fanout_ms = Median(e2e_ms);
  report->EndToEnd("setup_s", Median(setups), "s");
  report->EndToEnd("ops_per_s", fanout_ms > 0 ? 1e3 / fanout_ms : 0, "1/s");
  report->EndToEnd("commit_wall_p50_ms", walls.Percentile(50), "ms");
  report->EndToEnd("commit_wall_p90_ms", walls.Percentile(90), "ms");
  report->Headline("fleet_servers", static_cast<double>(FleetHosts().size()), "count");
  report->Headline("rounds", static_cast<double>(rounds.size()), "count");
  if (!options.trace) {
    return;
  }

  // The first round is traced, so it holds the per-delivery latencies.
  report->Layer("fleet_sim_p99_s", first.sim_latency_s.Percentile(99), "sim_s");
  report->Layer("sim.events_per_commit", static_cast<double>(first.events) / kCommits,
                "count");
  report->Layer("sim.network.messages_per_commit",
                static_cast<double>(first.messages) / kCommits, "count");
  report->Layer("sim.network.bytes_per_commit", static_cast<double>(first.bytes) / kCommits,
                "B");
  report->Layer("sim.ns_per_event",
                Median(traced_ms) * 1e6 * kCommits / static_cast<double>(first.events), "ns");
  report->Layer("sim.network.materialized_links",
                static_cast<double>(first.materialized_links), "count");
  report->Layer("obs.traces_recorded", static_cast<double>(first.traces_recorded), "count");
  report->Layer("obs.traces_sampled_out", static_cast<double>(first.traces_sampled_out),
                "count");
  report->Layer("distribution.proxy_updates", static_cast<double>(first.updates), "count");
  report->Layer("distribution.fleet.subscribe_s", Median(subscribes), "s");
  report->Layer("setup.land_s", Median(lands), "s");
  SampleSet land_us;
  for (size_t r = 0; r < rounds.size(); r += 2) {
    for (double v : rounds[r].land_us.samples()) {
      land_us.Add(v);
    }
  }
  report->Layer("pipeline.landing.land_us", land_us.Percentile(50), "us");
  double untraced = Median(untraced_ms);
  report->Layer("trace.overhead_frac", untraced > 0 ? Median(traced_ms) / untraced - 1 : 0,
                "ratio");
}

}  // namespace perfbench
