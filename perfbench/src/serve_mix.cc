// serve_mix: one frontend server reading configs and checking Gatekeeper
// while config updates land beside the reads.
//
// One reader thread runs a closed loop over a fixed amount of work per round.
// A request reads and parses 4 configs through AppConfigClient::Get (keys
// Zipf-chosen over the 800 outputs of the synthetic repo, held by a proxy
// populated in set-up), then runs CheckMany over 64 users on a Zipf-chosen
// project out of 48 of mixed shape. One writer thread applies a fixed
// sequence of project updates 1 ms apart and calls Rebuild() after every
// 8th. No simulator and no compiler run in the timed phase.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/synthetic_repo.h"
#include "perfbench/src/common.h"
#include "perfbench/src/gk_projects.h"
#include "src/distribution/proxy.h"
#include "src/gatekeeper/naive.h"
#include "src/gatekeeper/runtime.h"
#include "src/json/json.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/util/rng.h"
#include "src/util/strings.h"
#include "src/zeus/zeus.h"

namespace perfbench {
namespace {

using namespace configerator;

constexpr int kReaders = 1;
// The run's work is fixed, not its time: --seconds buys one round per
// kRoundSeconds of budget (at least kMinRounds), whatever the host's speed.
constexpr int kMinRounds = 4;
constexpr double kRoundSeconds = 0.5;
constexpr int kRequestsPerReader = 40000;  // Fixed work per round.
constexpr int kKeysPerRequest = 4;
constexpr int kProjects = 48;
constexpr size_t kUsersPerCheck = 64;
constexpr int64_t kUserPool = 4096;
constexpr int kRebuildEvery = 8;
constexpr auto kWriterPeriod = std::chrono::milliseconds(1);
// One request in kOracleEvery has its per-user outcomes compared with the
// reference evaluator. Only projects the writer never updates are sampled,
// so the reference and the runtime see the same version.
constexpr int kOracleEvery = 64;
// The proxy holds every output within 2 sim-seconds on the seeds tried; 10
// leave a margin.
constexpr SimTime kPopulateSim = 10 * kSimSecond;

bool WriterUpdates(int project) { return project % 2 == 0; }

// The frontend server's view of the distribution tree: a one-cluster Zeus
// ensemble and the proxy on the frontend server, filled with every output.
class Frontend {
 public:
  explicit Frontend(uint64_t seed)
      : net_(&sim_, Topology(1, 1, 8), seed),
        zeus_(&net_, {ServerId{0, 0, 0}, ServerId{0, 0, 1}, ServerId{0, 0, 2}},
              {ServerId{0, 0, 7}}),
        proxy_(&net_, &zeus_, ServerId{0, 0, 4}, &disk_, seed + 1) {}

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  // Publishes every output through Zeus, subscribes the proxy to it and
  // simulates a fixed stretch of time, whatever the seed; true if the proxy
  // then holds every output.
  bool Populate(const std::vector<std::pair<std::string, std::string>>& outputs) {
    for (const auto& [path, content] : outputs) {
      zeus_.Write(ServerId{0, 0, 3}, path, content, [](Result<int64_t>) {});
      proxy_.Subscribe(path, nullptr);
    }
    sim_.RunUntil(kPopulateSim);
    for (const auto& [path, content] : outputs) {
      const OnDiskCache::Entry* entry = proxy_.GetCached(path);
      if (entry == nullptr || entry->value != content) {
        return false;
      }
    }
    return true;
  }

  AppConfigClient Client() const { return AppConfigClient(&proxy_, &disk_); }

 private:
  Simulator sim_;
  Network net_;
  ZeusEnsemble zeus_;
  OnDiskCache disk_;
  ConfigProxy proxy_;
};

struct ServeWorld {
  std::unique_ptr<Frontend> frontend;
  LaserStore laser;
  std::unique_ptr<GatekeeperRuntime> runtime;
  std::vector<std::string> output_paths;
  std::vector<std::string> project_names;
  std::vector<UserContext> users;
  int version[kProjects] = {};
};

// Per-thread timings of a traced round.
struct ReaderTrace {
  SampleSet read_ns, check_ns_per_user;
  double parse_ns = 0, parse_kb = 0;
};

struct RoundResult {
  bool traced = false;
  double rate = 0;  // Sum over readers of requests per second of own wall.
  uint64_t checks = 0;
  uint64_t swaps = 0;
  std::vector<double> update_ms;  // Apply (+ Rebuild) wall per update.
  SampleSet apply_us, rebuild_us;
  ReaderTrace reader;
};

std::unique_ptr<ServeWorld> BuildWorld(uint64_t seed, Report* report, double* compile_s,
                                       double* populate_s) {
  auto world = std::make_unique<ServeWorld>();
  Clock::time_point compile_start = Clock::now();
  SyntheticRepo repo = BuildSyntheticRepo();
  ConfigCompiler compiler(repo.sources.AsReader());
  std::vector<std::pair<std::string, std::string>> outputs;
  for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
    Result<CompileOutput> output = compiler.Compile(SyntheticRepo::EntryPath(e));
    if (!output.ok() || output->configs.size() != 1) {
      report->Fail("compile " + SyntheticRepo::EntryPath(e));
      continue;
    }
    outputs.emplace_back(output->configs[0].path, output->configs[0].content.DumpPretty());
    world->output_paths.push_back(output->configs[0].path);
  }
  *compile_s = SecondsSince(compile_start);

  Clock::time_point populate_start = Clock::now();
  world->frontend = std::make_unique<Frontend>(seed);
  report->Check(world->frontend->Populate(outputs), "proxy did not fill");
  FillLaser(&world->laser, kUserPool);
  world->runtime = std::make_unique<GatekeeperRuntime>(&world->laser);
  for (int p = 0; p < kProjects; ++p) {
    world->project_names.push_back(GkProjectName(p));
    Status status = world->runtime->ApplyConfigUpdate(GkProjectPath(p), GkProjectJson(p, 0));
    report->Check(status.ok(), "load " + GkProjectPath(p) + ": " + status.ToString());
  }
  for (int64_t id = 0; id < kUserPool; ++id) {
    world->users.push_back(GkUser(id));
  }
  *populate_s = SecondsSince(populate_start);
  return world;
}

Result<NaiveEvaluator> Reference(int project, int version) {
  ASSIGN_OR_RETURN(Json json, Json::Parse(GkProjectJson(project, version)));
  return NaiveEvaluator::FromJson(json);
}

// One reader's fixed share of a round.
void ReaderLoop(const ServeWorld& world, uint64_t seed, bool traced,
                const ZipfDistribution& key_zipf, const ZipfDistribution& project_zipf,
                ReaderTrace* trace, std::atomic<uint64_t>* failures) {
  Rng rng(seed);
  AppConfigClient client = world.frontend->Client();
  // References for the projects the writer leaves alone; their versions do
  // not change while the writer runs.
  std::vector<std::unique_ptr<NaiveEvaluator>> reference(kProjects);
  for (int p = 0; p < kProjects; ++p) {
    if (WriterUpdates(p)) {
      continue;
    }
    Result<NaiveEvaluator> naive = Reference(p, world.version[p]);
    if (naive.ok()) {
      reference[p] = std::make_unique<NaiveEvaluator>(std::move(*naive));
    }
  }
  std::vector<UserContext> batch(kUsersPerCheck);
  std::vector<uint8_t> outcomes;
  uint64_t failed = 0;
  for (int request = 0; request < kRequestsPerReader; ++request) {
    for (int k = 0; k < kKeysPerRequest; ++k) {
      const std::string& path = world.output_paths[key_zipf.Sample(rng)];
      Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
      const OnDiskCache::Entry* entry = client.Get(path);
      Clock::time_point t1 = traced ? Clock::now() : Clock::time_point{};
      if (entry == nullptr) {
        ++failed;
        continue;
      }
      Result<Json> parsed = Json::Parse(entry->value);
      if (traced) {
        Clock::time_point t2 = Clock::now();
        trace->read_ns.Add(Seconds(t0, t1) * 1e9);
        trace->parse_ns += Seconds(t1, t2) * 1e9;
        trace->parse_kb += static_cast<double>(entry->value.size()) / 1024.0;
      }
      failed += parsed.ok() && parsed->is_object() ? 0 : 1;
    }
    int project = static_cast<int>(project_zipf.Sample(rng));
    size_t first = rng.NextBounded(kUserPool - kUsersPerCheck);
    std::copy_n(world.users.begin() + static_cast<std::ptrdiff_t>(first), kUsersPerCheck,
                batch.begin());
    bool oracle = request % kOracleEvery == 0 && !WriterUpdates(project);
    Clock::time_point t0 = traced ? Clock::now() : Clock::time_point{};
    world.runtime->CheckMany(world.project_names[static_cast<size_t>(project)], batch,
                             oracle ? &outcomes : nullptr);
    if (traced) {
      trace->check_ns_per_user.Add(SecondsSince(t0) * 1e9 / kUsersPerCheck);
    }
    if (oracle) {
      for (size_t u = 0; u < kUsersPerCheck; ++u) {
        bool expected = reference[project] != nullptr &&
                        reference[project]->Check(batch[u], &world.laser);
        failed += (outcomes[u] != 0) == expected ? 0 : 1;
      }
    }
  }
  failures->fetch_add(failed);
}

RoundResult RunRound(ServeWorld* world, uint64_t seed, bool traced,
                     const ZipfDistribution& key_zipf,
                     const ZipfDistribution& project_zipf, Rng* writer_rng,
                     Report* report) {
  RoundResult result;
  result.traced = traced;
  uint64_t checks0 = world->runtime->check_count();
  uint64_t version0 = world->runtime->snapshot_version();
  std::atomic<uint64_t> failures{0};
  std::atomic<int> readers_left{kReaders};
  std::vector<ReaderTrace> traces(kReaders);
  std::vector<double> reader_rates(kReaders);
  Clock::time_point start = Clock::now();
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      Clock::time_point reader_start = Clock::now();
      ReaderLoop(*world, seed * 1000 + static_cast<uint64_t>(r), traced, key_zipf,
                 project_zipf, &traces[static_cast<size_t>(r)], &failures);
      reader_rates[static_cast<size_t>(r)] = kRequestsPerReader / SecondsSince(reader_start);
      readers_left.fetch_sub(1);
    });
  }
  // The writer runs on this thread until both readers finish.
  int updates = 0;
  Status writer_status;
  Clock::time_point next = start;
  while (readers_left.load() > 0) {
    int project = 2 * static_cast<int>(writer_rng->NextBounded(kProjects / 2));
    int version = ++world->version[project];
    std::string json = GkProjectJson(project, version);
    Clock::time_point t0 = Clock::now();
    Status status = world->runtime->ApplyConfigUpdate(GkProjectPath(project), json);
    Clock::time_point t1 = Clock::now();
    Clock::time_point t2 = t1;
    if (++updates % kRebuildEvery == 0) {
      world->runtime->Rebuild();
      t2 = Clock::now();
      result.rebuild_us.Add(Seconds(t1, t2) * 1e6);
    }
    result.apply_us.Add(Seconds(t0, t1) * 1e6);
    result.update_ms.push_back(Seconds(t0, t2) * 1e3);
    if (!status.ok()) {
      writer_status = status;
    }
    // Spin, not sleep, until the next tick. A sleeping writer lets its vCPU
    // go idle, and each update is then timed on a core just woken from idle:
    // the update p50 spread 0.33 over nine runs that way, 0.04-0.07 spinning.
    next += kWriterPeriod;
    while (Clock::now() < next && readers_left.load() > 0) {
    }
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  for (double rate : reader_rates) {
    result.rate += rate;
  }
  result.checks = world->runtime->check_count() - checks0;
  result.swaps = world->runtime->snapshot_version() - version0;
  report->Attempt(static_cast<uint64_t>(kReaders) * kRequestsPerReader +
                  static_cast<uint64_t>(updates));
  report->Check(writer_status.ok(), "writer update: " + writer_status.ToString());
  for (uint64_t i = 0; i < failures.load(); ++i) {
    report->Fail("a read failed to parse or a sampled check disagreed with the reference");
  }
  report->Check(result.checks ==
                    static_cast<uint64_t>(kReaders) * kRequestsPerReader * kUsersPerCheck,
                StrFormat("runtime counted %llu checks",
                          static_cast<unsigned long long>(result.checks)));
  for (const ReaderTrace& trace : traces) {
    for (double v : trace.read_ns.samples()) {
      result.reader.read_ns.Add(v);
    }
    for (double v : trace.check_ns_per_user.samples()) {
      result.reader.check_ns_per_user.Add(v);
    }
    result.reader.parse_ns += trace.parse_ns;
    result.reader.parse_kb += trace.parse_kb;
  }
  return result;
}

// After the timed phase: every project decides like the reference
// evaluator on its final version.
void CheckFinalProjects(const ServeWorld& world, Report* report) {
  for (int p = 0; p < kProjects; ++p) {
    Result<NaiveEvaluator> naive = Reference(p, world.version[p]);
    report->Check(naive.ok(), "reference rejects " + GkProjectPath(p));
    if (!naive.ok()) {
      continue;
    }
    for (int64_t id = 0; id < 256; ++id) {
      const UserContext& user = world.users[static_cast<size_t>(id * 13 % kUserPool)];
      report->Check(world.runtime->Check(GkProjectName(p), user) ==
                        naive->Check(user, &world.laser),
                    "runtime disagrees with the reference on " + GkProjectPath(p));
    }
  }
}

}  // namespace

void RunServeMix(const Options& options, Report* report) {
  std::vector<double> setups, compiles, populates;
  auto timed_setup = [&] {
    Clock::time_point start = Clock::now();
    double compile_s = 0, populate_s = 0;
    std::unique_ptr<ServeWorld> built = BuildWorld(options.seed, report, &compile_s, &populate_s);
    setups.push_back(SecondsSince(start));
    compiles.push_back(compile_s);
    populates.push_back(populate_s);
    return built;
  };
  std::unique_ptr<ServeWorld> world = timed_setup();

  ZipfDistribution key_zipf(world->output_paths.size(), 1.0);
  ZipfDistribution project_zipf(kProjects, 1.0);
  Rng writer_rng(options.seed * 31 + 5);
  // One untimed round first: the first round after set-up runs cold.
  RunRound(world.get(), options.seed, false, key_zipf, project_zipf, &writer_rng, report);
  std::vector<RoundResult> rounds;
  const size_t wanted = static_cast<size_t>(
      std::max<long>(kMinRounds, std::lround(options.seconds / kRoundSeconds)));
  while (rounds.size() < wanted) {
    bool traced = options.trace && rounds.size() % 2 == 0;
    rounds.push_back(RunRound(world.get(), options.seed + rounds.size() + 1, traced, key_zipf,
                              project_zipf, &writer_rng, report));
    // Set-up is timed again between rounds, on a world that is thrown away,
    // so its median spans the whole run rather than one burst at the start.
    timed_setup();
  }
  CheckFinalProjects(*world, report);

  // End-to-end numbers come from the rounds of the run's own kind.
  std::vector<double> rates, traced_rates, untraced_rates;
  SampleSet update_ms, apply_us, rebuild_us, read_ns, check_ns;
  double parse_ns = 0, parse_kb = 0, swaps = 0;
  for (const RoundResult& round : rounds) {
    double rate = round.rate;
    rates.push_back(rate);
    (round.traced ? traced_rates : untraced_rates).push_back(rate);
    if (round.traced != options.trace) {
      continue;
    }
    for (double v : round.update_ms) {
      update_ms.Add(v);
    }
    for (double v : round.apply_us.samples()) {
      apply_us.Add(v);
    }
    for (double v : round.rebuild_us.samples()) {
      rebuild_us.Add(v);
    }
    for (double v : round.reader.read_ns.samples()) {
      read_ns.Add(v);
    }
    for (double v : round.reader.check_ns_per_user.samples()) {
      check_ns.Add(v);
    }
    parse_ns += round.reader.parse_ns;
    parse_kb += round.reader.parse_kb;
    swaps += static_cast<double>(round.swaps);
  }
  report->Rounds("setup_s", setups);
  report->Rounds("serve_requests_per_s", rates);

  const std::vector<double>& e2e_rates = options.trace ? traced_rates : untraced_rates;
  report->EndToEnd("setup_s", Median(setups), "s");
  report->EndToEnd("ops_per_s", Median(e2e_rates), "1/s");
  report->EndToEnd("commit_wall_p50_ms", update_ms.Percentile(50), "ms");
  report->EndToEnd("commit_wall_p90_ms", update_ms.Percentile(90), "ms");
  report->Headline("gk_update_p99_us", update_ms.Percentile(99) * 1e3, "us");
  report->Headline("gk_updates", static_cast<double>(update_ms.size()), "count");
  report->Headline("rounds", static_cast<double>(rounds.size()), "count");
  if (!options.trace) {
    return;
  }

  size_t traced_rounds = (rounds.size() + 1) / 2;
  report->Layer("gatekeeper.check_ns_per_user", check_ns.Percentile(50), "ns");
  report->Layer("distribution.read_ns", read_ns.Percentile(50), "ns");
  report->Layer("json.parse_ns_per_kb", parse_kb > 0 ? parse_ns / parse_kb : 0, "ns/KiB");
  report->Layer("gatekeeper.apply_update_us", apply_us.Percentile(50), "us");
  report->Layer("gatekeeper.rebuild_us", rebuild_us.Percentile(50), "us");
  report->Layer("gatekeeper.snapshot_swaps", swaps / static_cast<double>(traced_rounds),
                "count");
  report->Layer("gatekeeper.checks", static_cast<double>(rounds.front().checks), "count");
  report->Layer("setup.compile_s", Median(compiles), "s");
  report->Layer("distribution.fleet.subscribe_s", Median(populates), "s");
  double untraced = Median(untraced_rates);
  report->Layer("trace.overhead_frac",
                untraced > 0 ? untraced / Median(traced_rates) - 1 : 0, "ratio");
}

}  // namespace perfbench
