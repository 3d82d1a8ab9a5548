// Figure 14 at fleet scale: commit-to-fleet propagation latency with 1k, 10k,
// and 100k subscribed servers, the push-vs-pull ablation re-run at each size,
// the §3.4 push-vs-pull table at the paper's argument scale, and the
// million-device MobileConfig fleet modeled as cohorts. This is the
// scaling companion to fig14_propagation_latency (which runs the full
// landing-strip pipeline at small scale over a simulated week): here the
// commit source writes directly to Zeus and the fleet is a ProxyFleet — two
// dense arrays per key instead of a ConfigProxy object per server — so the
// bench measures the distribution tree itself at the paper's sizes.
//
// Emits BENCH_fig14_scale.json:
//   * per-scale propagation percentiles (p50/p90/p99/p999) over every
//     (commit, server) delivery,
//   * scheduler throughput (events/sec) at each size — the calendar queue's
//     near-linearity claim is the 100k:10k ratio. Each push leg runs
//     kPushRepetitions times; the sim event, message and byte counts must
//     repeat exactly, and events/sec is the median with its IQR, so the
//     ratio (taken from the medians) can tell a move from host noise,
//   * push-vs-pull message/byte totals and staleness at each size,
//   * the §3.4 ablation: 200 servers x 100 configs, an hour of updates, push
//     against pull at 10/60/600 s poll intervals — messages, bytes and mean
//     staleness over the update window. The paper chose push because empty
//     polls are pure overhead at any rate and a stateless pull server makes
//     every poll carry the client's whole interest list,
//   * the 1M-device cohort model: polls/sec, update-delay quantiles, push
//     vs pull freshness, and bandwidth estimated from a sampled fleet
//     running the real sync protocol.
//
// --smoke runs only the 10k push leg and writes nothing (the "scale" ctest
// lane runs it as fig14_scale_smoke, a fast end-to-end probe).

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/distribution/fleet.h"
#include "src/distribution/pull.h"
#include "src/gatekeeper/runtime.h"
#include "src/json/json.h"
#include "src/mobile/cohort.h"
#include "src/mobile/mobileconfig.h"
#include "src/obs/observability.h"
#include "src/util/stats.h"
#include "src/util/status.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "src/zeus/zeus.h"

using namespace configerator;

namespace {

// A commit stream: commit i writes key i % interest_list at
// first + i * spacing, and every fleet server tracks all interest_list keys.
struct Stream {
  int interest_list;
  int commits;
  SimTime first;
  SimTime spacing;
  SimTime tail;  // The run goes on this long past the last commit slot.

  SimTime end() const { return first + commits * spacing + tail; }
};

// The scale rows: a 4-key push stream of 20 commits, and a pull stream that
// updates each key once a minute, polled every 60 s.
constexpr Stream kPushStream = {4, 20, 20 * kSimSecond, 10 * kSimSecond,
                                kSimMinute};
constexpr Stream kPullStream = {4, 4, kSimMinute, kSimMinute,
                                90 * kSimSecond};
constexpr SimTime kPullInterval = 60 * kSimSecond;

// Wall-clock repetitions of each scale row's push leg.
constexpr int kPushRepetitions = 5;

struct ScaleShape {
  const char* label;
  int regions;
  int clusters_per_region;
  int servers_per_cluster;
};

// Fleet servers are every host in layers [2, spc-1): layer 0 holds ensemble
// members, layer 1 the writer and the pull service, the top layer one
// observer per cluster.
constexpr ScaleShape kScales[] = {
    {"1k", 2, 4, 125},     // 8 clusters x 122 = 976 fleet servers.
    {"10k", 2, 8, 625},    // 16 clusters x 622 = 9952.
    {"100k", 2, 16, 3125}, // 32 clusters x 3122 = 99904.
};

// §3.4: 8 clusters x 25 = 200 fleet servers, each tracking 100 configs,
// through an hour of updates (one a minute) plus a tail long enough for the
// slowest poll interval to see the last one.
constexpr ScaleShape kAblationShape = {"200", 2, 4, 28};
constexpr Stream kAblationStream = {100, 60, kSimMinute, kSimMinute,
                                    10 * kSimMinute};
constexpr SimTime kAblationPollIntervals[] = {10 * kSimSecond, 60 * kSimSecond,
                                              600 * kSimSecond};

struct PushResult {
  size_t servers = 0;
  size_t observers = 0;
  SampleSet latency;  // Seconds, one sample per (commit, server) delivery.
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t sim_events = 0;
  double wall_s = 0;
  double events_per_sec = 0;
  size_t traces_recorded = 0;
  uint64_t traces_sampled_out = 0;
  size_t materialized_links = 0;
  // Traffic from the first commit to the end of the run.
  uint64_t window_messages = 0;
  uint64_t window_bytes = 0;
};

struct PullResult {
  uint64_t messages = 0;
  uint64_t bytes = 0;
  uint64_t polls = 0;
  uint64_t empty_polls = 0;
  SampleSet staleness;  // Seconds, publish -> client sees it.
  // Traffic from the first commit to the end of the run.
  uint64_t window_messages = 0;
  uint64_t window_bytes = 0;
};

// Network totals when the first commit fires; the window counts start there.
struct WindowStart {
  uint64_t messages = 0;
  uint64_t bytes = 0;
};

std::vector<ServerId> FleetHosts(const ScaleShape& shape) {
  std::vector<ServerId> hosts;
  for (int r = 0; r < shape.regions; ++r) {
    for (int c = 0; c < shape.clusters_per_region; ++c) {
      for (int s = 2; s + 1 < shape.servers_per_cluster; ++s) {
        hosts.push_back(ServerId{r, c, s});
      }
    }
  }
  return hosts;
}

std::string KeyName(int k) { return StrFormat("conf/scale%02d.json", k); }

PushResult RunPush(const ScaleShape& shape, const Stream& stream) {
  Simulator sim;
  Network net(&sim, Topology(shape.regions, shape.clusters_per_region,
                             shape.servers_per_cluster),
              /*seed=*/14);
  std::vector<ServerId> members = {ServerId{0, 0, 0}, ServerId{1, 0, 0},
                                   ServerId{0, 1, 0}, ServerId{1, 1, 0},
                                   ServerId{0, 2, 0}};
  std::vector<ServerId> observers;
  for (int r = 0; r < shape.regions; ++r) {
    for (int c = 0; c < shape.clusters_per_region; ++c) {
      observers.push_back(ServerId{r, c, shape.servers_per_cluster - 1});
    }
  }
  ZeusEnsemble::Options zeus_options;
  zeus_options.processing_delay = 100 * kSimMillisecond;
  ZeusEnsemble zeus(&net, members, observers, zeus_options);

  // At fleet scale the tracer samples: 1 of every 8 commits records its span
  // tree; the rest no-op end to end. Memory stays bounded by the sample
  // rate, not the fan-out.
  Observability obs;
  obs.tracer.SetSampleEvery(8);
  zeus.AttachObservability(&obs);

  PushResult result;
  ProxyFleet fleet(&net, &zeus, FleetHosts(shape), /*seed=*/7);
  result.servers = fleet.size();
  result.observers = observers.size();

  std::map<std::string, SimTime> published_at;
  fleet.set_update_hook(
      [&](size_t, size_t, const ZeusTxn& txn) {
        auto it = published_at.find(txn.value);
        if (it != published_at.end()) {
          result.latency.Add(SimToSeconds(sim.now() - it->second));
        }
      });
  for (int k = 0; k < stream.interest_list; ++k) {
    fleet.SubscribeAll(KeyName(k), /*spread=*/10 * kSimSecond);
  }

  ServerId writer{0, 0, 1};
  WindowStart window;
  for (int i = 0; i < stream.commits; ++i) {
    SimTime when = stream.first + i * stream.spacing;
    sim.ScheduleAt(when, [&, i, when] {
      if (i == 0) {
        window = {net.messages_sent(), net.bytes_sent()};
      }
      std::string payload = StrFormat("scale-payload-%03d", i);
      published_at[payload] = when;
      TraceContext root = obs.tracer.StartTrace(
          StrFormat("scale-commit %d", i), "0.0.1", when);
      zeus.Write(writer, KeyName(i % stream.interest_list), payload,
                 [&, root](Result<int64_t> zxid) {
                   if (zxid.ok() && root.valid()) {
                     obs.tracer.BindZxid(*zxid, root);
                     obs.tracer.EndSpan(root, sim.now());
                   }
                 });
    });
  }

  auto wall_start = std::chrono::steady_clock::now();
  sim.RunUntil(stream.end());
  auto wall_end = std::chrono::steady_clock::now();

  result.messages = net.messages_sent();
  result.bytes = net.bytes_sent();
  result.window_messages = result.messages - window.messages;
  result.window_bytes = result.bytes - window.bytes;
  result.sim_events = sim.processed_events();
  result.wall_s =
      std::chrono::duration<double>(wall_end - wall_start).count();
  result.events_per_sec =
      result.wall_s > 0 ? static_cast<double>(result.sim_events) / result.wall_s
                        : 0;
  result.traces_recorded = obs.tracer.trace_count();
  result.traces_sampled_out = obs.tracer.sampled_out();
  result.materialized_links = net.materialized_links();
  return result;
}

PullResult RunPull(const ScaleShape& shape, const Stream& stream,
                   SimTime poll_interval) {
  Simulator sim;
  Network net(&sim, Topology(shape.regions, shape.clusters_per_region,
                             shape.servers_per_cluster),
              /*seed=*/15);
  PullService service(&net, ServerId{1, 0, 1});
  for (int k = 0; k < stream.interest_list; ++k) {
    service.Publish(KeyName(k), "initial");
  }

  PullResult result;
  std::map<std::string, SimTime> published_at;
  std::vector<ServerId> hosts = FleetHosts(shape);
  std::vector<std::unique_ptr<PullClient>> clients;
  clients.reserve(hosts.size());
  for (size_t i = 0; i < hosts.size(); ++i) {
    clients.push_back(std::make_unique<PullClient>(&net, &service, hosts[i],
                                                   poll_interval));
    for (int k = 0; k < stream.interest_list; ++k) {
      clients.back()->Track(
          KeyName(k),
          [&](const std::string&, const std::string& value, int64_t) {
            auto it = published_at.find(value);
            if (it != published_at.end()) {
              result.staleness.Add(SimToSeconds(sim.now() - it->second));
            }
          });
    }
    clients.back()->Start(/*initial_stagger=*/static_cast<SimTime>(
        (i * static_cast<size_t>(poll_interval)) / hosts.size()));
  }

  WindowStart window;
  for (int i = 0; i < stream.commits; ++i) {
    SimTime when = stream.first + i * stream.spacing;
    sim.ScheduleAt(when, [&, i, when] {
      if (i == 0) {
        window = {net.messages_sent(), net.bytes_sent()};
      }
      std::string payload = StrFormat("pull-payload-%02d", i);
      published_at[payload] = when;
      service.Publish(KeyName(i % stream.interest_list), payload);
    });
  }
  sim.RunUntil(stream.end());

  result.messages = net.messages_sent();
  result.bytes = net.bytes_sent();
  result.window_messages = result.messages - window.messages;
  result.window_bytes = result.bytes - window.bytes;
  for (const auto& client : clients) {
    result.polls += client->polls_sent();
    result.empty_polls += client->empty_polls();
  }
  return result;
}

// The push leg at one scale, run kPushRepetitions times: the first run's
// result plus the events/sec and wall time of every run.
struct TimedPush {
  PushResult push;
  SampleSet events_per_sec;
  SampleSet wall_s;
};

// Fails when a repetition's sim event, message or byte count differs from
// the first run's: the simulation is deterministic, so only wall time may.
Result<TimedPush> TimePush(const ScaleShape& shape) {
  TimedPush timed;
  for (int rep = 0; rep < kPushRepetitions; ++rep) {
    PushResult push = RunPush(shape, kPushStream);
    timed.events_per_sec.Add(push.events_per_sec);
    timed.wall_s.Add(push.wall_s);
    if (rep == 0) {
      timed.push = std::move(push);
      continue;
    }
    const PushResult& first = timed.push;
    if (push.sim_events != first.sim_events ||
        push.messages != first.messages || push.bytes != first.bytes) {
      return InternalError(StrFormat(
          "%s push leg repetition %d: events/messages/bytes %llu/%llu/%llu "
          "vs %llu/%llu/%llu in the first run",
          shape.label, rep, static_cast<unsigned long long>(push.sim_events),
          static_cast<unsigned long long>(push.messages),
          static_cast<unsigned long long>(push.bytes),
          static_cast<unsigned long long>(first.sim_events),
          static_cast<unsigned long long>(first.messages),
          static_cast<unsigned long long>(first.bytes)));
    }
  }
  return timed;
}

double Iqr(const SampleSet& samples) {
  return samples.Percentile(75) - samples.Percentile(25);
}

Json HistJson(const SampleSet& samples) {
  Json json = Json::MakeObject();
  json.Set("count", Json(static_cast<int64_t>(samples.size())));
  if (!samples.empty()) {
    json.Set("mean", Json(samples.Mean()));
    json.Set("p50", Json(samples.Percentile(50)));
    json.Set("p90", Json(samples.Percentile(90)));
    json.Set("p99", Json(samples.Percentile(99)));
    json.Set("p999", Json(samples.Percentile(99.9)));
    json.Set("max", Json(samples.Percentile(100)));
  }
  return json;
}

Json AblationRow(const std::string& model, SimTime poll_interval,
                 uint64_t messages, uint64_t bytes,
                 const SampleSet& staleness) {
  Json row = Json::MakeObject();
  row.Set("model", Json(model));
  row.Set("poll_interval_s", Json(SimToSeconds(poll_interval)));
  row.Set("messages", Json(static_cast<int64_t>(messages)));
  row.Set("bytes", Json(static_cast<int64_t>(bytes)));
  row.Set("deliveries", Json(static_cast<int64_t>(staleness.size())));
  row.Set("mean_staleness_s", Json(staleness.Mean()));
  return row;
}

// §3.4: push against pull at three poll intervals on one fleet and one
// update stream. Prints the table; returns its JSON section.
Json RunPushVsPull() {
  const Stream& stream = kAblationStream;
  PushResult push = RunPush(kAblationShape, stream);
  std::printf("\n§3.4 push vs pull: %zu servers x %d configs, %d updates "
              "one a minute; traffic from the first update to %.0f min "
              "after the last\n",
              push.servers, stream.interest_list, stream.commits,
              SimToSeconds(stream.tail + stream.spacing) / 60);
  TextTable table({"model", "messages", "bytes", "mean staleness (s)"});
  table.AddRow({"push (Zeus tree)", std::to_string(push.window_messages),
                HumanBytes(static_cast<double>(push.window_bytes)),
                StrFormat("%.2f", push.latency.Mean())});
  Json rows = Json::MakeArray();
  rows.Append(AblationRow("push", 0, push.window_messages, push.window_bytes,
                          push.latency));
  PullResult pull60;
  for (SimTime interval : kAblationPollIntervals) {
    PullResult pull = RunPull(kAblationShape, stream, interval);
    table.AddRow({StrFormat("pull, %llds poll",
                            static_cast<long long>(interval / kSimSecond)),
                  std::to_string(pull.window_messages),
                  HumanBytes(static_cast<double>(pull.window_bytes)),
                  StrFormat("%.2f", pull.staleness.Mean())});
    rows.Append(AblationRow("pull", interval, pull.window_messages,
                            pull.window_bytes, pull.staleness));
    if (interval == 60 * kSimSecond) {
      pull60 = std::move(pull);
    }
  }
  table.Print();
  std::printf("pull@60s vs push: %.0fx the messages, %.0fx the bytes, "
              "%.0fx the staleness\n",
              static_cast<double>(pull60.window_messages) /
                  static_cast<double>(push.window_messages),
              static_cast<double>(pull60.window_bytes) /
                  static_cast<double>(push.window_bytes),
              pull60.staleness.Mean() / push.latency.Mean());

  Json section = Json::MakeObject();
  section.Set("servers", Json(static_cast<int64_t>(push.servers)));
  section.Set("configs_per_server",
              Json(static_cast<int64_t>(stream.interest_list)));
  section.Set("updates", Json(static_cast<int64_t>(stream.commits)));
  section.Set("window_s", Json(SimToSeconds(stream.end() - stream.first)));
  section.Set("rows", std::move(rows));
  return section;
}

std::vector<CohortSpec> MillionDeviceFleet() {
  return {
      {"wifi-15m", 250'000, 15 * kSimMinute, 0.95, 0.9},
      {"hourly", 600'000, kSimHour, 0.8, 0.6},
      {"long-tail", 150'000, 4 * kSimHour, 0.5, 0.2},
  };
}

// Bandwidth ground truth for the cohort row: a sampled fleet running the real
// MobileConfig sync protocol yields bytes per poll; the closed-form poll rate
// scales it to the full million devices.
double MeasureBytesPerSync(const CohortModel& model) {
  TranslationLayer translation;
  translation.Bind("FLEET_CONFIG", "FEATURE_X",
                   FieldBinding::Constant(Json(true)));
  translation.Bind("FLEET_CONFIG", "POLL_BUDGET",
                   FieldBinding::Constant(Json(int64_t{7})));
  GatekeeperRuntime gatekeeper;
  MobileConfigServer server(&translation, &gatekeeper, nullptr);
  MobileSchema schema;
  schema.config_name = "FLEET_CONFIG";
  schema.fields = {{"FEATURE_X", MobileFieldType::kBool},
                   {"POLL_BUDGET", MobileFieldType::kInt}};
  server.RegisterSchema(schema);

  Simulator sim;
  SampledMobileFleet fleet(&sim, &server, schema, model, /*sample_size=*/2000,
                           /*seed=*/21);
  fleet.Start();
  sim.RunUntil(8 * kSimHour);
  return fleet.sync_count() == 0
             ? 0
             : static_cast<double>(fleet.total_sync_bytes()) /
                   static_cast<double>(fleet.sync_count());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

  if (smoke) {
    PrintBenchHeader("Figure 14 scaling smoke (10k servers)",
                     "Push leg only; no JSON output");
    PushResult push = RunPush(kScales[1], kPushStream);
    std::printf("servers=%zu deliveries=%zu p50=%.2fs p999=%.2fs "
                "events=%llu (%.0f events/s)\n",
                push.servers, push.latency.size(), push.latency.Percentile(50),
                push.latency.Percentile(99.9),
                static_cast<unsigned long long>(push.sim_events),
                push.events_per_sec);
    size_t expected = push.servers * static_cast<size_t>(kPushStream.commits);
    if (push.latency.size() != expected) {
      std::printf("FAIL: expected %zu deliveries\n", expected);
      return 1;
    }
    std::printf("OK\n");
    return 0;
  }

  PrintBenchHeader("Figure 14 at scale — 1k/10k/100k-server propagation",
                   "Calendar-queue scheduler + SoA fleet; push vs pull at "
                   "each size; §3.4 push-vs-pull table; 1M-device cohort "
                   "model");

  Json scales_json = Json::MakeArray();
  TextTable table({"scale", "servers", "p50 (s)", "p90 (s)", "p99 (s)",
                   "p999 (s)", "events/s (median)", "IQR", "push msgs",
                   "pull msgs"});
  double events_per_sec_10k = 0;
  double events_per_sec_100k = 0;

  for (const ScaleShape& shape : kScales) {
    Result<TimedPush> timed = TimePush(shape);
    if (!timed.ok()) {
      std::printf("FAIL: %s\n", timed.status().message().c_str());
      return 1;
    }
    const PushResult& push = timed->push;
    double events_per_sec = timed->events_per_sec.Percentile(50);
    PullResult pull = RunPull(shape, kPullStream, kPullInterval);
    if (std::strcmp(shape.label, "10k") == 0) {
      events_per_sec_10k = events_per_sec;
    } else if (std::strcmp(shape.label, "100k") == 0) {
      events_per_sec_100k = events_per_sec;
    }

    table.AddRow({shape.label, StrFormat("%zu", push.servers),
                  StrFormat("%.2f", push.latency.Percentile(50)),
                  StrFormat("%.2f", push.latency.Percentile(90)),
                  StrFormat("%.2f", push.latency.Percentile(99)),
                  StrFormat("%.2f", push.latency.Percentile(99.9)),
                  StrFormat("%.2e", events_per_sec),
                  StrFormat("%.1e", Iqr(timed->events_per_sec)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(push.messages)),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(pull.messages))});

    Json entry = Json::MakeObject();
    entry.Set("scale", Json(std::string(shape.label)));
    entry.Set("servers", Json(static_cast<int64_t>(push.servers)));
    entry.Set("observers", Json(static_cast<int64_t>(push.observers)));
    entry.Set("keys", Json(static_cast<int64_t>(kPushStream.interest_list)));
    entry.Set("commits", Json(static_cast<int64_t>(kPushStream.commits)));
    Json push_json = Json::MakeObject();
    push_json.Set("propagation_s", HistJson(push.latency));
    push_json.Set("messages", Json(static_cast<int64_t>(push.messages)));
    push_json.Set("bytes", Json(static_cast<int64_t>(push.bytes)));
    push_json.Set("sim_events", Json(static_cast<int64_t>(push.sim_events)));
    push_json.Set("repetitions", Json(int64_t{kPushRepetitions}));
    push_json.Set("wall_s", Json(timed->wall_s.Percentile(50)));
    push_json.Set("events_per_sec", Json(events_per_sec));
    push_json.Set("events_per_sec_iqr", Json(Iqr(timed->events_per_sec)));
    push_json.Set("traces_recorded",
                  Json(static_cast<int64_t>(push.traces_recorded)));
    push_json.Set("traces_sampled_out",
                  Json(static_cast<int64_t>(push.traces_sampled_out)));
    push_json.Set("materialized_links",
                  Json(static_cast<int64_t>(push.materialized_links)));
    entry.Set("push", std::move(push_json));
    Json pull_json = Json::MakeObject();
    pull_json.Set("messages", Json(static_cast<int64_t>(pull.messages)));
    pull_json.Set("bytes", Json(static_cast<int64_t>(pull.bytes)));
    pull_json.Set("polls", Json(static_cast<int64_t>(pull.polls)));
    pull_json.Set("empty_polls",
                  Json(static_cast<int64_t>(pull.empty_polls)));
    pull_json.Set("staleness_s", HistJson(pull.staleness));
    entry.Set("pull", std::move(pull_json));
    scales_json.Append(std::move(entry));
  }
  table.Print();

  std::printf("\nthroughput linearity (medians of %d runs): 10k %.2e "
              "events/s, 100k %.2e events/s (%.2fx per-event cost at 10x the "
              "fleet)\n",
              kPushRepetitions,
              events_per_sec_10k, events_per_sec_100k,
              events_per_sec_10k > 0 ? events_per_sec_10k / events_per_sec_100k
                                     : 0);

  Json push_vs_pull = RunPushVsPull();

  // --- Mobile fleet: 1M devices as cohorts ---------------------------------
  CohortModel model(MillionDeviceFleet());
  double bytes_per_sync = MeasureBytesPerSync(model);
  double polls_per_sec = model.PollsPerSecond();
  std::printf("\nmobile fleet (%llu devices in %zu cohorts): %.0f polls/s, "
              "%.0f B/sync (~%.1f KB/s fleet-wide), mean update delay %.0fs, "
              "1h freshness %.3f pull / %.3f with push\n",
              static_cast<unsigned long long>(model.total_devices()),
              model.cohorts().size(), polls_per_sec, bytes_per_sync,
              polls_per_sec * bytes_per_sync / 1024.0,
              SimToSeconds(model.MeanUpdateDelay()),
              model.UpdatedFraction(kSimHour),
              model.UpdatedFractionWithPush(kSimHour));

  Json out = Json::MakeObject();
  out.Set("bench", Json(std::string("fig14_scale")));
  out.Set("scales", std::move(scales_json));
  Json linearity = Json::MakeObject();
  linearity.Set("method",
                Json(StrFormat("medians of %d push-leg repetitions per scale; "
                               "sim counts identical across repetitions",
                               kPushRepetitions)));
  linearity.Set("events_per_sec_10k", Json(events_per_sec_10k));
  linearity.Set("events_per_sec_100k", Json(events_per_sec_100k));
  linearity.Set("slowdown_at_10x_fleet",
                Json(events_per_sec_100k > 0
                         ? events_per_sec_10k / events_per_sec_100k
                         : 0));
  out.Set("throughput_linearity", std::move(linearity));
  out.Set("push_vs_pull", std::move(push_vs_pull));
  Json mobile = Json::MakeObject();
  mobile.Set("devices", Json(static_cast<int64_t>(model.total_devices())));
  Json cohorts = Json::MakeArray();
  for (const CohortSpec& spec : model.cohorts()) {
    Json c = Json::MakeObject();
    c.Set("name", Json(spec.name));
    c.Set("devices", Json(static_cast<int64_t>(spec.devices)));
    c.Set("poll_interval_s", Json(SimToSeconds(spec.poll_interval)));
    c.Set("online_prob", Json(spec.online_prob));
    c.Set("push_reach", Json(spec.push_reach));
    cohorts.Append(std::move(c));
  }
  mobile.Set("cohorts", std::move(cohorts));
  mobile.Set("polls_per_sec", Json(polls_per_sec));
  mobile.Set("bytes_per_sync", Json(bytes_per_sync));
  mobile.Set("fleet_bandwidth_bytes_per_sec",
             Json(polls_per_sec * bytes_per_sync));
  mobile.Set("mean_update_delay_s", Json(SimToSeconds(model.MeanUpdateDelay())));
  mobile.Set("update_delay_p50_s", Json(SimToSeconds(model.Quantile(0.5))));
  mobile.Set("update_delay_p99_s", Json(SimToSeconds(model.Quantile(0.99))));
  mobile.Set("updated_frac_1h_pull", Json(model.UpdatedFraction(kSimHour)));
  mobile.Set("updated_frac_1h_push",
             Json(model.UpdatedFractionWithPush(kSimHour)));
  out.Set("mobile_cohorts", std::move(mobile));

  std::ofstream file("BENCH_fig14_scale.json");
  file << out.DumpPretty() << "\n";
  std::printf("wrote BENCH_fig14_scale.json\n");
  return 0;
}
