// perfbench: the repository benchmark. One process runs one workload:
//
//   perfbench --workload commit_storm|fleet_fanout|serve_mix --seed N
//             --seconds S --trace 0|1
//
// It prints a human-readable report, then, as its last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics the
// workload measured with --trace 0, its per-layer metrics with --trace 1.
// BENCHMARK.json is the one list of metric names; run.py checks this line
// against it.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2;
}

void Report::Fail(const std::string& why) {
  ++failed_;
  if (failures_.size() < 20) {
    failures_.push_back(why);
  } else if (failures_.size() == 20) {
    failures_.push_back("... further failures not listed");
  }
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "commit_storm|fleet_fanout|serve_mix --seed N --seconds S "
               "--trace 0|1\n",
               why);
  return 2;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

// Quartiles as Python's statistics.quantiles(values, n=4) gives them
// (exclusive method), so this output and the sweep script agree.
std::vector<double> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  if (n < 2) {
    double v = n == 1 ? values[0] : 0;
    return {v, v, v};
  }
  std::vector<double> out;
  for (int i = 1; i <= 3; ++i) {
    double pos = static_cast<double>(i) * static_cast<double>(n + 1) / 4.0;
    int j = std::clamp(static_cast<int>(std::floor(pos)), 1, static_cast<int>(n) - 1);
    double delta = pos - j;  // Past 1 after the clamp, as in Python.
    out.push_back(values[j - 1] + (values[j] - values[j - 1]) * delta);
  }
  return out;
}

void PrintMetrics(const char* title, const std::map<std::string, Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& [name, metric] : metrics) {
    std::printf("  %-34s %16.6g %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

}  // namespace

int Main(int argc, char** argv) {
  Options options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      options.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("every flag is required and must be well formed");
  }

  Report report;
  if (options.workload == "commit_storm") {
    RunCommitStorm(options, &report);
  } else if (options.workload == "fleet_fanout") {
    RunFleetFanout(options, &report);
  } else if (options.workload == "serve_mix") {
    RunServeMix(options, &report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  report.EndToEnd("peak_rss_mb", PeakRssMb(), "MB");
  if (report.attempted() == 0) {
    report.Fail("no operation was attempted");
  }

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "build_type=%s hw_threads=%u\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency());
  for (const auto& [name, values] : report.rounds()) {
    std::vector<double> q = Quartiles(values);
    std::printf("rounds %-28s n=%zu median=%.6g q1=%.6g q3=%.6g values=[",
                name.c_str(), values.size(), q[1], q[0], q[2]);
    for (size_t i = 0; i < values.size(); ++i) {
      std::printf("%s%.6g", i == 0 ? "" : ", ", values[i]);
    }
    std::printf("]\n");
  }
  PrintMetrics("headline metrics:", report.headline());
  PrintMetrics(options.trace ? "end-to-end (traced run, not the result):"
                             : "end-to-end:",
               report.end_to_end());
  if (options.trace) {
    PrintMetrics("per-layer:", report.layer());
  }
  double failed_frac = static_cast<double>(report.failed()) /
                       static_cast<double>(std::max<uint64_t>(report.attempted(), 1));
  std::printf("output check: %s (attempted=%llu failed=%llu failed_frac=%.6g)\n",
              report.correct() ? "PASS" : "FAIL",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), failed_frac);
  for (const std::string& failure : report.failures()) {
    std::printf("  failure: %s\n", failure.c_str());
  }

  // The result line carries every metric of the run's kind that the workload
  // measured; run.py selects and checks the ones BENCHMARK.json declares.
  const auto& measured = options.trace ? report.layer() : report.end_to_end();
  bool correct = report.correct();
  std::string metrics;
  for (const auto& [name, metric] : measured) {
    double value = metric.value;
    if (!std::isfinite(value)) {
      std::printf("metric %s is not finite\n", name.c_str());
      correct = false;
      value = 0;
    }
    char buffer[256];
    std::snprintf(buffer, sizeof(buffer), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value, metric.unit.c_str());
    metrics += buffer;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
