// Shared plumbing for the perfbench workloads: options, wall-clock helpers,
// and the Report each workload fills in. Every number the benchmark prints
// is timed from outside the program — around calls into each module's
// public functions — or read from a public counter afterwards; nothing here
// reaches into src/ internals.

#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/stats.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double SecondsSince(Clock::time_point from) {
  return Seconds(from, Clock::now());
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;  // Sizes the timed work, in nominal seconds.
  bool trace = false;   // Per-layer (traced) run instead of end-to-end.
};

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// A metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

class Report {
 public:
  // One operation attempted (a commit, a request, a config update).
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  // An operation that failed, or whose output failed its check. Marks the
  // run incorrect; the first few reasons are printed.
  void Fail(const std::string& why);
  // Shorthand for `if (!ok) Fail(what)`.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      Fail(what);
    }
  }

  // End-to-end metrics (untraced runs) — the names BENCHMARK.json bounds.
  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end_[name] = Metric{value, unit};
  }
  // Per-layer metrics (traced runs).
  void Layer(const std::string& name, double value, const std::string& unit) {
    layer_[name] = Metric{value, unit};
  }
  // Figures that are not result metrics (gk_update_p99_us, commit counts,
  // the commit mix). Printed in the human-readable report only.
  void Headline(const std::string& name, double value, const std::string& unit) {
    headline_[name] = Metric{value, unit};
  }
  // Every round's value of a repeated measurement, printed with its median
  // and quartiles so run-to-run noise can be read off one run's output.
  void Rounds(const std::string& name, const std::vector<double>& values) {
    rounds_[name] = values;
  }

  bool correct() const { return failures_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, Metric>& end_to_end() const { return end_to_end_; }
  const std::map<std::string, Metric>& layer() const { return layer_; }
  const std::map<std::string, Metric>& headline() const { return headline_; }
  const std::map<std::string, std::vector<double>>& rounds() const {
    return rounds_;
  }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::map<std::string, Metric> end_to_end_;
  std::map<std::string, Metric> layer_;
  std::map<std::string, Metric> headline_;
  std::map<std::string, std::vector<double>> rounds_;
};

// The workloads. Each builds its world from `options.seed`, times the world
// set-up several times, runs a fixed amount of timed work sized by
// `options.seconds`, checks the program's outputs, and fills `report`.
void RunCommitStorm(const Options& options, Report* report);
void RunFleetFanout(const Options& options, Report* report);
void RunServeMix(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
