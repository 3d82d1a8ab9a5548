// CSL compile-eval throughput: the bytecode VM with its content-hash unit
// cache against the tree-walking interpreter, over the shared synthetic
// 1k-file repository (980 CSL files, 800 entry points).
//
// Sandcastle's validation cost is "compile every entry the commit reaches",
// and across commits almost every file is unchanged — so the number that
// matters is warm-cache throughput: how fast can an entry be re-evaluated
// when its import closure's compiled units are already cached? Three
// configurations, each compiling all 800 entries:
//
//   interp    — tree-walking reference interpreter (tests/reference/),
//               through the same compile pipeline; re-parses and re-walks
//               every file per entry, no cross-entry reuse.
//   vm-cold   — bytecode VM, a fresh compiler (and so a fresh unit cache)
//               per entry: closure-digest walk, then parse + codegen +
//               execute every time, the no-cache worst case.
//   vm-warm   — bytecode VM, one shared unit cache across entries and
//               rounds: steady-state Sandcastle. Every unit hash-hits, and
//               each entry's whole validated output replays from the
//               closure-digest memo instead of re-evaluating.
//
// Emits BENCH_csl_vm.json; the acceptance bar is warm VM >= 10x interp.

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

#include "bench/synthetic_repo.h"
#include "src/json/json.h"
#include "src/lang/compiler.h"
#include "src/lang/unit_cache.h"
#include "src/obs/metrics.h"
#include "src/util/strings.h"
#include "src/util/table.h"
#include "tests/reference/interp.h"

using namespace configerator;

namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Compiles every entry once with `compile`; returns elapsed seconds. Aborts
// the process on any compile error — the synthetic repo is known-good, so an
// error here means the engine under test is broken, not the corpus.
template <typename CompileFn>
double CompileAll(CompileFn&& compile, size_t* configs_out) {
  auto start = std::chrono::steady_clock::now();
  for (int e = 0; e < SyntheticRepo::kEntries; ++e) {
    auto output = compile(SyntheticRepo::EntryPath(e));
    if (!output.ok()) {
      std::fprintf(stderr, "FATAL: %s failed: %s\n",
                   SyntheticRepo::EntryPath(e).c_str(),
                   output.status().ToString().c_str());
      std::abort();
    }
    *configs_out += output->configs.size();
  }
  return Seconds(start);
}

}  // namespace

int main() {
  PrintBenchHeader(
      "CSL bytecode VM — compile-eval throughput and cache ablation",
      "entries/sec compiling all 800 synthetic entries: interpreter vs VM "
      "with cold and warm content-hash unit caches");

  SyntheticRepo repo = BuildSyntheticRepo();
  FileReader reader = repo.sources.AsReader();
  size_t configs = 0;

  // Interpreter baseline.
  double interp_s = CompileAll(
      [&reader](const std::string& entry) {
        return CompileWithReferenceInterpreter(reader, entry);
      },
      &configs);

  // VM, cold cache: a fresh compiler (and therefore a fresh owned unit
  // cache) per entry, so every file is parsed, compiled, and executed every
  // time — the no-cache worst case.
  size_t cold_configs = 0;
  double vm_cold_s = CompileAll(
      [&reader](const std::string& entry) {
        return ConfigCompiler(reader).Compile(entry);
      },
      &cold_configs);

  // VM, warm cache: one shared cache. The first sweep populates it (entries
  // themselves miss once); the measured sweep is pure steady state.
  CompiledUnitCache cache;
  MetricsRegistry metrics;
  CompilerOptions warm_options;
  warm_options.unit_cache = &cache;
  warm_options.metrics = &metrics;
  ConfigCompiler warm_compiler(reader, warm_options);
  auto warm_compile = [&warm_compiler](const std::string& entry) {
    return warm_compiler.Compile(entry);
  };
  size_t warmup_configs = 0;
  CompileAll(warm_compile, &warmup_configs);
  uint64_t hits_before = metrics.GetCounter("csl.unit_cache.hits")->value();
  uint64_t out_hits_before =
      metrics.GetCounter("csl.output_cache.hits")->value();
  size_t warm_configs = 0;
  double vm_warm_s = CompileAll(warm_compile, &warm_configs);
  uint64_t warm_hits =
      metrics.GetCounter("csl.unit_cache.hits")->value() - hits_before;
  uint64_t warm_output_hits =
      metrics.GetCounter("csl.output_cache.hits")->value() - out_hits_before;
  uint64_t total_misses = metrics.GetCounter("csl.unit_cache.misses")->value();

  if (configs != cold_configs || configs != warm_configs) {
    std::fprintf(stderr, "FATAL: engines exported different config counts\n");
    std::abort();
  }

  double n = SyntheticRepo::kEntries;
  double interp_rate = n / interp_s;
  double cold_rate = n / vm_cold_s;
  double warm_rate = n / vm_warm_s;
  double speedup_warm = interp_s / vm_warm_s;
  double speedup_cold = interp_s / vm_cold_s;

  TextTable table({"config", "time (s)", "entries/sec", "speedup vs interp"});
  table.AddRow({"interp", StrFormat("%.3f", interp_s),
                StrFormat("%.1f", interp_rate), "1.0x"});
  table.AddRow({"vm-cold", StrFormat("%.3f", vm_cold_s),
                StrFormat("%.1f", cold_rate),
                StrFormat("%.1fx", speedup_cold)});
  table.AddRow({"vm-warm", StrFormat("%.3f", vm_warm_s),
                StrFormat("%.1f", warm_rate),
                StrFormat("%.1fx", speedup_warm)});
  table.Print();
  std::printf(
      "warm sweep unit-cache hits: %llu, output-memo hits: %llu, "
      "lifetime misses: %llu\n",
      static_cast<unsigned long long>(warm_hits),
      static_cast<unsigned long long>(warm_output_hits),
      static_cast<unsigned long long>(total_misses));

  Json out = Json::MakeObject();
  out.Set("bench", Json("csl_vm"));
  out.Set("entries", Json(static_cast<int64_t>(SyntheticRepo::kEntries)));
  out.Set("csl_files", Json(static_cast<int64_t>(repo.paths.size())));
  out.Set("configs_per_sweep", Json(static_cast<int64_t>(configs)));
  out.Set("interp_seconds", Json(interp_s));
  out.Set("interp_entries_per_sec", Json(interp_rate));
  out.Set("vm_cold_seconds", Json(vm_cold_s));
  out.Set("vm_cold_entries_per_sec", Json(cold_rate));
  out.Set("vm_warm_seconds", Json(vm_warm_s));
  out.Set("vm_warm_entries_per_sec", Json(warm_rate));
  out.Set("speedup_vm_cold_vs_interp", Json(speedup_cold));
  out.Set("speedup_vm_warm_vs_interp", Json(speedup_warm));
  out.Set("warm_sweep_cache_hits", Json(static_cast<int64_t>(warm_hits)));
  out.Set("warm_sweep_output_hits",
          Json(static_cast<int64_t>(warm_output_hits)));
  out.Set("lifetime_cache_misses", Json(static_cast<int64_t>(total_misses)));
  std::ofstream file("BENCH_csl_vm.json");
  file << out.DumpPretty() << "\n";
  std::printf("wrote BENCH_csl_vm.json\n");
  return 0;
}
