// Opcode-level battery for the CSL bytecode pipeline: codegen + VM
// semantics, constant-pool interning, the content-hash unit cache (including
// transitive-import invalidation via ClosureDigest), disassembler stability,
// and the interpreter/VM error-position parity regression.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/bytecode.h"
#include "src/lang/codegen.h"
#include "src/lang/compiler.h"
#include "src/lang/unit_cache.h"
#include "src/lang/vm.h"
#include "src/obs/metrics.h"
#include "tests/reference/interp.h"

namespace configerator {
namespace {

Result<std::shared_ptr<CompiledUnit>> CompileSrc(
    const std::string& src, const std::string& path = "test.cconf") {
  ASSIGN_OR_RETURN(std::shared_ptr<Module> module, ParseCsl(src, path));
  return CompileToBytecode(*module);
}

// Runs `src` on a fresh VM (no hooks) and returns the global named `name`.
Result<Value> RunAndGet(const std::string& src, const std::string& name) {
  ASSIGN_OR_RETURN(std::shared_ptr<CompiledUnit> unit, CompileSrc(src));
  Vm vm(nullptr, {});
  auto globals = vm.NewEnvironment(vm.MakeBaseEnvironment());
  Status status = vm.EvalUnit(*unit, globals, /*exports_enabled=*/false);
  if (!status.ok()) {
    return status;
  }
  Value* found = globals->Find(name);
  if (found == nullptr) {
    return NotFoundError("global '" + name + "' not defined");
  }
  return *found;
}

std::string RunError(const std::string& src) {
  auto unit = CompileSrc(src);
  if (!unit.ok()) {
    return std::string(unit.status().message());
  }
  Vm vm(nullptr, {});
  auto globals = vm.NewEnvironment(vm.MakeBaseEnvironment());
  Status status = vm.EvalUnit(**unit, globals, /*exports_enabled=*/false);
  return std::string(status.message());
}

// --- Opcode semantics -------------------------------------------------------

TEST(VmOpcodes, ArithmeticAndComparison) {
  const std::string src =
      "a = 7 + 3 * 2\n"
      "b = 10 / 4\n"
      "c = 10 // 4\n"
      "d = 10 % 4\n"
      "e = -5\n"
      "f = 2 < 3\n"
      "g = 2 >= 3\n"
      "h = \"ab\" + \"cd\"\n"
      "i = 1 == 1.0\n"
      "j = \"b\" in [\"a\", \"b\"]\n"
      "k = \"x\" not in {\"y\": 1}\n"
      "l = not 0\n";
  EXPECT_EQ(RunAndGet(src, "a")->as_int(), 13);
  EXPECT_DOUBLE_EQ(RunAndGet(src, "b")->as_double(), 2.5);
  EXPECT_EQ(RunAndGet(src, "c")->as_int(), 2);
  EXPECT_EQ(RunAndGet(src, "d")->as_int(), 2);
  EXPECT_EQ(RunAndGet(src, "e")->as_int(), -5);
  EXPECT_TRUE(RunAndGet(src, "f")->as_bool());
  EXPECT_FALSE(RunAndGet(src, "g")->as_bool());
  EXPECT_EQ(RunAndGet(src, "h")->as_string(), "abcd");
  EXPECT_TRUE(RunAndGet(src, "i")->as_bool());
  EXPECT_TRUE(RunAndGet(src, "j")->as_bool());
  EXPECT_TRUE(RunAndGet(src, "k")->as_bool());
  EXPECT_TRUE(RunAndGet(src, "l")->as_bool());
}

TEST(VmOpcodes, ShortCircuitReturnsDecidingOperand) {
  EXPECT_EQ(RunAndGet("x = 0 and boom\n", "x")->as_int(), 0);
  EXPECT_EQ(RunAndGet("x = \"v\" or boom\n", "x")->as_string(), "v");
  EXPECT_EQ(RunAndGet("x = 1 and [2]\n", "x")->as_list().size(), 1u);
  EXPECT_EQ(RunAndGet("x = 1 if 2 > 1 else fail()\n", "x")->as_int(), 1);
}

TEST(VmOpcodes, JumpsLoopsAndUnpack) {
  const std::string src =
      "total = 0\n"
      "for i in range(10):\n"
      "    if i == 3:\n"
      "        continue\n"
      "    if i == 7:\n"
      "        break\n"
      "    total += i\n"
      "pairs = 0\n"
      "for k, v in [[1, 2], [3, 4]]:\n"
      "    pairs = pairs + k * v\n"
      "n = 0\n"
      "while n < 5:\n"
      "    n = n + 1\n"
      "keys = \"\"\n"
      "for k in {\"b\": 1, \"a\": 2}:\n"
      "    keys = keys + k\n";
  EXPECT_EQ(RunAndGet(src, "total")->as_int(), 0 + 1 + 2 + 4 + 5 + 6);
  EXPECT_EQ(RunAndGet(src, "pairs")->as_int(), 1 * 2 + 3 * 4);
  EXPECT_EQ(RunAndGet(src, "n")->as_int(), 5);
  // Dict iteration is over sorted keys.
  EXPECT_EQ(RunAndGet(src, "keys")->as_string(), "ab");
}

TEST(VmOpcodes, ClosuresDefaultsAndBuiltinCalls) {
  const std::string src =
      "def fact(n):\n"
      "    if n <= 1:\n"
      "        return 1\n"
      "    return n * fact(n - 1)\n"
      "def greet(name, prefix=\"hello \"):\n"
      "    return prefix + name\n"
      "def make_adder(k):\n"
      "    def add(x):\n"
      "        return x + k\n"
      "    return add\n"
      "a = fact(5)\n"
      "b = greet(\"vm\")\n"
      "c = greet(\"vm\", prefix=\"hi \")\n"
      "d = make_adder(10)(32)\n"
      "e = len(sorted([3, 1, 2]))\n"
      "f = max(4, 9, 2)\n";
  EXPECT_EQ(RunAndGet(src, "a")->as_int(), 120);
  EXPECT_EQ(RunAndGet(src, "b")->as_string(), "hello vm");
  EXPECT_EQ(RunAndGet(src, "c")->as_string(), "hi vm");
  EXPECT_EQ(RunAndGet(src, "d")->as_int(), 42);
  EXPECT_EQ(RunAndGet(src, "e")->as_int(), 3);
  EXPECT_EQ(RunAndGet(src, "f")->as_int(), 9);
}

TEST(VmOpcodes, MutationAndAugmentedTargets) {
  const std::string src =
      "d = {\"k\": [1, 2]}\n"
      "d[\"k\"][1] = 5\n"
      "d[\"n\"] = 1\n"
      "d[\"n\"] += 41\n"
      "job = {\"limits\": {\"mem\": 1}}\n"
      "job.limits.mem = 2048\n"
      "sum = d[\"k\"][0] + d[\"k\"][1] + d[\"n\"] + job.limits.mem\n";
  EXPECT_EQ(RunAndGet(src, "sum")->as_int(), 1 + 5 + 42 + 2048);
}

TEST(VmOpcodes, RuntimeErrorsCarryOriginAndLine) {
  EXPECT_EQ(RunError("x = 1\ny = x + \"s\"\n"),
            "test.cconf:2: cannot add int and string");
  EXPECT_EQ(RunError("v = [1, 2]\nz = v[5]\n"),
            "test.cconf:2: list index out of range");
  EXPECT_EQ(RunError("assert 1 == 2, \"boom\"\n"), "test.cconf:1: boom");
  EXPECT_EQ(RunError("nope()\n"),
            "test.cconf:1: undefined name 'nope'");
  EXPECT_EQ(RunError("x = 3\nx(1)\n"),
            "test.cconf:2: value of type int is not callable");
}

TEST(VmOpcodes, StepAndRecursionLimits) {
  auto unit = CompileSrc("while True:\n    pass\n");
  ASSERT_TRUE(unit.ok());
  Vm vm(nullptr, {});
  vm.set_step_limit(1000);
  auto globals = vm.NewEnvironment(vm.MakeBaseEnvironment());
  Status status = vm.EvalUnit(**unit, globals, false);
  EXPECT_EQ(std::string(status.message()),
            "test.cconf:1: evaluation step limit exceeded (runaway config "
            "code?)");

  std::string recursion = RunError("def f():\n    return f()\nf()\n");
  EXPECT_TRUE(recursion.find("recursion limit exceeded") != std::string::npos)
      << recursion;
}

// --- Constant pool ----------------------------------------------------------

TEST(VmBytecode, ConstantPoolDedupIsKindStrict) {
  auto unit = CompileSrc(
      "a = 1\n"
      "b = 1\n"
      "c = 1.0\n"
      "d = True\n"
      "e = \"x\"\n"
      "f = \"x\"\n"
      "g = 1\n");
  ASSERT_TRUE(unit.ok());
  const std::vector<Value>& pool = (*unit)->top.constants;
  int ints = 0, doubles = 0, bools = 0, strings = 0;
  for (const Value& v : pool) {
    ints += v.is_int() ? 1 : 0;
    doubles += v.is_double() ? 1 : 0;
    bools += v.is_bool() ? 1 : 0;
    strings += v.is_string() ? 1 : 0;
  }
  // 1 interned once despite three uses; 1.0 and True are distinct entries
  // even though they Equals(1); "x" interned once.
  EXPECT_EQ(ints, 1);
  EXPECT_EQ(doubles, 1);
  EXPECT_EQ(bools, 1);
  EXPECT_EQ(strings, 1);
}

// --- Disassembler -----------------------------------------------------------

TEST(VmBytecode, DisassemblerIsStable) {
  auto unit = CompileSrc(
      "x = 1 + 2\n"
      "def f(a):\n"
      "    return a * x\n"
      "y = f(3)\n");
  ASSERT_TRUE(unit.ok());
  std::string listing = Disassemble(**unit);
  // Same unit, same text — and the text names every structural element.
  EXPECT_EQ(listing, Disassemble(**unit));
  for (const char* needle :
       {"Const", "Add", "StoreName", "MakeClosure", "CheckCallable", "Call",
        "Return", "Halt", "fn 0 f/1"}) {
    EXPECT_TRUE(listing.find(needle) != std::string::npos)
        << "missing " << needle << " in:\n"
        << listing;
  }
  // Every opcode the X-macro declares has a printable name.
#define X(id, operands) \
  EXPECT_FALSE(OpCodeName(OpCode::k##id).empty());
  CSL_OPCODE_LIST(X)
#undef X
}

// --- Unit cache -------------------------------------------------------------

TEST(VmUnitCache, HitsOnSameContentMissesOnChange) {
  CompiledUnitCache cache;
  auto a1 = cache.GetOrCompile("m.cinc", "A = 1\n");
  ASSERT_TRUE(a1.ok());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 0u);

  auto a2 = cache.GetOrCompile("m.cinc", "A = 1\n");
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(a1->get(), a2->get()) << "hit must reuse the same unit";

  auto b = cache.GetOrCompile("m.cinc", "A = 2\n");
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_NE(a1->get(), b->get());

  // Failed parses are cached too, and replayed identically.
  auto bad1 = cache.GetOrCompile("bad.cinc", "def :\n");
  auto bad2 = cache.GetOrCompile("bad.cinc", "def :\n");
  EXPECT_FALSE(bad1.ok());
  EXPECT_EQ(bad1.status(), bad2.status());
}

TEST(VmUnitCache, ClosureDigestSeesTransitiveImportChanges) {
  InMemorySources sources;
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A})\n");
  sources.Put("lib.cinc",
              "import_python(\"util.cinc\", \"*\")\n"
              "A = BASE + 1\n");
  sources.Put("util.cinc", "BASE = 41\n");

  CompiledUnitCache cache;
  auto d1 = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d1.ok());
  auto d1_again = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d1_again.ok());
  EXPECT_EQ(*d1, *d1_again);

  // A change two imports deep must change the entry's closure digest even
  // though entry.cconf and lib.cinc are byte-identical.
  sources.Put("util.cinc", "BASE = 42\n");
  auto d2 = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d2.ok());
  EXPECT_NE(*d1, *d2);

  // Unrelated files don't affect it.
  sources.Put("other.cinc", "Z = 1\n");
  auto d3 = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d3.ok());
  EXPECT_EQ(*d2, *d3);
}

TEST(VmUnitCache, ClosureDigestCoversSchemasAndValidators) {
  InMemorySources sources;
  sources.Put("entry.cconf",
              "import_thrift(\"job.thrift\")\n"
              "export_if_last(Job(name=\"x\"))\n");
  sources.Put("job.thrift",
              "struct Job {\n  1: string name;\n}\n");

  CompiledUnitCache cache;
  auto d1 = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d1.ok());

  // Adding a validator companion changes the closure.
  sources.Put("job.thrift-cvalidator",
              "def validate_Job(job):\n    return True\n");
  auto d2 = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d2.ok());
  EXPECT_NE(*d1, *d2);

  // Editing the schema itself changes it too.
  sources.Put("job.thrift",
              "struct Job {\n  1: string name;\n  2: i32 mem;\n}\n");
  auto d3 = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  ASSERT_TRUE(d3.ok());
  EXPECT_NE(*d2, *d3);
}

TEST(VmUnitCache, ClosureDigestRejectsDynamicImports) {
  InMemorySources sources;
  sources.Put("entry.cconf",
              "p = \"lib\" + \".cinc\"\n"
              "import_python(p)\n"
              "export_if_last({})\n");
  CompiledUnitCache cache;
  auto digest = ClosureDigest("entry.cconf", sources.AsReader(), &cache);
  EXPECT_FALSE(digest.ok());
  EXPECT_TRUE(std::string(digest.status().message())
                  .find("computed import path") != std::string::npos);
}

// --- Facade: engines agree, cache observable through metrics ---------------

struct EngineResult {
  Status status = OkStatus();
  std::vector<std::string> dumps;
};

EngineResult ToEngineResult(const Result<CompileOutput>& output) {
  EngineResult result;
  if (!output.ok()) {
    result.status = output.status();
    return result;
  }
  for (const CompiledConfig& config : output->configs) {
    result.dumps.push_back(config.path + "\n" + config.content.DumpPretty());
  }
  return result;
}

// Compiles on the production VM through ConfigCompiler.
EngineResult CompileWith(const InMemorySources& sources,
                         const std::string& entry,
                         CompiledUnitCache* cache = nullptr,
                         MetricsRegistry* metrics = nullptr) {
  CompilerOptions options;
  options.unit_cache = cache;
  options.metrics = metrics;
  ConfigCompiler compiler(sources.AsReader(), options);
  return ToEngineResult(compiler.Compile(entry));
}

// Compiles on the reference interpreter through the same pipeline.
EngineResult CompileWithReference(const InMemorySources& sources,
                                  const std::string& entry) {
  return ToEngineResult(
      CompileWithReferenceInterpreter(sources.AsReader(), entry));
}

TEST(VmFacade, VmIsTheDefaultAndMatchesInterpreter) {
  InMemorySources sources;
  sources.Put("job.thrift",
              "struct Job {\n"
              "  1: string name;\n"
              "  2: i32 mem = 64;\n"
              "}\n");
  sources.Put("lib.cinc",
              "import_thrift(\"job.thrift\")\n"
              "def mk(name, mem=128):\n"
              "    return Job(name=name, mem=mem)\n");
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "jobs = []\n"
              "for i in range(3):\n"
              "    jobs = jobs + [mk(\"job-\" + str(i), mem=64 + i)]\n"
              "export(\"a.json\", jobs[0])\n"
              "export(\"b.json\", {\"count\": len(jobs)})\n");

  EngineResult vm = CompileWith(sources, "entry.cconf");
  EngineResult interp = CompileWithReference(sources, "entry.cconf");
  ASSERT_TRUE(vm.status.ok()) << vm.status;
  ASSERT_TRUE(interp.status.ok()) << interp.status;
  EXPECT_EQ(vm.dumps, interp.dumps);

  // A default-constructed compiler (private cache): same artifacts again.
  ConfigCompiler default_compiler(sources.AsReader());
  auto output = default_compiler.Compile("entry.cconf");
  ASSERT_TRUE(output.ok());
  std::vector<std::string> dumps;
  for (const CompiledConfig& config : output->configs) {
    dumps.push_back(config.path + "\n" + config.content.DumpPretty());
  }
  EXPECT_EQ(dumps, vm.dumps);
}

TEST(VmFacade, SharedCacheHitsAcrossCompilesAndInvalidatesOnEdit) {
  InMemorySources sources;
  sources.Put("lib.cinc", "A = 1\n");
  sources.Put("e1.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A})\n");
  sources.Put("e2.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last({\"a\": A + 1})\n");

  CompiledUnitCache cache;
  MetricsRegistry metrics;
  // The digest walk misses both units, then the session hash-hits them.
  EngineResult r1 = CompileWith(sources, "e1.cconf", &cache, &metrics);
  ASSERT_TRUE(r1.status.ok()) << r1.status;
  uint64_t misses_after_first =
      metrics.GetCounter("csl.unit_cache.misses")->value();
  EXPECT_EQ(misses_after_first, 2u);
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.hits")->value(), 2u);

  // Second entry shares lib.cinc: only its own body misses (in the digest
  // walk); lib.cinc's subtree digest replays from the node memo without
  // touching the unit cache, then both units hit during evaluation.
  EngineResult r2 = CompileWith(sources, "e2.cconf", &cache, &metrics);
  ASSERT_TRUE(r2.status.ok()) << r2.status;
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.misses")->value(), 3u);
  EXPECT_EQ(metrics.GetCounter("csl.unit_cache.hits")->value(), 4u);

  // Editing the shared module invalidates: recompile, results track the edit.
  sources.Put("lib.cinc", "A = 100\n");
  EngineResult r3 = CompileWith(sources, "e1.cconf", &cache, &metrics);
  ASSERT_TRUE(r3.status.ok()) << r3.status;
  EXPECT_GT(metrics.GetCounter("csl.unit_cache.misses")->value(),
            misses_after_first);
  EXPECT_TRUE(r3.dumps[0].find("100") != std::string::npos) << r3.dumps[0];
}

// --- Whole-entry output memoization -----------------------------------------

TEST(VmOutputMemo, ReplaysWholeEntryOnUnchangedClosure) {
  InMemorySources sources;
  sources.Put("job.thrift",
              "struct Job {\n  1: string name;\n  2: i32 mem = 64;\n}\n");
  sources.Put("lib.cinc",
              "import_thrift(\"job.thrift\")\n"
              "def mk(name):\n"
              "    return Job(name=name)\n");
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "export_if_last(mk(\"a\"))\n");

  CompiledUnitCache cache;
  CompilerOptions options;
  options.unit_cache = &cache;
  ConfigCompiler compiler(sources.AsReader(), options);

  auto o1 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o1.ok()) << o1.status();
  EXPECT_EQ(cache.output_hits(), 0u);
  EXPECT_EQ(cache.output_misses(), 1u);

  // Unchanged closure: the memoized output replays, bit-identically.
  auto o2 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o2.ok()) << o2.status();
  EXPECT_EQ(cache.output_hits(), 1u);
  ASSERT_EQ(o1->configs.size(), o2->configs.size());
  EXPECT_EQ(o1->configs[0].path, o2->configs[0].path);
  EXPECT_EQ(o1->configs[0].content.DumpPretty(),
            o2->configs[0].content.DumpPretty());
  EXPECT_EQ(o1->dependencies, o2->dependencies);

  // An edit two hops from the entry (the schema's default) changes the
  // closure digest: the memo misses and the fresh output tracks the edit.
  sources.Put("job.thrift",
              "struct Job {\n  1: string name;\n  2: i32 mem = 256;\n}\n");
  auto o3 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o3.ok()) << o3.status();
  EXPECT_EQ(cache.output_misses(), 2u);
  EXPECT_NE(o3->configs[0].content.DumpPretty(),
            o2->configs[0].content.DumpPretty());
  EXPECT_NE(o3->configs[0].content.DumpPretty().find("256"),
            std::string::npos);
}

TEST(VmOutputMemo, CachesDeterministicFailures) {
  InMemorySources sources;
  sources.Put("job.thrift", "struct Job {\n  1: string name;\n}\n");
  sources.Put("job.thrift-cvalidator",
              "def validate_Job(job):\n"
              "    return job.name != \"bad\"\n");
  sources.Put("entry.cconf",
              "import_thrift(\"job.thrift\")\n"
              "export_if_last(Job(name=\"bad\"))\n");

  CompiledUnitCache cache;
  CompilerOptions options;
  options.unit_cache = &cache;
  ConfigCompiler compiler(sources.AsReader(), options);

  auto e1 = compiler.Compile("entry.cconf");
  ASSERT_FALSE(e1.ok());
  auto e2 = compiler.Compile("entry.cconf");
  ASSERT_FALSE(e2.ok());
  EXPECT_EQ(e1.status(), e2.status());
  EXPECT_EQ(cache.output_hits(), 1u) << "failures replay from the memo too";

  // Fixing the validator's input un-caches: new digest, new (passing) run.
  sources.Put("entry.cconf",
              "import_thrift(\"job.thrift\")\n"
              "export_if_last(Job(name=\"good\"))\n");
  auto ok = compiler.Compile("entry.cconf");
  EXPECT_TRUE(ok.ok()) << ok.status();
}

TEST(VmOutputMemo, DynamicImportClosureIsNeverMemoized) {
  InMemorySources sources;
  sources.Put("lib.cinc", "A = 7\n");
  sources.Put("entry.cconf",
              "p = \"lib\" + \".cinc\"\n"
              "import_python(p, \"*\")\n"
              "export_if_last({\"a\": A})\n");

  CompiledUnitCache cache;
  CompilerOptions options;
  options.unit_cache = &cache;
  ConfigCompiler compiler(sources.AsReader(), options);

  // The closure is only knowable by evaluating, so both compiles take the
  // full path and the output memo is never consulted.
  auto o1 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o1.ok()) << o1.status();
  auto o2 = compiler.Compile("entry.cconf");
  ASSERT_TRUE(o2.ok()) << o2.status();
  EXPECT_EQ(cache.output_hits(), 0u);
  EXPECT_EQ(cache.output_misses(), 0u);
  EXPECT_EQ(o1->configs[0].content.DumpPretty(),
            o2->configs[0].content.DumpPretty());
}

// --- Regression: interpreter and VM agree on error positions ---------------
//
// The interpreter used to report runtime errors inside a cross-module
// function against the *caller's* module path: CallValue never switched
// current_origin_ to the callee's defining module, so "lib.cinc line 2"
// failures showed up as "entry.cconf:2". The VM derives positions from the
// defining chunk, which made the two engines disagree. Both must now blame
// the defining module, with the call-site chain wrapped around it.

TEST(VmErrorParity, NestedCrossModuleCallPositions) {
  InMemorySources sources;
  sources.Put("lib.cinc",
              "def inner(v):\n"
              "    return v + \"s\"\n"       // Fails here: lib.cinc:2.
              "def outer(v):\n"
              "    return inner(v)\n");      // Call site: lib.cinc:4.
  sources.Put("entry.cconf",
              "import_python(\"lib.cinc\", \"*\")\n"
              "x = outer(3)\n"               // Call site: entry.cconf:2.
              "export_if_last({\"x\": x})\n");

  EngineResult vm = CompileWith(sources, "entry.cconf");
  EngineResult interp = CompileWithReference(sources, "entry.cconf");
  ASSERT_FALSE(vm.status.ok());
  ASSERT_FALSE(interp.status.ok());
  EXPECT_EQ(vm.status, interp.status);
  EXPECT_EQ(std::string(interp.status.message()),
            "entry.cconf:2: in call: lib.cinc:4: in call: "
            "lib.cinc:2: cannot add int and string");
}

}  // namespace
}  // namespace configerator
