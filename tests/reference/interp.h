// Tree-walking reference evaluator for the config source language — the
// executable specification of CSL semantics. Production runs the bytecode VM
// (src/lang/vm.h); this interpreter lives with the tests and benches that
// hold the VM to it (tests/vm_differential_test.cc, tests/lang_test.cc,
// bench/csl_vm.cc) and is never linked into src/.
//
// It shares the VM's host surface (EngineHooks, Environment) and plugs into
// the production compile pipeline as a CslEngine, so a differential run
// exercises one import/export/type-check/validator path with two engines.
// A step limit bounds runaway config code.

#ifndef TESTS_REFERENCE_INTERP_H_
#define TESTS_REFERENCE_INTERP_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/compiler.h"
#include "src/lang/environment.h"
#include "src/lang/value.h"
#include "src/schema/schema.h"
#include "src/util/status.h"

namespace configerator {

class Interp {
 public:
  using Hooks = EngineHooks;

  Interp(const SchemaRegistry* registry, Hooks hooks);
  ~Interp();

  Interp(const Interp&) = delete;
  Interp& operator=(const Interp&) = delete;

  // Creates an environment owned by this interpreter session. All module
  // globals and call frames must come from here so closure/environment
  // reference cycles are reclaimed when the session ends.
  std::shared_ptr<Environment> NewEnvironment(
      std::shared_ptr<Environment> parent = nullptr);

  // Evaluates a module body in `globals`. `exports_enabled` is true only for
  // the entry file — imported library modules calling export_if_last() are
  // no-ops, matching the paper's semantics ("export if last").
  Status EvalModule(const Module& module, const std::shared_ptr<Environment>& globals,
                    bool exports_enabled);

  // Calls a function value with evaluated arguments. Used by the compiler to
  // invoke validators.
  Result<Value> CallValue(const Value& fn, std::vector<Value> args,
                          std::map<std::string, Value> kwargs);

  // Environment pre-populated with builtins, schema constructors and enum
  // namespaces. New globals should chain from this.
  std::shared_ptr<Environment> MakeBaseEnvironment();

  // Total evaluation steps allowed per EvalModule (default 20M).
  void set_step_limit(uint64_t limit) { step_limit_ = limit; }

  const SchemaRegistry* registry() const { return registry_; }

 private:
  struct Flow {
    enum class Kind { kNormal, kBreak, kContinue, kReturn };
    Kind kind = Kind::kNormal;
    Value value;
  };

  Status Tick(int line);
  Status EvalError(int line, const std::string& msg) const;

  Result<Flow> ExecBlock(const std::vector<StmtPtr>& body,
                         const std::shared_ptr<Environment>& env);
  Result<Flow> ExecStmt(const Stmt& stmt, const std::shared_ptr<Environment>& env);
  Result<Value> Eval(const Expr& expr, const std::shared_ptr<Environment>& env);
  Result<Value> EvalBinary(const Expr& expr, const std::shared_ptr<Environment>& env);
  Result<Value> EvalCall(const Expr& expr, const std::shared_ptr<Environment>& env);
  Status Assign(const Expr& target, Value value,
                const std::shared_ptr<Environment>& env);

  const SchemaRegistry* registry_;
  Hooks hooks_;
  std::shared_ptr<Environment> base_env_;
  std::vector<std::weak_ptr<Environment>> session_envs_;
  size_t env_compact_threshold_ = 1024;
  // Installed for the interpreter's lifetime; its destructor (after
  // ~Interp clears the environments) empties surviving list/dict cells,
  // breaking self-referential container cycles the environment sweep
  // can't reach.
  ContainerCycleBreaker cycle_breaker_;
  std::string current_origin_;
  bool exports_enabled_ = false;
  uint64_t step_limit_ = 20'000'000;
  uint64_t steps_ = 0;
  int call_depth_ = 0;
};

// Compiles `entry_path` through the production compile pipeline
// (CompileEntry) with the reference interpreter as its engine. No unit cache
// and no output memoization: every module is parsed and walked.
Result<CompileOutput> CompileWithReferenceInterpreter(
    const FileReader& reader, const std::string& entry_path);

}  // namespace configerator

#endif  // TESTS_REFERENCE_INTERP_H_
