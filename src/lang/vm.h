// Stack-based bytecode VM for the config source language — the one CSL
// engine behind the Compiler facade and sitevars.
//
// The VM reproduces the observable semantics of the tree-walking reference
// interpreter (tests/reference/interp.h) exactly: the differential fuzz
// battery in tests/vm_differential_test.cc requires bit-identical exported
// artifacts and byte-identical error messages (class, origin, line) against
// it on every seeded program. When in doubt, the interpreter is the
// specification.
//
// Functions with statically known locals run on vector slots (no
// Environment allocation per call); functions containing nested defs or
// import special forms get a real Environment so closures can capture it.
// A name read that misses its slot falls back to the captured environment
// chain, matching the interpreter's define-on-assignment scoping.

#ifndef SRC_LANG_VM_H_
#define SRC_LANG_VM_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/lang/bytecode.h"
#include "src/lang/environment.h"
#include "src/lang/value.h"
#include "src/schema/schema.h"
#include "src/util/status.h"

namespace configerator {

class Vm {
 public:
  // Imports/exports route through the host (src/lang/environment.h).
  using Hooks = EngineHooks;

  Vm(const SchemaRegistry* registry, Hooks hooks);
  ~Vm();

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  // A session-scoped environment, cleared when the VM is destroyed.
  std::shared_ptr<Environment> NewEnvironment(
      std::shared_ptr<Environment> parent = nullptr);

  // Environment pre-populated with builtins, schema constructors and enum
  // namespaces. New globals should chain from this.
  std::shared_ptr<Environment> MakeBaseEnvironment();

  // Executes a compiled module body in `globals`. The unit must outlive
  // every value produced by the session (closures point into it); compile
  // sessions keep a shared_ptr alive for their duration.
  Status EvalUnit(const CompiledUnit& unit,
                  const std::shared_ptr<Environment>& globals,
                  bool exports_enabled);

  // Calls a function value with evaluated arguments (validator entry point).
  Result<Value> CallValue(const Value& fn, std::vector<Value> args,
                          std::map<std::string, Value> kwargs);

  // Total instruction budget per EvalUnit (default 20M, like the
  // interpreter's step limit; the unit of "step" differs between engines).
  void set_step_limit(uint64_t limit) { step_limit_ = limit; }

  const SchemaRegistry* registry() const { return registry_; }

 private:
  struct Frame {
    const Chunk* chunk = nullptr;
    const CompiledUnit* unit = nullptr;
    // Scope: env-mode frames (module tops, functions with nested defs or
    // imports) bind through `env`; slot-mode frames use the vectors and
    // fall back to `fallback` (the closure's captured chain) for reads.
    std::shared_ptr<Environment> env;
    const CompiledFunction* fn = nullptr;
    std::vector<Value>* locals = nullptr;
    std::vector<bool>* locals_set = nullptr;
    std::shared_ptr<Environment> fallback;
  };

  Result<Value> RunChunk(Frame& frame);
  Result<Value> CallFunction(const Closure& closure, std::vector<Value> args,
                             std::map<std::string, Value> kwargs);
  Status DoImport(const std::string& callee, const std::string& path,
                  const std::string& filter, Frame& frame, int line);
  Status VmError(const Frame& frame, size_t op_ip, const std::string& msg) const;

  const SchemaRegistry* registry_;
  Hooks hooks_;
  std::shared_ptr<Environment> base_env_;
  std::vector<std::weak_ptr<Environment>> session_envs_;
  size_t env_compact_threshold_ = 1024;
  // Installed for the VM's lifetime; its destructor (after ~Vm clears the
  // environments) empties surviving list/dict cells, breaking
  // self-referential container cycles the environment sweep can't reach.
  ContainerCycleBreaker cycle_breaker_;
  std::vector<Value> stack_;
  // Module environments loaded by kImportBegin, waiting for their filter.
  std::vector<std::shared_ptr<Environment>> pending_imports_;
  bool exports_enabled_ = false;
  uint64_t step_limit_ = 20'000'000;
  uint64_t steps_ = 0;
  int call_depth_ = 0;
};

}  // namespace configerator

#endif  // SRC_LANG_VM_H_
