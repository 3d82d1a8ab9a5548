// Lexical scopes and the host hooks shared by every CSL engine session.
// Engines are sandboxed on purpose (no filesystem, network or clock), so
// config programs are pure functions from sources to exported JSON; imports
// and exports are delegated to EngineHooks supplied by the compiler.

#ifndef SRC_LANG_ENVIRONMENT_H_
#define SRC_LANG_ENVIRONMENT_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/lang/value.h"
#include "src/util/status.h"

namespace configerator {

// Lexical scope. Lookup walks the parent chain; assignment writes the
// innermost scope (Python-like).
//
// Lifetime: closures capture their defining environment by shared_ptr, and
// the environment holds the closure value — a reference cycle. An engine
// therefore registers every environment it hands out and clears them all on
// destruction, breaking the cycles (a session-scoped arena, matching how
// compile sessions and sitevar stores own their engine).
class Environment {
 public:
  explicit Environment(std::shared_ptr<Environment> parent = nullptr)
      : parent_(std::move(parent)) {}

  // Finds a binding anywhere in the chain; nullptr if absent.
  Value* Find(const std::string& name) {
    for (Environment* env = this; env != nullptr; env = env->parent_.get()) {
      auto it = env->vars_.find(name);
      if (it != env->vars_.end()) {
        return &it->second;
      }
    }
    return nullptr;
  }

  // Defines or overwrites in this scope.
  void Define(const std::string& name, Value value) {
    vars_[name] = std::move(value);
  }

  const std::map<std::string, Value>& vars() const { return vars_; }

  // Drops all bindings and the parent link (cycle breaking at session end).
  void Clear() {
    vars_.clear();
    parent_.reset();
  }

 private:
  std::map<std::string, Value> vars_;
  std::shared_ptr<Environment> parent_;
};

// How an engine session reaches the outside world. An unset import hook makes
// the matching import an error; an unset export hook drops exports.
struct EngineHooks {
  // Resolves `import_python(path, ...)`: evaluates (or returns cached)
  // module globals.
  std::function<Result<std::shared_ptr<Environment>>(const std::string& path)>
      import_module;
  // Resolves `import_thrift(path)`: loads schemas into the registry.
  std::function<Status(const std::string& path)> import_schema;
  // Receives `export_if_last(value)` / `export(name, value)` calls.
  // `name` is empty for export_if_last (compiler names it after the file).
  std::function<Status(const std::string& name, const Value& value)>
      export_config;
};

}  // namespace configerator

#endif  // SRC_LANG_ENVIRONMENT_H_
