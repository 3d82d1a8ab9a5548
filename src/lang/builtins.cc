#include "src/lang/builtins.h"

#include <algorithm>
#include <cctype>
#include <functional>
#include <cmath>
#include <cstdlib>

#include "src/util/strings.h"

namespace configerator {

namespace {

Status ArityError(const std::string& fn, const std::string& expected) {
  return InvalidArgumentError(fn + "() expects " + expected);
}

std::string Stringify(const Value& v) {
  if (v.is_string()) {
    return v.as_string();
  }
  if (v.is_bool()) {
    return v.as_bool() ? "True" : "False";
  }
  if (v.is_int()) {
    return std::to_string(v.as_int());
  }
  if (v.is_double()) {
    return StrFormat("%g", v.as_double());
  }
  if (v.is_null()) {
    return "None";
  }
  return v.ToDebugString();
}

void Def(Environment* env, const std::string& name, NativeFn fn) {
  env->Define(name, Value::MakeNative(name, std::move(fn)));
}

}  // namespace

const std::shared_ptr<Environment>& SharedBuiltinsEnvironment() {
  // Construction may run lazily inside a session whose ContainerCycleBreaker
  // is installed, so this environment must bind only natives and scalars:
  // a list/dict cell created here would be emptied at that session's
  // teardown, corrupting the shared scope for every later session. (Mutable
  // bindings like enum namespaces belong in RegisterSchemaConstructors,
  // which populates each session's own base layer.)
  static const std::shared_ptr<Environment> env = [] {
    auto e = std::make_shared<Environment>();
    RegisterCslBuiltins(e.get());
    return e;
  }();
  return env;
}

void RegisterCslBuiltins(Environment* env) {
  Def(env, "len", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("len", "one argument");
    }
    const Value& v = args[0];
    if (v.is_string()) {
      return Value::Int(static_cast<int64_t>(v.as_string().size()));
    }
    if (v.is_list()) {
      return Value::Int(static_cast<int64_t>(v.as_list().size()));
    }
    if (v.is_dict()) {
      return Value::Int(static_cast<int64_t>(v.as_dict().size()));
    }
    return InvalidArgumentError("len() needs a string, list or dict");
  });

  Def(env, "str", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("str", "one argument");
    }
    return Value::Str(Stringify(args[0]));
  });

  Def(env, "int", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("int", "one argument");
    }
    const Value& v = args[0];
    if (v.is_int()) {
      return v;
    }
    if (v.is_double()) {
      return Value::Int(static_cast<int64_t>(v.as_double()));
    }
    if (v.is_bool()) {
      return Value::Int(v.as_bool() ? 1 : 0);
    }
    if (v.is_string()) {
      char* end = nullptr;
      long long parsed = std::strtoll(v.as_string().c_str(), &end, 10);
      if (end == v.as_string().c_str() || *end != '\0') {
        return InvalidArgumentError("int(): cannot parse '" + v.as_string() + "'");
      }
      return Value::Int(parsed);
    }
    return InvalidArgumentError("int() needs a number or numeric string");
  });

  Def(env, "float", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1) {
      return ArityError("float", "one argument");
    }
    const Value& v = args[0];
    if (v.is_number()) {
      return Value::Double(v.as_double());
    }
    if (v.is_string()) {
      char* end = nullptr;
      double parsed = std::strtod(v.as_string().c_str(), &end);
      if (end == v.as_string().c_str() || *end != '\0') {
        return InvalidArgumentError("float(): cannot parse '" + v.as_string() + "'");
      }
      return Value::Double(parsed);
    }
    return InvalidArgumentError("float() needs a number or numeric string");
  });

  Def(env, "abs", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1 || !args[0].is_number()) {
      return ArityError("abs", "one number");
    }
    if (args[0].is_int()) {
      return Value::Int(std::llabs(args[0].as_int()));
    }
    return Value::Double(std::fabs(args[0].as_double()));
  });

  Def(env, "range", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    int64_t start = 0;
    int64_t stop = 0;
    int64_t step = 1;
    if (args.size() == 1 && args[0].is_int()) {
      stop = args[0].as_int();
    } else if (args.size() >= 2 && args[0].is_int() && args[1].is_int()) {
      start = args[0].as_int();
      stop = args[1].as_int();
      if (args.size() == 3) {
        if (!args[2].is_int() || args[2].as_int() == 0) {
          return InvalidArgumentError("range() step must be a nonzero integer");
        }
        step = args[2].as_int();
      }
    } else {
      return ArityError("range", "1-3 integer arguments");
    }
    Value::List items;
    if (step > 0) {
      for (int64_t i = start; i < stop; i += step) {
        items.push_back(Value::Int(i));
      }
    } else {
      for (int64_t i = start; i > stop; i += step) {
        items.push_back(Value::Int(i));
      }
    }
    return Value::MakeList(std::move(items));
  });

  Def(env, "sorted", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1 || !args[0].is_list()) {
      return ArityError("sorted", "one list");
    }
    Value::List items = args[0].as_list();
    bool numeric = std::all_of(items.begin(), items.end(),
                               [](const Value& v) { return v.is_number(); });
    bool stringy = std::all_of(items.begin(), items.end(),
                               [](const Value& v) { return v.is_string(); });
    if (!numeric && !stringy) {
      return InvalidArgumentError("sorted() needs all-numbers or all-strings");
    }
    std::stable_sort(items.begin(), items.end(),
                     [numeric](const Value& a, const Value& b) {
                       if (numeric) {
                         return a.as_double() < b.as_double();
                       }
                       return a.as_string() < b.as_string();
                     });
    return Value::MakeList(std::move(items));
  });

  auto min_max = [](bool is_min) {
    return [is_min](std::vector<Value>& args, std::map<std::string, Value>&)
               -> Result<Value> {
      Value::List items;
      if (args.size() == 1 && args[0].is_list()) {
        items = args[0].as_list();
      } else {
        items = args;
      }
      if (items.empty()) {
        return InvalidArgumentError("min()/max() of empty sequence");
      }
      Value best = items[0];
      for (const Value& v : items) {
        if (!v.is_number() || !best.is_number()) {
          if (!v.is_string() || !best.is_string()) {
            return InvalidArgumentError("min()/max() needs numbers or strings");
          }
          bool less = v.as_string() < best.as_string();
          if (less == is_min && !v.Equals(best)) {
            best = v;
          }
          continue;
        }
        bool less = v.as_double() < best.as_double();
        if (less == is_min && v.as_double() != best.as_double()) {
          best = v;
        }
      }
      return best;
    };
  };
  Def(env, "min", min_max(true));
  Def(env, "max", min_max(false));

  Def(env, "items", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1 || !args[0].is_dict()) {
      return ArityError("items", "one dict");
    }
    Value::List pairs;
    for (const auto& [k, v] : args[0].as_dict()) {
      pairs.push_back(Value::MakeList({Value::Str(k), v}));
    }
    return Value::MakeList(std::move(pairs));
  });

  Def(env, "keys", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1 || !args[0].is_dict()) {
      return ArityError("keys", "one dict");
    }
    Value::List out;
    for (const auto& [k, v] : args[0].as_dict()) {
      (void)v;
      out.push_back(Value::Str(k));
    }
    return Value::MakeList(std::move(out));
  });

  Def(env, "values", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 1 || !args[0].is_dict()) {
      return ArityError("values", "one dict");
    }
    Value::List out;
    for (const auto& [k, v] : args[0].as_dict()) {
      (void)k;
      out.push_back(v);
    }
    return Value::MakeList(std::move(out));
  });

  Def(env, "append", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 2 || !args[0].is_list()) {
      return ArityError("append", "a list and a value");
    }
    args[0].as_list().push_back(args[1]);
    return Value::Null();
  });

  Def(env, "extend", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 2 || !args[0].is_list() || !args[1].is_list()) {
      return ArityError("extend", "two lists");
    }
    for (const Value& v : args[1].as_list()) {
      args[0].as_list().push_back(v);
    }
    return Value::Null();
  });

  Def(env, "has_key", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 2 || !args[0].is_dict() || !args[1].is_string()) {
      return ArityError("has_key", "a dict and a string key");
    }
    return Value::Bool(args[0].as_dict().count(args[1].as_string()) > 0);
  });

  Def(env, "get", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() < 2 || !args[0].is_dict() || !args[1].is_string()) {
      return ArityError("get", "a dict, a string key, and an optional default");
    }
    auto it = args[0].as_dict().find(args[1].as_string());
    if (it != args[0].as_dict().end()) {
      return it->second;
    }
    if (args.size() >= 3) {
      return args[2];
    }
    return Value::Null();
  });

  Def(env, "join", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 2 || !args[0].is_string() || !args[1].is_list()) {
      return ArityError("join", "a separator string and a list");
    }
    std::string out;
    bool first = true;
    for (const Value& v : args[1].as_list()) {
      if (!first) {
        out += args[0].as_string();
      }
      first = false;
      out += Stringify(v);
    }
    return Value::Str(std::move(out));
  });

  Def(env, "split", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 2 || !args[0].is_string() || !args[1].is_string() ||
        args[1].as_string().empty()) {
      return ArityError("split", "a string and a nonempty separator");
    }
    const std::string& s = args[0].as_string();
    const std::string& sep = args[1].as_string();
    Value::List out;
    size_t start = 0;
    while (true) {
      size_t next = s.find(sep, start);
      if (next == std::string::npos) {
        out.push_back(Value::Str(s.substr(start)));
        break;
      }
      out.push_back(Value::Str(s.substr(start, next - start)));
      start = next + sep.size();
    }
    return Value::MakeList(std::move(out));
  });

  // format("{} has {} cores", name, n) — sequential "{}" substitution.
  Def(env, "format", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.empty() || !args[0].is_string()) {
      return ArityError("format", "a format string first");
    }
    const std::string& fmt = args[0].as_string();
    std::string out;
    size_t next_arg = 1;
    for (size_t i = 0; i < fmt.size(); ++i) {
      if (fmt[i] == '{' && i + 1 < fmt.size() && fmt[i + 1] == '}') {
        if (next_arg >= args.size()) {
          return InvalidArgumentError("format(): not enough arguments");
        }
        out += Stringify(args[next_arg++]);
        ++i;
      } else {
        out.push_back(fmt[i]);
      }
    }
    return Value::Str(std::move(out));
  });

  // String predicates and transforms (function-style, like the collection
  // helpers — the language has no methods).
  auto string_pair = [](const char* fn_name,
                        std::function<Value(const std::string&, const std::string&)>
                            op) {
    return [fn_name, op = std::move(op)](std::vector<Value>& args,
                                         std::map<std::string, Value>&)
               -> Result<Value> {
      if (args.size() != 2 || !args[0].is_string() || !args[1].is_string()) {
        return ArityError(fn_name, "two strings");
      }
      return op(args[0].as_string(), args[1].as_string());
    };
  };
  Def(env, "startswith",
      string_pair("startswith", [](const std::string& s, const std::string& p) {
        return Value::Bool(s.starts_with(p));
      }));
  Def(env, "endswith",
      string_pair("endswith", [](const std::string& s, const std::string& p) {
        return Value::Bool(s.ends_with(p));
      }));

  auto string_unary = [](const char* fn_name,
                         std::function<std::string(const std::string&)> op) {
    return [fn_name, op = std::move(op)](std::vector<Value>& args,
                                         std::map<std::string, Value>&)
               -> Result<Value> {
      if (args.size() != 1 || !args[0].is_string()) {
        return ArityError(fn_name, "one string");
      }
      return Value::Str(op(args[0].as_string()));
    };
  };
  Def(env, "upper", string_unary("upper", [](const std::string& s) {
        std::string out = s;
        std::transform(out.begin(), out.end(), out.begin(),
                       [](unsigned char c) { return std::toupper(c); });
        return out;
      }));
  Def(env, "lower", string_unary("lower", [](const std::string& s) {
        std::string out = s;
        std::transform(out.begin(), out.end(), out.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        return out;
      }));
  Def(env, "strip", string_unary("strip", [](const std::string& s) {
        return std::string(StrTrim(s));
      }));

  Def(env, "replace", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 3 || !args[0].is_string() || !args[1].is_string() ||
        !args[2].is_string() || args[1].as_string().empty()) {
      return ArityError("replace", "a string, a nonempty needle, a replacement");
    }
    const std::string& s = args[0].as_string();
    const std::string& needle = args[1].as_string();
    const std::string& replacement = args[2].as_string();
    std::string out;
    size_t start = 0;
    while (true) {
      size_t pos = s.find(needle, start);
      if (pos == std::string::npos) {
        out += s.substr(start);
        break;
      }
      out += s.substr(start, pos - start);
      out += replacement;
      start = pos + needle.size();
    }
    return Value::Str(std::move(out));
  });

  Def(env, "fail", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    std::string msg = "fail() called";
    if (!args.empty()) {
      msg = Stringify(args[0]);
    }
    return InvalidConfigError(msg);
  });

  // merge(base, override): deep merge for config inheritance (the paper's §8
  // "introducing config inheritance" future work). Returns a NEW value:
  // nested dicts merge recursively, anything else is replaced by the
  // override. The base's schema type tag is preserved, so a merged typed
  // config still type-checks at export.
  Def(env, "merge", [](std::vector<Value>& args, std::map<std::string, Value>&)
          -> Result<Value> {
    if (args.size() != 2 || !args[0].is_dict() || !args[1].is_dict()) {
      return ArityError("merge", "two dicts (base, override)");
    }
    std::function<Value(const Value&, const Value&)> deep_merge =
        [&deep_merge](const Value& base, const Value& override_v) -> Value {
      Value::Dict merged = base.as_dict();
      for (const auto& [key, value] : override_v.as_dict()) {
        auto it = merged.find(key);
        if (it != merged.end() && it->second.is_dict() && value.is_dict()) {
          merged[key] = deep_merge(it->second, value);
        } else {
          merged[key] = value;
        }
      }
      return Value::MakeDict(std::move(merged), base.type_name());
    };
    return deep_merge(args[0], args[1]);
  });
}

void RegisterSchemaConstructors(const SchemaRegistry& registry, Environment* env) {
  for (const std::string& struct_name : registry.StructNames()) {
    const StructDef* def = registry.FindStruct(struct_name);
    // Copy the field names; the registry outlives the engine session.
    std::vector<std::string> field_names;
    field_names.reserve(def->fields.size());
    for (const FieldDef& f : def->fields) {
      field_names.push_back(f.name);
    }
    std::string name = struct_name;
    env->Define(
        name,
        Value::MakeNative(
            name, [name, field_names](std::vector<Value>& args,
                                      std::map<std::string, Value>& kwargs)
                      -> Result<Value> {
              if (!args.empty()) {
                return InvalidArgumentError(
                    name + "(...) takes keyword arguments only");
              }
              Value::Dict fields;
              for (auto& [kw, value] : kwargs) {
                if (std::find(field_names.begin(), field_names.end(), kw) ==
                    field_names.end()) {
                  return InvalidConfigError(StrFormat(
                      "%s has no field named '%s'", name.c_str(), kw.c_str()));
                }
                fields[kw] = std::move(value);
              }
              return Value::MakeDict(std::move(fields), name);
            }));
  }

  // Enum namespaces: JobPriority.HIGH evaluates to its integer value.
  for (const std::string& enum_name : registry.EnumNames()) {
    const EnumDef* e = registry.FindEnum(enum_name);
    Value::Dict ns;
    for (const auto& [value_name, value] : e->values) {
      ns[value_name] = Value::Int(value);
    }
    env->Define(e->name, Value::MakeDict(std::move(ns), "enum " + e->name));
  }
}

}  // namespace configerator
