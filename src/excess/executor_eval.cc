// Expression evaluation half of the Executor: Eval and its helpers.

#include <algorithm>

#include "excess/executor.h"

#include "excess/executor_internal.h"

namespace exodus::excess {

using extra::Type;
using extra::TypeKind;
using object::Oid;
using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

Result<bool> Executor::Truthy(const Value& v) const {
  if (v.is_null()) return false;  // nulls are falsey in predicates
  if (v.kind() == ValueKind::kBool) return v.AsBool();
  return Status::TypeError("predicate did not evaluate to a boolean");
}

Result<int> Executor::Compare(const Value& a, const Value& b) const {
  // Enum <-> string coercion: compare by label.
  if (a.kind() == ValueKind::kEnum && b.kind() == ValueKind::kString) {
    const auto& labels = a.enum_type()->enum_labels();
    int c = labels[static_cast<size_t>(a.enum_ordinal())].compare(b.AsString());
    return c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  if (a.kind() == ValueKind::kString && b.kind() == ValueKind::kEnum) {
    EXODUS_ASSIGN_OR_RETURN(int c, Compare(b, a));
    return -c;
  }
  return object::ValueCompare(a, b);
}

Result<std::vector<Value>> Executor::ElementsOf(const Value& v) const {
  if (v.is_null()) return std::vector<Value>{};
  if (v.kind() == ValueKind::kSet) return v.set().elems;
  if (v.kind() == ValueKind::kArray) return v.array().elems;
  return Status::TypeError("expected a set or array, got " + v.ToString());
}

const Type* Executor::RuntimeTupleType(const Value& v) const {
  if (v.kind() == ValueKind::kRef) {
    const object::HeapObject* obj = ReadObject(v.AsRef());
    return obj != nullptr ? obj->type : nullptr;
  }
  if (v.kind() == ValueKind::kTuple) return v.tuple().type;
  return nullptr;
}

Result<Value> Executor::AttrAccess(const Value& base, const std::string& attr,
                                   Env* env) {
  (void)env;
  if (base.is_null()) return Value::Null();

  const Type* type = nullptr;
  const std::vector<Value>* fields = nullptr;
  if (base.kind() == ValueKind::kRef) {
    const object::HeapObject* obj = ReadObject(base.AsRef());
    if (obj == nullptr) return Value::Null();  // dangling ref ~ null (GEM)
    type = obj->type;
    fields = &obj->fields;
  } else if (base.kind() == ValueKind::kTuple) {
    type = base.tuple().type;
    fields = &base.tuple().fields;
  } else {
    return Status::TypeError("cannot select '." + attr +
                             "' from a non-object value " + base.ToString());
  }

  if (type != nullptr) {
    int idx = type->AttributeIndex(attr);
    if (idx >= 0) {
      if (static_cast<size_t>(idx) < fields->size()) return (*fields)[idx];
      return Value::Null();
    }
    // Derived attributes (EXCESS functions invoked without parentheses)
    // are dispatched by the kAttr case of Eval, which knows the static
    // receiver type for early binding.
    return Status::NotFound("type " + type->ToString() +
                            " has no attribute '" + attr + "'");
  }
  return Status::TypeError("cannot select attribute '" + attr +
                           "' from an untyped tuple");
}

Result<Value> Executor::EvalRange(const Expr& expr, Env* env) {
  if (expr.kind == ExprKind::kVar) {
    const extra::NamedObject* named = ctx_->catalog->FindNamed(expr.name);
    if (named != nullptr && named->type != nullptr &&
        named->type->is_collection()) {
      EXODUS_RETURN_IF_ERROR(
          CheckNamedPrivilege(expr.name, auth::Privilege::kRetrieve));
      return NamedValue(named);
    }
  }
  return Eval(expr, env);
}

Result<Value> Executor::Eval(const Expr& expr, Env* env) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kVar: {
      const Value* bound = env->Find(expr.name);
      if (bound != nullptr) return *bound;
      const extra::NamedObject* named = ctx_->catalog->FindNamed(expr.name);
      if (named != nullptr) {
        EXODUS_RETURN_IF_ERROR(
            CheckNamedPrivilege(expr.name, auth::Privilege::kRetrieve));
        return NamedValue(named);
      }
      // Unique bare enum label.
      const Type* found_enum = nullptr;
      int ordinal = -1;
      for (const auto& [tname, type] :
           ctx_->catalog->named_types_in_order()) {
        if (type->kind() != TypeKind::kEnum) continue;
        for (size_t i = 0; i < type->enum_labels().size(); ++i) {
          if (type->enum_labels()[i] == expr.name) {
            if (found_enum != nullptr && found_enum != type) {
              return Status::TypeError("enum label '" + expr.name +
                                       "' is ambiguous; qualify it as "
                                       "<EnumType>." + expr.name);
            }
            found_enum = type;
            ordinal = static_cast<int>(i);
          }
        }
      }
      if (found_enum != nullptr) return Value::Enum(found_enum, ordinal);
      return Status::NotFound("unknown name '" + expr.name + "'");
    }
    case ExprKind::kAttr: {
      // Enum scoping: EnumType.label
      if (expr.base->kind == ExprKind::kVar &&
          env->Find(expr.base->name) == nullptr) {
        auto t = ctx_->catalog->FindType(expr.base->name);
        if (t.ok() && (*t)->kind() == TypeKind::kEnum) {
          EXODUS_ASSIGN_OR_RETURN(int ord, (*t)->EnumOrdinal(expr.name));
          return Value::Enum(*t, ord);
        }
      }
      EXODUS_ASSIGN_OR_RETURN(Value base, Eval(*expr.base, env));
      // ADT component access spelled as an attribute: d.Year etc.
      if (base.kind() == ValueKind::kAdt) {
        const adt::AdtFunction* fn =
            ctx_->adts->FindFunction(base.adt_id(), expr.name);
        if (fn != nullptr) return fn->fn({base});
        return Status::NotFound("ADT has no function '" + expr.name + "'");
      }
      auto direct = AttrAccess(base, expr.name, env);
      if (direct.ok()) return direct;
      // Derived attribute: an EXCESS function invoked without
      // parentheses (paper §4.2.1), with early/late binding resolved
      // against the static type of the receiver expression.
      if (direct.status().code() == util::StatusCode::kNotFound &&
          ctx_->functions->HasFunction(expr.name)) {
        EXODUS_ASSIGN_OR_RETURN(
            const FunctionDef* def,
            ResolveFunction(expr.name, expr.base.get(), &base, env));
        return CallExcessFunction(*def, {base});
      }
      return direct;
    }
    case ExprKind::kIndex: {
      EXODUS_ASSIGN_OR_RETURN(Value base, Eval(*expr.base, env));
      if (base.is_null()) return Value::Null();
      EXODUS_ASSIGN_OR_RETURN(Value idx, Eval(*expr.args[0], env));
      if (idx.kind() != ValueKind::kInt) {
        return Status::TypeError("array index must be an integer");
      }
      if (base.kind() != ValueKind::kArray) {
        return Status::TypeError("cannot index into " + base.ToString());
      }
      int64_t i = idx.AsInt();  // EXCESS arrays are 1-based (TopTen[1])
      const auto& elems = base.array().elems;
      if (i < 1 || static_cast<size_t>(i) > elems.size()) {
        return Value::Null();
      }
      return elems[static_cast<size_t>(i - 1)];
    }
    case ExprKind::kBinary:
      return EvalBinary(expr, env);
    case ExprKind::kUnary: {
      EXODUS_ASSIGN_OR_RETURN(Value v, Eval(*expr.base, env));
      return ApplyUnary(expr.name, v);
    }
    case ExprKind::kCall:
      return EvalCall(expr, env);
    case ExprKind::kAggregate:
      return EvalAggregate(expr, env);
    case ExprKind::kQuantified:
      return EvalQuantified(expr, env);
    case ExprKind::kSetLit: {
      auto data = std::make_shared<object::SetData>();
      for (const ExprPtr& e : expr.args) {
        EXODUS_ASSIGN_OR_RETURN(Value v, Eval(*e, env));
        object::SetInsert(data.get(), std::move(v));
      }
      return Value::Set(std::move(data));
    }
    case ExprKind::kArrayLit: {
      auto data = std::make_shared<object::ArrayData>();
      for (const ExprPtr& e : expr.args) {
        EXODUS_ASSIGN_OR_RETURN(Value v, Eval(*e, env));
        data->elems.push_back(std::move(v));
      }
      return Value::Array(std::move(data));
    }
    case ExprKind::kTupleLit:
      return Status::TypeError(
          "a tuple literal may only appear where its type is known "
          "(append/replace/assign into a tuple-typed position)");
  }
  return Status::Internal("unhandled expression kind");
}

Result<Value> Executor::EvalBinary(const Expr& expr, Env* env) {
  const std::string& op = expr.name;

  if (op == "and" || op == "or") {
    EXODUS_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.args[0], env));
    EXODUS_ASSIGN_OR_RETURN(bool l, Truthy(lhs));
    if (op == "and" && !l) return Value::Bool(false);
    if (op == "or" && l) return Value::Bool(true);
    EXODUS_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.args[1], env));
    EXODUS_ASSIGN_OR_RETURN(bool r, Truthy(rhs));
    return Value::Bool(r);
  }

  EXODUS_ASSIGN_OR_RETURN(Value lhs, Eval(*expr.args[0], env));
  EXODUS_ASSIGN_OR_RETURN(Value rhs, Eval(*expr.args[1], env));
  return ApplyBinary(op, lhs, rhs);
}

Result<Value> Executor::ApplyUnary(const std::string& op, const Value& v) {
  if (op == "not") {
    EXODUS_ASSIGN_OR_RETURN(bool b, Truthy(v));
    return Value::Bool(!b);
  }
  if (op == "-") {
    if (v.is_null()) return Value::Null();
    if (v.kind() == ValueKind::kInt) return Value::Int(-v.AsInt());
    if (v.kind() == ValueKind::kFloat) return Value::Float(-v.AsFloat());
  }
  if (v.kind() == ValueKind::kAdt) {
    const adt::OperatorDef* op_def =
        ctx_->adts->FindOperator(op, v.adt_id(), adt::Fixity::kPrefix);
    if (op_def != nullptr) {
      const adt::AdtFunction* fn =
          ctx_->adts->FindFunction(op_def->adt_id, op_def->function);
      if (fn != nullptr) return fn->fn({v});
    }
  }
  return Status::TypeError("prefix operator '" + op +
                           "' is not applicable to " + v.ToString());
}

Result<Value> Executor::ApplyBinary(const std::string& op, const Value& lhs,
                                    const Value& rhs) {
  if (op == "is" || op == "isnot") {
    // Object identity (the only comparison applicable to references).
    auto normalize = [&](Value v) {
      if (v.kind() == ValueKind::kRef && ReadObject(v.AsRef()) == nullptr) {
        return Value::Null();  // dangling references behave as null
      }
      return v;
    };
    Value l = normalize(lhs);
    Value r = normalize(rhs);
    bool same;
    if (l.is_null() || r.is_null()) {
      same = l.is_null() && r.is_null();
    } else if (l.kind() == ValueKind::kRef && r.kind() == ValueKind::kRef) {
      same = l.AsRef() == r.AsRef();
    } else {
      return Status::TypeError(
          "'is'/'isnot' compare references (or null) for identity");
    }
    return Value::Bool(op == "is" ? same : !same);
  }

  if (op == "=" || op == "!=" || op == "<>") {
    if (lhs.kind() == ValueKind::kRef || rhs.kind() == ValueKind::kRef) {
      return Status::TypeError(
          "references cannot be compared with '='; use 'is' / 'isnot' "
          "(object identity)");
    }
    if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
    bool eq;
    if ((lhs.kind() == ValueKind::kEnum &&
         rhs.kind() == ValueKind::kString) ||
        (lhs.kind() == ValueKind::kString &&
         rhs.kind() == ValueKind::kEnum)) {
      EXODUS_ASSIGN_OR_RETURN(int c, Compare(lhs, rhs));
      eq = c == 0;
    } else {
      eq = object::ValueEquals(lhs, rhs);
    }
    return Value::Bool(op == "=" ? eq : !eq);
  }

  if (op == "<" || op == "<=" || op == ">" || op == ">=") {
    if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
    if (lhs.kind() == ValueKind::kRef || rhs.kind() == ValueKind::kRef) {
      return Status::TypeError("references have no ordering");
    }
    EXODUS_ASSIGN_OR_RETURN(int c, Compare(lhs, rhs));
    if (op == "<") return Value::Bool(c < 0);
    if (op == "<=") return Value::Bool(c <= 0);
    if (op == ">") return Value::Bool(c > 0);
    return Value::Bool(c >= 0);
  }

  if (op == "in") {
    if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
    EXODUS_ASSIGN_OR_RETURN(std::vector<Value> elems, ElementsOf(rhs));
    for (const Value& e : elems) {
      if (object::ValueEquals(lhs, e)) return Value::Bool(true);
    }
    return Value::Bool(false);
  }
  if (op == "contains") {
    if (lhs.is_null() || rhs.is_null()) return Value::Bool(false);
    EXODUS_ASSIGN_OR_RETURN(std::vector<Value> elems, ElementsOf(lhs));
    for (const Value& e : elems) {
      if (object::ValueEquals(rhs, e)) return Value::Bool(true);
    }
    return Value::Bool(false);
  }

  if (op == "union" || op == "intersect" || op == "diff") {
    EXODUS_ASSIGN_OR_RETURN(std::vector<Value> a, ElementsOf(lhs));
    EXODUS_ASSIGN_OR_RETURN(std::vector<Value> b, ElementsOf(rhs));
    auto data = std::make_shared<object::SetData>();
    if (op == "union") {
      for (const Value& v : a) object::SetInsert(data.get(), v);
      for (const Value& v : b) object::SetInsert(data.get(), v);
    } else if (op == "intersect") {
      for (const Value& v : a) {
        for (const Value& w : b) {
          if (object::ValueEquals(v, w)) {
            object::SetInsert(data.get(), v);
            break;
          }
        }
      }
    } else {
      for (const Value& v : a) {
        bool in_b = false;
        for (const Value& w : b) {
          if (object::ValueEquals(v, w)) in_b = true;
        }
        if (!in_b) object::SetInsert(data.get(), v);
      }
    }
    return Value::Set(std::move(data));
  }

  // ADT-registered operators dispatch on the first ADT operand.
  auto try_adt = [&](const Value& probe) -> const adt::OperatorDef* {
    if (probe.kind() != ValueKind::kAdt) return nullptr;
    return ctx_->adts->FindOperator(op, probe.adt_id(), adt::Fixity::kInfix);
  };
  const adt::OperatorDef* adt_op = try_adt(lhs);
  if (adt_op == nullptr) adt_op = try_adt(rhs);
  if (adt_op != nullptr) {
    const adt::AdtFunction* fn =
        ctx_->adts->FindFunction(adt_op->adt_id, adt_op->function);
    if (fn == nullptr) {
      return Status::Internal("operator '" + op +
                              "' bound to a missing ADT function");
    }
    return fn->fn({lhs, rhs});
  }

  if (op == "+" || op == "-" || op == "*" || op == "/" || op == "%") {
    if (lhs.is_null() || rhs.is_null()) return Value::Null();
    if (op == "+" && lhs.kind() == ValueKind::kString &&
        rhs.kind() == ValueKind::kString) {
      return Value::String(lhs.AsString() + rhs.AsString());
    }
    bool l_num = lhs.kind() == ValueKind::kInt ||
                 lhs.kind() == ValueKind::kFloat;
    bool r_num = rhs.kind() == ValueKind::kInt ||
                 rhs.kind() == ValueKind::kFloat;
    if (!l_num || !r_num) {
      return Status::TypeError("operator '" + op +
                               "' is not applicable to " + lhs.ToString() +
                               " and " + rhs.ToString());
    }
    if (lhs.kind() == ValueKind::kInt && rhs.kind() == ValueKind::kInt) {
      int64_t a = lhs.AsInt();
      int64_t b = rhs.AsInt();
      if (op == "+") return Value::Int(a + b);
      if (op == "-") return Value::Int(a - b);
      if (op == "*") return Value::Int(a * b);
      if (b == 0) return Status::OutOfRange("division by zero");
      if (op == "/") return Value::Int(a / b);
      return Value::Int(a % b);
    }
    double a = lhs.NumericAsDouble();
    double b = rhs.NumericAsDouble();
    if (op == "+") return Value::Float(a + b);
    if (op == "-") return Value::Float(a - b);
    if (op == "*") return Value::Float(a * b);
    if (op == "/") {
      if (b == 0) return Status::OutOfRange("division by zero");
      return Value::Float(a / b);
    }
    return Status::TypeError("'%' requires integer operands");
  }

  return Status::TypeError("operator '" + op + "' is not applicable to " +
                           lhs.ToString() + " and " + rhs.ToString());
}

Result<const FunctionDef*> Executor::ResolveFunction(
    const std::string& name, const Expr* receiver_expr,
    const Value* receiver_value, Env* env) {
  (void)env;
  const Type* runtime_type =
      receiver_value != nullptr ? RuntimeTupleType(*receiver_value) : nullptr;
  const Type* static_type = nullptr;
  if (receiver_expr != nullptr) {
    auto t = binder_.InferType(*receiver_expr, *current_query_, param_types_);
    if (t.ok()) static_type = *t;
  }
  // Early binding (paper §4.2.2): the definition visible through the
  // *static* type wins when it is declared `early`.
  if (static_type != nullptr) {
    auto static_def =
        ctx_->functions->Resolve(name, static_type, ctx_->catalog->lattice());
    if (static_def.ok() && (*static_def)->early_binding) return *static_def;
  }
  return ctx_->functions->Resolve(
      name, runtime_type != nullptr ? runtime_type : static_type,
      ctx_->catalog->lattice());
}

Result<Value> Executor::CallExcessFunction(const FunctionDef& def,
                                           std::vector<Value> args) {
  if (args.size() != def.params.size()) {
    return Status::TypeError("function '" + def.name + "' expects " +
                             std::to_string(def.params.size()) +
                             " argument(s), got " +
                             std::to_string(args.size()));
  }
  if (!ctx_->auth->Check(ctx_->current_user, def.name,
                         auth::Privilege::kExecute, def.definer)) {
    return Status::PermissionDenied("user '" + ctx_->current_user +
                                    "' may not execute function '" +
                                    def.name + "'");
  }
  if (ctx_->call_depth >= internal::kMaxCallDepth) {
    return Status::OutOfRange("function call depth limit exceeded in '" +
                              def.name + "'");
  }

  ParamEnv params;
  for (size_t i = 0; i < args.size(); ++i) {
    EXODUS_ASSIGN_OR_RETURN(Value coerced,
                            CoerceValue(args[i], def.params[i].second));
    params.values[def.params[i].first] = std::move(coerced);
    params.types[def.params[i].first] = def.params[i].second;
  }

  // Definer rights + fresh executor (own binding state), shared context.
  internal::ScopedUser scoped(ctx_, def.definer.empty() ? ctx_->current_user
                                              : def.definer);
  ++ctx_->call_depth;
  Executor inner(ctx_);
  auto result = inner.Execute(*def.body, params);
  --ctx_->call_depth;
  EXODUS_RETURN_IF_ERROR(result.status());

  const QueryResult& qr = *result;
  if (def.return_type != nullptr && def.return_type->is_set()) {
    auto data = std::make_shared<object::SetData>();
    for (const auto& row : qr.rows) {
      if (row.size() == 1) {
        object::SetInsert(data.get(), row[0]);
      } else {
        object::SetInsert(data.get(),
                          Value::MakeTuple(nullptr, row));
      }
    }
    return Value::Set(std::move(data));
  }
  if (qr.rows.empty()) return Value::Null();
  if (qr.rows[0].empty()) return Value::Null();
  return qr.rows[0][0];
}

Result<Value> Executor::EvalCall(const Expr& expr, Env* env) {
  // 1. ADT constructor: Date(...), Complex(...), Box(...).
  const adt::AdtType* adt_ctor =
      expr.base == nullptr ? ctx_->adts->FindType(expr.name) : nullptr;
  if (adt_ctor != nullptr) {
    std::vector<Value> args;
    args.reserve(expr.args.size());
    for (const ExprPtr& a : expr.args) {
      EXODUS_ASSIGN_OR_RETURN(Value v, Eval(*a, env));
      args.push_back(std::move(v));
    }
    if (adt_ctor->constructor_arity >= 0 &&
        static_cast<int>(args.size()) != adt_ctor->constructor_arity) {
      return Status::TypeError("constructor '" + expr.name + "' expects " +
                               std::to_string(adt_ctor->constructor_arity) +
                               " argument(s)");
    }
    return adt_ctor->constructor(args);
  }

  // Evaluate receiver and arguments.
  std::vector<Value> args;
  const Expr* receiver_expr = nullptr;
  if (expr.base) {
    receiver_expr = expr.base.get();
    EXODUS_ASSIGN_OR_RETURN(Value recv, Eval(*expr.base, env));
    args.push_back(std::move(recv));
  }
  for (const ExprPtr& a : expr.args) {
    EXODUS_ASSIGN_OR_RETURN(Value v, Eval(*a, env));
    args.push_back(std::move(v));
  }

  // 2. ADT function on the first ADT argument: c1.Add(c2) / Add(c1, c2).
  if (!args.empty() && args[0].kind() == ValueKind::kAdt) {
    const adt::AdtFunction* fn =
        ctx_->adts->FindFunction(args[0].adt_id(), expr.name);
    if (fn != nullptr) {
      if (fn->arity >= 0 && static_cast<int>(args.size()) != fn->arity) {
        return Status::TypeError("ADT function '" + expr.name + "' expects " +
                                 std::to_string(fn->arity) + " argument(s)");
      }
      return fn->fn(args);
    }
  }

  // 3. EXCESS function with lattice dispatch.
  if (ctx_->functions->HasFunction(expr.name)) {
    const Expr* recv_expr =
        receiver_expr != nullptr
            ? receiver_expr
            : (!expr.args.empty() ? expr.args[0].get() : nullptr);
    const Value* recv_val = args.empty() ? nullptr : &args[0];
    EXODUS_ASSIGN_OR_RETURN(
        const FunctionDef* def,
        ResolveFunction(expr.name, recv_expr, recv_val, env));
    return CallExcessFunction(*def, std::move(args));
  }

  // 4. Built-ins.
  if (expr.name == "isnull" && args.size() == 1) {
    Value v = args[0];
    if (v.kind() == ValueKind::kRef && ReadObject(v.AsRef()) == nullptr) {
      v = Value::Null();
    }
    return Value::Bool(v.is_null());
  }

  // 5. Generic set function applied to an explicit collection value.
  const adt::SetFn* set_fn = ctx_->adts->FindSetFunction(expr.name);
  if (set_fn != nullptr && args.size() == 1) {
    EXODUS_ASSIGN_OR_RETURN(std::vector<Value> elems, ElementsOf(args[0]));
    return (*set_fn)(elems);
  }

  return Status::NotFound("no function named '" + expr.name + "'");
}

// ---------------------------------------------------------------------------
// Aggregates and quantifiers
// ---------------------------------------------------------------------------

Status Executor::Accumulate(const Expr& agg, AggAccum* acc,
                            const Value& v) const {
  if (v.is_null()) return Status::OK();
  if (agg.unique) {
    if (!acc->seen.insert(v).second) return Status::OK();
  }
  ++acc->count;
  if (agg.name == "sum" || agg.name == "avg") {
    if (v.kind() == ValueKind::kInt) {
      acc->sum += static_cast<double>(v.AsInt());
    } else if (v.kind() == ValueKind::kFloat) {
      acc->sum += v.AsFloat();
      acc->any_float = true;
    } else {
      return Status::TypeError(agg.name + " requires numeric values, got " +
                               v.ToString());
    }
  } else if (agg.name == "min" || agg.name == "max") {
    if (!acc->has_min) {
      acc->min_v = v;
      acc->max_v = v;
      acc->has_min = true;
    } else {
      EXODUS_ASSIGN_OR_RETURN(int cmin, Compare(v, acc->min_v));
      if (cmin < 0) acc->min_v = v;
      EXODUS_ASSIGN_OR_RETURN(int cmax, Compare(v, acc->max_v));
      if (cmax > 0) acc->max_v = v;
    }
  } else if (agg.name != "count") {
    acc->values.push_back(v);  // median / custom set function
  }
  return Status::OK();
}

Result<Value> Executor::FinishAggregate(const Expr& agg,
                                        const AggAccum& acc) const {
  if (agg.name == "count") return Value::Int(acc.count);
  if (agg.name == "sum") {
    if (acc.count == 0) return Value::Null();
    if (acc.any_float) return Value::Float(acc.sum);
    return Value::Int(static_cast<int64_t>(acc.sum));
  }
  if (agg.name == "avg") {
    if (acc.count == 0) return Value::Null();
    return Value::Float(acc.sum / static_cast<double>(acc.count));
  }
  if (agg.name == "min") return acc.has_min ? acc.min_v : Value::Null();
  if (agg.name == "max") return acc.has_min ? acc.max_v : Value::Null();
  const adt::SetFn* fn = ctx_->adts->FindSetFunction(agg.name);
  if (fn != nullptr) return (*fn)(acc.values);
  return Status::NotFound("unknown aggregate '" + agg.name + "'");
}

Result<Value> Executor::EvalAggregate(const Expr& expr, Env* env) {
  // Query-level aggregates were precomputed by ExecRetrieve.
  if (agg_cols_ != nullptr) {
    const std::vector<Value>* col = agg_cols_->Find(&expr);
    if (col != nullptr) return (*col)[agg_cols_->row];
  }

  AggAccum acc;
  if (!expr.bindings.empty()) {
    // Correlated subquery aggregate: sum(K.allowance from K in E.kids
    // where ...). Nested loops over the local ranges.
    std::function<Status(size_t)> loop = [&](size_t i) -> Status {
      if (i == expr.bindings.size()) {
        if (expr.where) {
          EXODUS_ASSIGN_OR_RETURN(Value w, Eval(*expr.where, env));
          EXODUS_ASSIGN_OR_RETURN(bool pass, Truthy(w));
          if (!pass) return Status::OK();
        }
        Value v = Value::Int(1);
        if (!expr.args.empty()) {
          EXODUS_ASSIGN_OR_RETURN(v, Eval(*expr.args[0], env));
        }
        return Accumulate(expr, &acc, v);
      }
      EXODUS_ASSIGN_OR_RETURN(Value coll,
                              EvalRange(*expr.bindings[i].range, env));
      EXODUS_ASSIGN_OR_RETURN(std::vector<Value> elems, ElementsOf(coll));
      for (const Value& e : elems) {
        if (e.is_null()) continue;
        env->stack.emplace_back(expr.bindings[i].var, e);
        Status st = loop(i + 1);
        env->stack.pop_back();
        EXODUS_RETURN_IF_ERROR(st);
      }
      return Status::OK();
    };
    EXODUS_RETURN_IF_ERROR(loop(0));
    return FinishAggregate(expr, acc);
  }

  // Collection aggregate: the argument itself evaluates to a set/array.
  if (expr.args.empty()) {
    return Status::TypeError(
        "aggregate '" + expr.name +
        "' needs an argument, a local range (from V in ...), or query "
        "bindings");
  }
  EXODUS_ASSIGN_OR_RETURN(Value coll, Eval(*expr.args[0], env));
  if (coll.kind() != ValueKind::kSet && coll.kind() != ValueKind::kArray &&
      !coll.is_null()) {
    return Status::TypeError(
        "aggregate '" + expr.name + "' applied to a non-collection value; "
        "did you mean to add 'over' partitions or a 'from' range?");
  }
  EXODUS_ASSIGN_OR_RETURN(std::vector<Value> elems, ElementsOf(coll));
  for (const Value& e : elems) {
    EXODUS_RETURN_IF_ERROR(Accumulate(expr, &acc, e));
  }
  return FinishAggregate(expr, acc);
}

Result<Value> Executor::EvalQuantified(const Expr& expr, Env* env) {
  EXODUS_ASSIGN_OR_RETURN(Value coll,
                          EvalRange(*expr.bindings[0].range, env));
  EXODUS_ASSIGN_OR_RETURN(std::vector<Value> elems, ElementsOf(coll));
  for (const Value& e : elems) {
    env->stack.emplace_back(expr.bindings[0].var, e);
    auto pred = Eval(*expr.args[0], env);
    env->stack.pop_back();
    EXODUS_RETURN_IF_ERROR(pred.status());
    EXODUS_ASSIGN_OR_RETURN(bool pass, Truthy(*pred));
    if (expr.universal && !pass) return Value::Bool(false);
    if (!expr.universal && pass) return Value::Bool(true);
  }
  return Value::Bool(expr.universal);
}

}  // namespace exodus::excess
