// Update-statement half of the Executor: append / delete / replace /
// assign / execute-procedure, plus l-value resolution and value
// construction with own / ref / own-ref semantics.

#include <algorithm>

#include "excess/concurrency.h"
#include "excess/executor.h"
#include "excess/executor_internal.h"

namespace exodus::excess {

using extra::Attribute;
using extra::Type;
using extra::TypeKind;
using object::Oid;
using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

namespace {

/// The heap-level write transaction of the context's statement txn
/// (null under the exclusive / legacy path: in-place mutation).
inline object::HeapWriteTxn* HeapTxn(ExecContext* ctx) {
  return ctx->txn != nullptr ? &ctx->txn->heap : nullptr;
}

/// The error a snapshot statement returns when it must re-run under the
/// exclusive lock; the session rolls back and retries, so the text is
/// never user-visible.
inline Status EscalateStatus() {
  return Status::ConstraintViolation(
      "statement touches state outside its latched extent (escalating)");
}

/// Object `oid` opened for writing: the statement txn's staged version
/// under a snapshot txn, the object itself in exclusive contexts
/// (GetForWrite without a txn is Get). Null when the object is gone;
/// EscalateStatus() when the write must re-run under the exclusive lock.
Result<object::HeapObject*> WritableObject(ExecContext* ctx, Oid oid) {
  object::HeapObject* obj = ctx->heap->GetForWrite(oid, HeapTxn(ctx));
  if (obj == nullptr && ctx->txn != nullptr &&
      ctx->txn->heap.needs_escalation) {
    return EscalateStatus();
  }
  return obj;
}

}  // namespace

// ---------------------------------------------------------------------------
// Value construction and coercion
// ---------------------------------------------------------------------------

Value Executor::DefaultValue(const Type* type) {
  if (type == nullptr) return Value::Null();
  switch (type->kind()) {
    case TypeKind::kSet:
      return Value::EmptySet();
    case TypeKind::kArray:
      if (type->is_fixed_array()) {
        return Value::MakeArray(
            std::vector<Value>(type->array_size(), Value::Null()));
      }
      return Value::MakeArray({});
    default:
      return Value::Null();
  }
}

Result<Value> Executor::CoerceValue(Value v, const Type* type) const {
  if (type == nullptr) return v;  // dynamic position
  if (v.is_null()) return DefaultValue(type);
  switch (type->kind()) {
    case TypeKind::kInt2:
    case TypeKind::kInt4:
    case TypeKind::kInt8:
      if (v.kind() == ValueKind::kInt) return v;
      if (v.kind() == ValueKind::kFloat &&
          v.AsFloat() == static_cast<double>(
                             static_cast<int64_t>(v.AsFloat()))) {
        return Value::Int(static_cast<int64_t>(v.AsFloat()));
      }
      return Status::TypeError("expected an integer, got " + v.ToString());
    case TypeKind::kFloat4:
    case TypeKind::kFloat8:
      if (v.kind() == ValueKind::kFloat) return v;
      if (v.kind() == ValueKind::kInt) {
        return Value::Float(static_cast<double>(v.AsInt()));
      }
      return Status::TypeError("expected a float, got " + v.ToString());
    case TypeKind::kBool:
      if (v.kind() == ValueKind::kBool) return v;
      return Status::TypeError("expected a boolean, got " + v.ToString());
    case TypeKind::kChar:
      if (v.kind() == ValueKind::kString) {
        if (v.AsString().size() > type->char_length()) {
          return Status::OutOfRange("string " + v.ToString() +
                                    " exceeds char[" +
                                    std::to_string(type->char_length()) + "]");
        }
        return v;
      }
      return Status::TypeError("expected a string, got " + v.ToString());
    case TypeKind::kText:
      if (v.kind() == ValueKind::kString) return v;
      return Status::TypeError("expected a string, got " + v.ToString());
    case TypeKind::kEnum:
      if (v.kind() == ValueKind::kEnum && v.enum_type() == type) return v;
      if (v.kind() == ValueKind::kString) {
        auto ord = type->EnumOrdinal(v.AsString());
        if (ord.ok()) return Value::Enum(type, *ord);
        return ord.status();
      }
      return Status::TypeError("expected a value of enum " + type->name() +
                               ", got " + v.ToString());
    case TypeKind::kAdt:
      if (v.kind() == ValueKind::kAdt && v.adt_id() == type->adt_id()) {
        return v;
      }
      return Status::TypeError("expected a value of ADT " + type->name() +
                               ", got " + v.ToString());
    case TypeKind::kTuple: {
      // Functions declared on a schema type accept both embedded tuples
      // and references to objects of (a subtype of) that type.
      if (v.kind() == ValueKind::kRef) {
        const object::HeapObject* obj = ReadObject(v.AsRef());
        if (obj == nullptr) return Value::Null();
        if (!obj->type->IsSubtypeOf(type)) {
          return Status::TypeError("object of type " + obj->type->name() +
                                   " is not a " + type->name());
        }
        return v;
      }
      if (v.kind() == ValueKind::kTuple) {
        const Type* vt = v.tuple().type;
        if (vt != nullptr && !vt->IsSubtypeOf(type)) {
          return Status::TypeError("tuple of type " + vt->name() +
                                   " is not a " + type->name());
        }
        return v;
      }
      return Status::TypeError("expected a tuple of type " + type->name() +
                               ", got " + v.ToString());
    }
    case TypeKind::kSet: {
      if (v.kind() != ValueKind::kSet) {
        return Status::TypeError("expected a set, got " + v.ToString());
      }
      auto data = std::make_shared<object::SetData>();
      for (const Value& e : v.set().elems) {
        EXODUS_ASSIGN_OR_RETURN(Value ce,
                                CoerceValue(e, type->element_type()));
        object::SetInsert(data.get(), std::move(ce));
      }
      return Value::Set(std::move(data));
    }
    case TypeKind::kArray: {
      if (v.kind() != ValueKind::kArray) {
        return Status::TypeError("expected an array, got " + v.ToString());
      }
      if (type->is_fixed_array() &&
          v.array().elems.size() != type->array_size()) {
        return Status::OutOfRange(
            "fixed array of size " + std::to_string(type->array_size()) +
            " cannot hold " + std::to_string(v.array().elems.size()) +
            " elements");
      }
      auto data = std::make_shared<object::ArrayData>();
      for (const Value& e : v.array().elems) {
        EXODUS_ASSIGN_OR_RETURN(Value ce,
                                CoerceValue(e, type->element_type()));
        data->elems.push_back(std::move(ce));
      }
      return Value::Array(std::move(data));
    }
    case TypeKind::kRef: {
      if (v.kind() != ValueKind::kRef) {
        return Status::TypeError("expected a reference to " +
                                 type->target()->name() + ", got " +
                                 v.ToString());
      }
      const object::HeapObject* obj = ReadObject(v.AsRef());
      if (obj == nullptr) return Value::Null();  // dangling ~ null
      if (!obj->type->IsSubtypeOf(type->target())) {
        return Status::TypeError("object of type " + obj->type->name() +
                                 " is not a " + type->target()->name());
      }
      return v;
    }
  }
  return v;
}

Result<std::vector<Value>> Executor::BuildFields(
    const Type* type, const std::vector<Assignment>& assigns, Env* env) {
  const auto& attrs = type->attributes();
  std::vector<Value> fields;
  fields.reserve(attrs.size());
  for (const Attribute& a : attrs) fields.push_back(DefaultValue(a.type));
  for (const Assignment& assign : assigns) {
    int idx = type->AttributeIndex(assign.attr);
    if (idx < 0) {
      return Status::NotFound("type " + type->name() +
                              " has no attribute '" + assign.attr + "'");
    }
    EXODUS_ASSIGN_OR_RETURN(
        Value v, BuildValue(*assign.value, attrs[idx].type, env));
    fields[static_cast<size_t>(idx)] = std::move(v);
  }
  return fields;
}

Result<Value> Executor::BuildValue(const Expr& expr, const Type* type,
                                   Env* env) {
  if (type == nullptr) {
    EXODUS_ASSIGN_OR_RETURN(Value v, Eval(expr, env));
    return v.DeepCopy();
  }
  switch (type->kind()) {
    case TypeKind::kRef:
      if (expr.kind == ExprKind::kTupleLit) {
        // Constructing a new component object in place.
        const Type* target = type->target();
        std::vector<Assignment> assigns;
        for (const auto& [name, e] : expr.fields) {
          Assignment a;
          a.attr = name;
          a.value = e->Clone();
          assigns.push_back(std::move(a));
        }
        EXODUS_ASSIGN_OR_RETURN(std::vector<Value> fields,
                                BuildFields(target, assigns, env));
        Oid oid = ctx_->heap->Allocate(target, std::move(fields),
                                       HeapTxn(ctx_));
        // Nested own-ref components become owned by the new object.
        const object::HeapObject* obj = ReadObject(oid);
        const auto& attrs = target->attributes();
        for (size_t i = 0; i < attrs.size(); ++i) {
          EXODUS_RETURN_IF_ERROR(
              OwnChildren(attrs[i].type, obj->fields[i], oid));
        }
        return Value::Ref(oid);
      }
      break;
    case TypeKind::kTuple:
      if (expr.kind == ExprKind::kTupleLit) {
        std::vector<Assignment> assigns;
        for (const auto& [name, e] : expr.fields) {
          Assignment a;
          a.attr = name;
          a.value = e->Clone();
          assigns.push_back(std::move(a));
        }
        EXODUS_ASSIGN_OR_RETURN(std::vector<Value> fields,
                                BuildFields(type, assigns, env));
        return Value::MakeTuple(type, std::move(fields));
      }
      break;
    case TypeKind::kSet:
      if (expr.kind == ExprKind::kSetLit) {
        auto data = std::make_shared<object::SetData>();
        for (const ExprPtr& e : expr.args) {
          EXODUS_ASSIGN_OR_RETURN(Value v,
                                  BuildValue(*e, type->element_type(), env));
          object::SetInsert(data.get(), std::move(v));
        }
        return Value::Set(std::move(data));
      }
      break;
    case TypeKind::kArray:
      if (expr.kind == ExprKind::kArrayLit) {
        if (type->is_fixed_array() &&
            expr.args.size() != type->array_size()) {
          return Status::OutOfRange("array literal size does not match [" +
                                    std::to_string(type->array_size()) + "]");
        }
        auto data = std::make_shared<object::ArrayData>();
        for (const ExprPtr& e : expr.args) {
          EXODUS_ASSIGN_OR_RETURN(Value v,
                                  BuildValue(*e, type->element_type(), env));
          data->elems.push_back(std::move(v));
        }
        return Value::Array(std::move(data));
      }
      break;
    default:
      break;
  }
  EXODUS_ASSIGN_OR_RETURN(Value v, Eval(expr, env));
  EXODUS_ASSIGN_OR_RETURN(Value coerced, CoerceValue(std::move(v), type));
  return coerced.DeepCopy();
}

Status Executor::OwnChildren(const Type* type, const Value& value,
                             Oid owner) {
  std::vector<Oid> owned;
  object::ObjectHeap::CollectOwnedRefs(type, value, &owned);
  for (Oid child : owned) {
    const object::HeapObject* obj = ReadObject(child);
    if (obj == nullptr) continue;
    if (obj->owned && obj->owner_object == owner) continue;  // already ours
    EXODUS_RETURN_IF_ERROR(ctx_->heap->SetOwned(child, owner, HeapTxn(ctx_)));
  }
  return Status::OK();
}

Result<Value> Executor::BuildStandalone(const Expr& expr, const Type* type) {
  ParamEnv params;
  Env env;
  env.params = &params;
  return BuildValue(expr, type, &env);
}

// ---------------------------------------------------------------------------
// L-value resolution
// ---------------------------------------------------------------------------

Result<Executor::LValue> Executor::ResolveLValue(const Expr& expr, Env* env) {
  // Decompose the path root-first.
  std::vector<const Expr*> steps;
  const Expr* cur = &expr;
  while (cur->kind == ExprKind::kAttr || cur->kind == ExprKind::kIndex) {
    steps.push_back(cur);
    cur = cur->base.get();
  }
  std::reverse(steps.begin(), steps.end());
  if (cur->kind != ExprKind::kVar) {
    return Status::TypeError("not an assignable path: " + expr.ToString());
  }

  LValue lv;
  Value current;

  const Value* bound = env->Find(cur->name);
  if (bound != nullptr) {
    // Path rooted at a range variable / parameter.
    current = *bound;
    auto it = current_query_->var_ids.find(cur->name);
    if (it != current_query_->var_ids.end()) {
      lv.declared_type = current_query_->VarElemType(it->second);
    } else {
      auto pit = param_types_.find(cur->name);
      if (pit != param_types_.end()) lv.declared_type = pit->second;
    }
    if (current.kind() == ValueKind::kRef) lv.owner = current.AsRef();
    if (steps.empty()) {
      return Status::TypeError("a range variable itself is not assignable");
    }
  } else {
    extra::NamedObject* named = ctx_->catalog->FindNamed(cur->name);
    if (named == nullptr) {
      return Status::NotFound("unknown target '" + cur->name + "'");
    }
    lv.slot = MutableNamedValue(named);
    lv.declared_type = named->type;
    if (named->type != nullptr && named->type->is_set()) {
      lv.extent = cur->name;
    }
    current = *lv.slot;
  }

  for (const Expr* step : steps) {
    // Dereference a reference before navigating into it.
    if (current.kind() == ValueKind::kRef) {
      Oid oid = current.AsRef();
      EXODUS_ASSIGN_OR_RETURN(object::HeapObject * obj,
                              WritableObject(ctx_, oid));
      if (obj == nullptr) {
        return Status::NotFound("path traverses a deleted object");
      }
      lv.owner = oid;
      lv.extent.clear();
      if (step->kind == ExprKind::kAttr) {
        int idx = obj->type->AttributeIndex(step->name);
        if (idx < 0) {
          return Status::NotFound("type " + obj->type->name() +
                                  " has no attribute '" + step->name + "'");
        }
        lv.slot = &obj->fields[static_cast<size_t>(idx)];
        lv.declared_type =
            obj->type->attributes()[static_cast<size_t>(idx)].type;
        current = *lv.slot;
        continue;
      }
      return Status::TypeError("cannot index into an object reference");
    }

    if (step->kind == ExprKind::kAttr) {
      if (current.kind() != ValueKind::kTuple) {
        return Status::TypeError("path selects '." + step->name +
                                 "' from a non-tuple value");
      }
      if (ctx_->txn != nullptr) {
        // Tuple payloads are shared between a staged copy and the committed
        // version; navigating into one would mutate it in place. Re-run the
        // statement under the exclusive lock instead.
        ctx_->txn->heap.needs_escalation = true;
        return EscalateStatus();
      }
      object::TupleData* td = current.mutable_tuple();
      const Type* tt = td->type != nullptr
                           ? td->type
                           : (lv.declared_type != nullptr &&
                                      lv.declared_type->is_tuple()
                                  ? lv.declared_type
                                  : nullptr);
      if (tt == nullptr) {
        return Status::TypeError("cannot navigate an untyped tuple");
      }
      int idx = tt->AttributeIndex(step->name);
      if (idx < 0) {
        return Status::NotFound("type " + tt->name() +
                                " has no attribute '" + step->name + "'");
      }
      lv.slot = &td->fields[static_cast<size_t>(idx)];
      lv.declared_type = tt->attributes()[static_cast<size_t>(idx)].type;
      lv.extent.clear();
      current = *lv.slot;
      continue;
    }

    // Index step.
    if (current.kind() != ValueKind::kArray) {
      return Status::TypeError("cannot index into " + current.ToString());
    }
    EXODUS_ASSIGN_OR_RETURN(Value idx_v, Eval(*step->args[0], env));
    if (idx_v.kind() != ValueKind::kInt) {
      return Status::TypeError("array index must be an integer");
    }
    int64_t i = idx_v.AsInt();
    if (ctx_->txn != nullptr) {
      // Same aliasing hazard as tuple navigation above: array payloads are
      // shared with the committed version.
      ctx_->txn->heap.needs_escalation = true;
      return EscalateStatus();
    }
    object::ArrayData* ad = current.mutable_array();
    if (i < 1 || static_cast<size_t>(i) > ad->elems.size()) {
      return Status::OutOfRange("array index " + std::to_string(i) +
                                " out of bounds (size " +
                                std::to_string(ad->elems.size()) + ")");
    }
    lv.slot = &ad->elems[static_cast<size_t>(i - 1)];
    if (lv.declared_type != nullptr && lv.declared_type->is_array()) {
      lv.declared_type = lv.declared_type->element_type();
    } else {
      lv.declared_type = nullptr;
    }
    lv.extent.clear();
    current = *lv.slot;
  }

  if (lv.slot == nullptr) {
    return Status::TypeError("not an assignable location: " +
                             expr.ToString());
  }
  return lv;
}

// ---------------------------------------------------------------------------
// Binding enumeration
// ---------------------------------------------------------------------------

Status Executor::ForEachBinding(
    const Plan& plan, const BoundQuery& query, Env* env,
    const std::function<Status(const RowBatch&, size_t)>& body) {
  internal::ScopedValue<const BoundQuery*> scope(&current_query_, &query);
  // Enumerate every binding before the first mutation, so an update
  // never observes its own effects.
  EXODUS_ASSIGN_OR_RETURN(RowBatch b, MaterializeRows(plan, query, env));
  std::vector<std::string> names;
  for (const BoundVar& v : query.vars) names.push_back(v.name);
  return ForEachRow(names, b, env, [&](size_t r) { return body(b, r); });
}

// ---------------------------------------------------------------------------
// Append
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecAppend(const Stmt& stmt,
                                         const BoundQuery& query,
                                         const Plan& plan, Env* env) {
  size_t appended = 0;
  EXODUS_RETURN_IF_ERROR(ForEachBinding(
      plan, query, env, [&](const RowBatch&, size_t) -> Status {
        EXODUS_ASSIGN_OR_RETURN(LValue target,
                                ResolveLValue(*stmt.target, env));
        if (!target.extent.empty()) {
          EXODUS_RETURN_IF_ERROR(
              CheckNamedPrivilege(target.extent, auth::Privilege::kAppend));
        }
        const Type* container_type = target.declared_type;
        const Type* elem_type = container_type != nullptr
                                    ? container_type->element_type()
                                    : nullptr;

        Value* container = target.slot;
        bool is_set = container->kind() == ValueKind::kSet;
        bool is_array = container->kind() == ValueKind::kArray;
        if (!is_set && !is_array) {
          return Status::TypeError("append target is not a set or array");
        }
        if (is_array && container_type != nullptr &&
            container_type->is_fixed_array()) {
          return Status::TypeError(
              "cannot append to a fixed-length array; assign to a slot");
        }

        Value element;
        Oid new_oid = object::kInvalidOid;
        if (!stmt.assigns.empty() || stmt.value == nullptr) {
          // Assignment-list form, including the empty `()` all-defaults
          // element.
          const Type* tuple_type = nullptr;
          bool as_object = false;
          if (elem_type != nullptr && elem_type->is_tuple()) {
            tuple_type = elem_type;
          } else if (elem_type != nullptr && elem_type->is_ref() &&
                     elem_type->owned()) {
            tuple_type = elem_type->target();
            as_object = true;
          } else if (elem_type != nullptr && elem_type->is_ref()) {
            return Status::TypeError(
                "cannot construct into a set of plain references; append an "
                "existing reference instead");
          } else {
            return Status::TypeError(
                "cannot construct a tuple element here: element type is not "
                "a tuple");
          }
          EXODUS_ASSIGN_OR_RETURN(std::vector<Value> fields,
                                  BuildFields(tuple_type, stmt.assigns, env));
          if (as_object) {
            if (!target.extent.empty()) {
              EXODUS_RETURN_IF_ERROR(CheckKeyUnique(
                  target.extent,
                  KeyValuesOf(target.extent, tuple_type, fields),
                  object::kInvalidOid));
            }
            new_oid = ctx_->heap->Allocate(tuple_type, std::move(fields),
                                           HeapTxn(ctx_));
            const object::HeapObject* obj = ReadObject(new_oid);
            const auto& attrs = tuple_type->attributes();
            for (size_t i = 0; i < attrs.size(); ++i) {
              EXODUS_RETURN_IF_ERROR(
                  OwnChildren(attrs[i].type, obj->fields[i], new_oid));
            }
            EXODUS_RETURN_IF_ERROR(
                ctx_->heap->SetOwned(new_oid, target.owner, HeapTxn(ctx_)));
            element = Value::Ref(new_oid);
          } else {
            element = Value::MakeTuple(tuple_type, std::move(fields));
            EXODUS_RETURN_IF_ERROR(
                OwnChildren(tuple_type, element, target.owner));
          }
        } else {
          // Value form.
          EXODUS_ASSIGN_OR_RETURN(element,
                                  BuildValue(*stmt.value, elem_type, env));
          if (element.is_null()) return Status::OK();  // appending null: no-op
          if (!target.extent.empty() && element.kind() == ValueKind::kRef) {
            const object::HeapObject* cand = ReadObject(element.AsRef());
            if (cand != nullptr) {
              EXODUS_RETURN_IF_ERROR(CheckKeyUnique(
                  target.extent,
                  KeyValuesOf(target.extent, cand->type, cand->fields),
                  element.AsRef()));
            }
          }
          if (elem_type != nullptr && elem_type->is_ref() &&
              elem_type->owned() && element.kind() == ValueKind::kRef) {
            // Ownership transfer into an own-ref collection. "Already
            // owned by this exact container" requires matching owner
            // object AND extent (two named extents both have owner oid 0).
            const object::HeapObject* obj = ReadObject(element.AsRef());
            if (obj != nullptr) {
              bool same_owner = obj->owned &&
                                obj->owner_object == target.owner &&
                                obj->owner_extent == target.extent;
              if (!same_owner) {
                EXODUS_RETURN_IF_ERROR(ctx_->heap->SetOwned(
                    element.AsRef(), target.owner, HeapTxn(ctx_)));
              }
            }
            new_oid = element.AsRef();
          } else if (elem_type == nullptr || !elem_type->is_ref()) {
            EXODUS_RETURN_IF_ERROR(
                OwnChildren(elem_type, element, target.owner));
          }
          if (element.kind() == ValueKind::kRef) new_oid = element.AsRef();
        }

        bool inserted;
        bool freshly_allocated =
            new_oid != object::kInvalidOid &&
            (!stmt.assigns.empty() ||
             (stmt.value != nullptr &&
              stmt.value->kind == ExprKind::kTupleLit));
        if (is_set) {
          if (freshly_allocated) {
            // A freshly allocated object can never be a duplicate.
            container->mutable_set()->elems.push_back(element);
            inserted = true;
          } else {
            inserted = object::SetInsert(container->mutable_set(), element);
          }
        } else {
          container->mutable_array()->elems.push_back(element);
          inserted = true;
        }
        if (inserted) {
          ++appended;
          // Tag extent membership and maintain indexes on named extents.
          if (!target.extent.empty() && new_oid != object::kInvalidOid) {
            EXODUS_ASSIGN_OR_RETURN(object::HeapObject * obj,
                                    WritableObject(ctx_, new_oid));
            if (obj != nullptr) {
              obj->owner_extent = target.extent;
              for (index::IndexInfo* idx :
                   ctx_->indexes->IndexesOn(target.extent)) {
                int ai = obj->type->AttributeIndex(idx->attr);
                if (ai >= 0) {
                  IndexInsert(target.extent, idx->attr,
                              obj->fields[static_cast<size_t>(ai)], new_oid);
                }
              }
            }
          }
        }
        return Status::OK();
      }));

  QueryResult result;
  result.affected = appended;
  result.message = "appended " + std::to_string(appended) + " element(s)";
  return result;
}

// ---------------------------------------------------------------------------
// Delete
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecDelete(const Stmt& stmt,
                                         const BoundQuery& query,
                                         const Plan& plan, Env* env) {
  auto vit = query.var_ids.find(stmt.update_var);
  if (vit == query.var_ids.end()) {
    return Status::TypeError("'" + stmt.update_var +
                             "' is not a range variable");
  }
  const BoundVar& victim_var = query.vars[static_cast<size_t>(vit->second)];
  if (victim_var.is_root) {
    EXODUS_RETURN_IF_ERROR(CheckNamedPrivilege(victim_var.named_collection,
                                               auth::Privilege::kDelete));
  }

  size_t deleted = 0;
  EXODUS_RETURN_IF_ERROR(ForEachBinding(
      plan, query, env, [&](const RowBatch& b, size_t r) -> Status {
        // Locate the container this binding came from.
        Value* container = nullptr;
        const Type* container_type = nullptr;
        std::string extent;
        if (victim_var.is_root) {
          extra::NamedObject* named =
              ctx_->catalog->FindNamed(victim_var.named_collection);
          if (named == nullptr) return Status::OK();
          container = MutableNamedValue(named);
          container_type = named->type;
          extent = victim_var.named_collection;
        } else {
          auto lv = ResolveLValue(*victim_var.range, env);
          if (!lv.ok()) return Status::OK();  // parent already deleted
          container = lv->slot;
          container_type = lv->declared_type;
        }

        const Value& elem = b.cols[static_cast<size_t>(vit->second)][r];
        const Type* elem_type = container_type != nullptr
                                    ? container_type->element_type()
                                    : nullptr;

        // Remove from the container.
        bool removed = false;
        if (container->kind() == ValueKind::kSet) {
          removed = object::SetErase(container->mutable_set(), elem);
        } else if (container->kind() == ValueKind::kArray) {
          auto& elems = container->mutable_array()->elems;
          for (size_t i = 0; i < elems.size(); ++i) {
            if (object::ValueEquals(elems[i], elem)) {
              if (container_type != nullptr &&
                  container_type->is_fixed_array()) {
                elems[i] = Value::Null();
              } else {
                elems.erase(elems.begin() + static_cast<ptrdiff_t>(i));
              }
              removed = true;
              break;
            }
          }
        }
        if (!removed) return Status::OK();  // already gone
        ++deleted;

        // Index maintenance before destroying the object.
        if (!extent.empty() && elem.kind() == ValueKind::kRef) {
          const object::HeapObject* obj = ReadObject(elem.AsRef());
          if (obj != nullptr) {
            for (index::IndexInfo* idx : ctx_->indexes->IndexesOn(extent)) {
              int ai = obj->type->AttributeIndex(idx->attr);
              if (ai >= 0) {
                IndexErase(extent, idx->attr,
                           obj->fields[static_cast<size_t>(ai)], elem.AsRef());
              }
            }
          }
        }

        // Destroy identity-bearing owned elements (cascade).
        if (elem.kind() == ValueKind::kRef) {
          bool destroy;
          if (elem_type != nullptr && elem_type->is_ref()) {
            destroy = elem_type->owned();
          } else {
            const object::HeapObject* obj = ReadObject(elem.AsRef());
            destroy = obj != nullptr && obj->owned;
          }
          if (destroy) ctx_->heap->Delete(elem.AsRef(), HeapTxn(ctx_));
        }
        return Status::OK();
      }));

  QueryResult result;
  result.affected = deleted;
  result.message = "deleted " + std::to_string(deleted) + " element(s)";
  return result;
}

// ---------------------------------------------------------------------------
// Replace
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecReplace(const Stmt& stmt,
                                          const BoundQuery& query,
                                          const Plan& plan, Env* env) {
  auto vit = query.var_ids.find(stmt.update_var);
  bool param_victim = vit == query.var_ids.end();
  const Value* param_value = nullptr;
  if (param_victim) {
    // `replace E (...)` with E a prebound procedure/function parameter.
    param_value = env->Find(stmt.update_var);
    if (param_value == nullptr) {
      return Status::TypeError("'" + stmt.update_var +
                               "' is not a range variable");
    }
  } else {
    const BoundVar& var = query.vars[static_cast<size_t>(vit->second)];
    if (var.is_root) {
      EXODUS_RETURN_IF_ERROR(CheckNamedPrivilege(var.named_collection,
                                                 auth::Privilege::kReplace));
    }
  }

  size_t replaced = 0;
  EXODUS_RETURN_IF_ERROR(ForEachBinding(
      plan, query, env, [&](const RowBatch& b, size_t r) -> Status {
        const Value& v = param_victim
                             ? *param_value
                             : b.cols[static_cast<size_t>(vit->second)][r];

        const Type* type = nullptr;
        std::vector<Value>* fields = nullptr;
        Oid oid = object::kInvalidOid;
        std::string extent;
        if (v.kind() == ValueKind::kRef) {
          EXODUS_ASSIGN_OR_RETURN(object::HeapObject * obj,
                                  WritableObject(ctx_, v.AsRef()));
          if (obj == nullptr) return Status::OK();  // deleted meanwhile
          type = obj->type;
          fields = &obj->fields;
          oid = v.AsRef();
          extent = obj->owner_extent;
          if (param_victim && !extent.empty()) {
            EXODUS_RETURN_IF_ERROR(
                CheckNamedPrivilege(extent, auth::Privilege::kReplace));
          }
        } else if (v.kind() == ValueKind::kTuple) {
          if (ctx_->txn != nullptr) {
            // The tuple payload is shared with the committed version;
            // replacing fields in place requires the exclusive lock.
            ctx_->txn->heap.needs_escalation = true;
            return EscalateStatus();
          }
          object::TupleData* td =
              const_cast<Value&>(v).mutable_tuple();
          type = td->type;
          fields = &td->fields;
        } else {
          return Status::TypeError(
              "replace requires an object or tuple element");
        }
        if (type == nullptr) {
          return Status::TypeError("cannot replace an untyped tuple");
        }

        for (const Assignment& assign : stmt.assigns) {
          int idx = type->AttributeIndex(assign.attr);
          if (idx < 0) {
            return Status::NotFound("type " + type->name() +
                                    " has no attribute '" + assign.attr + "'");
          }
          const Type* attr_type =
              type->attributes()[static_cast<size_t>(idx)].type;
          EXODUS_ASSIGN_OR_RETURN(Value nv,
                                  BuildValue(*assign.value, attr_type, env));

          Value& slot = (*fields)[static_cast<size_t>(idx)];

          // Key enforcement: a key attribute may not collide with another
          // member's key after the update.
          if (!extent.empty()) {
            const extra::NamedObject* named_ext =
                ctx_->catalog->FindNamed(extent);
            if (named_ext != nullptr &&
                std::find(named_ext->key_attrs.begin(),
                          named_ext->key_attrs.end(),
                          assign.attr) != named_ext->key_attrs.end()) {
              std::vector<Value> key = KeyValuesOf(extent, type, *fields);
              for (size_t ki = 0; ki < named_ext->key_attrs.size(); ++ki) {
                if (named_ext->key_attrs[ki] == assign.attr) key[ki] = nv;
              }
              EXODUS_RETURN_IF_ERROR(CheckKeyUnique(extent, key, oid));
            }
          }

          // Index maintenance on the extent the object belongs to.
          if (!extent.empty() && oid != object::kInvalidOid) {
            IndexErase(extent, assign.attr, slot, oid);
          }

          // Own-ref attribute replacement destroys the old component and
          // takes ownership of the new one (composite-object semantics).
          if (attr_type != nullptr && attr_type->is_ref() &&
              attr_type->owned()) {
            if (slot.kind() == ValueKind::kRef &&
                (nv.kind() != ValueKind::kRef || nv.AsRef() != slot.AsRef())) {
              ctx_->heap->Delete(slot.AsRef(), HeapTxn(ctx_));
            }
            if (nv.kind() == ValueKind::kRef) {
              const object::HeapObject* child = ReadObject(nv.AsRef());
              if (child != nullptr &&
                  !(child->owned && child->owner_object == oid)) {
                EXODUS_RETURN_IF_ERROR(
                    ctx_->heap->SetOwned(nv.AsRef(), oid, HeapTxn(ctx_)));
              }
            }
          } else if (attr_type != nullptr && !attr_type->is_ref()) {
            EXODUS_RETURN_IF_ERROR(OwnChildren(attr_type, nv, oid));
          }

          slot = std::move(nv);
          if (!extent.empty() && oid != object::kInvalidOid) {
            IndexInsert(extent, assign.attr, slot, oid);
          }
        }
        ++replaced;
        return Status::OK();
      }));

  QueryResult result;
  result.affected = replaced;
  result.message = "replaced " + std::to_string(replaced) + " element(s)";
  return result;
}

// ---------------------------------------------------------------------------
// Assign
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecAssign(const Stmt& stmt,
                                         const BoundQuery& query,
                                         const Plan& plan, Env* env) {
  size_t assigned = 0;
  EXODUS_RETURN_IF_ERROR(ForEachBinding(
      plan, query, env, [&](const RowBatch&, size_t) -> Status {
        EXODUS_ASSIGN_OR_RETURN(LValue lv, ResolveLValue(*stmt.target, env));
        if (!lv.extent.empty()) {
          // Replacing an entire extent would orphan its owned members and
          // stale its indexes; mutate extents with append/delete instead.
          return Status::TypeError(
              "cannot assign an entire extent; use append/delete");
        }
        EXODUS_ASSIGN_OR_RETURN(Value nv,
                                BuildValue(*stmt.value, lv.declared_type, env));
        if (lv.declared_type != nullptr && lv.declared_type->is_ref() &&
            lv.declared_type->owned()) {
          if (lv.slot->kind() == ValueKind::kRef &&
              (nv.kind() != ValueKind::kRef ||
               nv.AsRef() != lv.slot->AsRef())) {
            ctx_->heap->Delete(lv.slot->AsRef());
          }
          if (nv.kind() == ValueKind::kRef) {
            const object::HeapObject* child = ctx_->heap->Get(nv.AsRef());
            if (child != nullptr && !(child->owned &&
                                      child->owner_object == lv.owner)) {
              EXODUS_RETURN_IF_ERROR(
                  ctx_->heap->SetOwned(nv.AsRef(), lv.owner));
            }
          }
        } else if (lv.declared_type != nullptr && !lv.declared_type->is_ref()) {
          EXODUS_RETURN_IF_ERROR(OwnChildren(lv.declared_type, nv, lv.owner));
        }
        *lv.slot = std::move(nv);
        ++assigned;
        return Status::OK();
      }));

  QueryResult result;
  result.affected = assigned;
  result.message = "assigned " + std::to_string(assigned) + " value(s)";
  return result;
}

// ---------------------------------------------------------------------------
// Procedures
// ---------------------------------------------------------------------------

Result<QueryResult> Executor::ExecProcedureCall(const Stmt& stmt,
                                                const BoundQuery& query,
                                                const Plan& plan, Env* env) {
  EXODUS_ASSIGN_OR_RETURN(const ProcedureDef* def,
                          ctx_->functions->FindProcedure(stmt.name));
  if (!ctx_->auth->Check(ctx_->current_user, def->name,
                         auth::Privilege::kExecute, def->definer)) {
    return Status::PermissionDenied("user '" + ctx_->current_user +
                                    "' may not execute procedure '" +
                                    def->name + "'");
  }
  if (stmt.call_args.size() != def->params.size()) {
    return Status::TypeError("procedure '" + def->name + "' expects " +
                             std::to_string(def->params.size()) +
                             " argument(s)");
  }
  if (ctx_->call_depth >= internal::kMaxCallDepth) {
    return Status::OutOfRange("procedure call depth limit exceeded in '" +
                              def->name + "'");
  }

  // A procedure with constant arguments executes exactly once; with a
  // where-clause it executes for all bindings (paper §4.2.2).
  size_t invocations = 0;
  size_t total_affected = 0;
  EXODUS_RETURN_IF_ERROR(ForEachBinding(
      plan, query, env, [&](const RowBatch&, size_t) -> Status {
        ParamEnv params;
        for (size_t i = 0; i < def->params.size(); ++i) {
          EXODUS_ASSIGN_OR_RETURN(Value av, Eval(*stmt.call_args[i], env));
          EXODUS_ASSIGN_OR_RETURN(
              Value coerced, CoerceValue(std::move(av), def->params[i].second));
          params.values[def->params[i].first] = std::move(coerced);
          params.types[def->params[i].first] = def->params[i].second;
        }
        internal::ScopedUser scoped(
            ctx_, def->definer.empty() ? ctx_->current_user : def->definer);
        ++ctx_->call_depth;
        Status st = Status::OK();
        for (const StmtPtr& body_stmt : def->body) {
          Executor inner(ctx_);
          auto r = inner.Execute(*body_stmt, params);
          if (!r.ok()) {
            st = r.status();
            break;
          }
          total_affected += r->affected;
        }
        --ctx_->call_depth;
        if (st.ok()) ++invocations;
        return st;
      }));

  QueryResult result;
  result.affected = total_affected;
  result.message = "executed '" + stmt.name + "' for " +
                   std::to_string(invocations) + " binding(s); " +
                   std::to_string(total_affected) + " element(s) affected";
  return result;
}

}  // namespace exodus::excess
