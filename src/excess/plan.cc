#include "excess/plan.h"

#include <cstdio>

#include "excess/session_options.h"

namespace exodus::excess {

std::string PlanStep::Describe() const {
  std::string out;
  switch (kind) {
    case Kind::kScan:
      out = "Scan " + named_collection + " as " + var_name;
      break;
    case Kind::kIndexScan:
      out = "IndexScan " + named_collection + " as " + var_name + " using " +
            index_name + " (" + key_op + " " + key->ToString() + ")";
      break;
    case Kind::kUnnest:
      out = "Unnest " + range->ToString() + " as " + var_name;
      break;
    case Kind::kHashJoin: {
      out = "HashJoin " +
            (!named_collection.empty() ? named_collection
                                       : range->ToString()) +
            " as " + var_name + " (";
      for (size_t i = 0; i < build_keys.size(); ++i) {
        if (i > 0) out += " and ";
        out += build_keys[i]->ToString() + " = " + probe_keys[i]->ToString();
      }
      out += ")";
      break;
    }
  }
  for (const ExprPtr& f : filters) {
    out += "\n    filter " + f->ToString();
  }
  return out;
}

namespace {

std::string FormatNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ULL) {
    std::snprintf(buf, sizeof buf, "%.2fs", static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ULL) {
    std::snprintf(buf, sizeof buf, "%.2fms", static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ULL) {
    std::snprintf(buf, sizeof buf, "%.1fus", static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%lluns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

}  // namespace

std::string Plan::Explain(const PlanRuntime* runtime) const {
  const bool annotate = runtime && runtime->steps.size() == steps.size();
  std::string out;
  for (const ExprPtr& f : constant_filters) {
    out += "ConstFilter " + f->ToString() + "\n";
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    std::string desc = steps[i].Describe();
    if (annotate) {
      const StepRuntime& rt = runtime->steps[i];
      std::string ann = " (actual: inv=" + std::to_string(rt.invocations) +
                        " examined=" + std::to_string(rt.rows_examined) +
                        " produced=" + std::to_string(rt.rows_produced);
      if (steps[i].kind == PlanStep::Kind::kHashJoin) {
        ann += " build=" + std::to_string(rt.build_rows) +
               " hits=" + std::to_string(rt.probe_hits);
      }
      // Steps that never received a batch print no batch count.
      if (rt.batches > 0) {
        ann += " batches=" + std::to_string(rt.batches);
      }
      // Only the morsel pipeline records workers; serial runs keep the
      // pre-parallel annotation format byte for byte.
      if (rt.workers > 0) {
        ann += " workers=" + std::to_string(rt.workers);
      }
      ann += " time=" + FormatNs(rt.EstimatedTimeNs()) + ")";
      // Annotate the step's own line, not its trailing filter lines.
      size_t nl = desc.find('\n');
      if (nl == std::string::npos) {
        desc += ann;
      } else {
        desc.insert(nl, ann);
      }
    }
    out += std::string(i * 2, ' ') + desc + "\n";
  }
  if (annotate) {
    out += "Total: " + std::to_string(runtime->rows_out) + " row(s) in " +
           FormatNs(runtime->total_ns);
    if (runtime->morsels > 0) {
      out += " (parallel: morsels=" + std::to_string(runtime->morsels) +
             " workers=" + std::to_string(runtime->parallel_workers) + ")";
    }
    out += "\n";
    if (runtime->has_finish) {
      out += "Finish: " + FormatNs(runtime->finish_ns) + "\n";
    }
    if (runtime->clamped_batch_size > 0) {
      out += "Note: batch_size " + std::to_string(runtime->clamped_batch_size) +
             " clamped to " + std::to_string(SessionOptions::kMaxBatchSize) +
             "\n";
    }
  }
  return out;
}

}  // namespace exodus::excess
