#ifndef EXODUS_EXCESS_OPTIMIZER_H_
#define EXODUS_EXCESS_OPTIMIZER_H_

#include <string>
#include <vector>

#include "excess/binder.h"
#include "excess/plan.h"
#include "excess/session_options.h"
#include "extra/catalog.h"
#include "index/index_manager.h"
#include "util/result.h"

namespace exodus::excess {

/// Rule-driven plan construction, this reproduction's stand-in for an
/// optimizer built with the EXODUS optimizer generator [Grae87]. Its
/// ablation switches (predicate_pushdown / join_reordering / use_indexes
/// / hash_join, all on by default — EXPERIMENTS.md B11) live in
/// SessionOptions:
///
///  - predicate pushdown: each where-conjunct is attached to the earliest
///    loop level at which all of its variables are bound;
///  - greedy join ordering over the variable dependency DAG, preferring
///    index-equality accesses, then nested unnests, then smaller extents;
///  - access-path selection through the tabular access-method
///    applicability catalog (paper §4.1.2), so dynamically added ADTs
///    participate via table rows rather than code changes.
class Optimizer {
 public:
  Optimizer(extra::Catalog* catalog, index::IndexManager* indexes,
            const Binder* binder, SessionOptions options = {});

  /// Builds an executable plan for the bound query.
  util::Result<Plan> Optimize(const BoundQuery& query) const;

 private:
  /// Estimated cardinality of a variable's range (extent size for roots,
  /// a fixed guess for unnests).
  double EstimateCardinality(const BoundVar& var) const;

  /// If `conjunct` has the shape `v.attr OP key` (or reversed) with
  /// `key` free of `v`, returns true and fills the out-params.
  bool MatchIndexablePredicate(const Expr& conjunct, const BoundQuery& query,
                               int var_id, std::string* attr, std::string* op,
                               const Expr** key) const;

  extra::Catalog* catalog_;
  index::IndexManager* indexes_;
  const Binder* binder_;
  SessionOptions options_;
};

}  // namespace exodus::excess

#endif  // EXODUS_EXCESS_OPTIMIZER_H_
