#ifndef BVQ_EVAL_NAIVE_EVAL_H_
#define BVQ_EVAL_NAIVE_EVAL_H_

#include "common/resource.h"
#include "common/status.h"
#include "db/database.h"
#include "db/relalg.h"
#include "logic/formula.h"

namespace bvq {

/// Size statistics of a naive evaluation, for demonstrating the
/// intermediate-result blow-up the paper attributes to unbounded queries
/// ([Cos83], Section 1).
struct NaiveEvalStats {
  /// Largest arity of any intermediate relation. For a chain query with v
  /// distinct variables this reaches v; the bounded-variable rewriting
  /// caps it at k.
  std::size_t max_intermediate_arity = 0;
  /// Largest tuple count of any intermediate relation.
  std::size_t max_intermediate_tuples = 0;
  /// Sum of tuple counts over all intermediates (total materialized work).
  std::size_t total_intermediate_tuples = 0;

  void Reset() { *this = NaiveEvalStats(); }
};

/// The classical textbook evaluator for first-order queries: each
/// subformula is evaluated to a relation over exactly its free variables,
/// with conjunction as natural join, disjunction/negation padding out to
/// the full variable set, and quantification as projection.
///
/// Because the arity of the intermediates grows with the number of distinct
/// variables, the running time is exponential in the query length in the
/// worst case (the PSPACE-hardness side of Table 1). This evaluator exists
/// to make that baseline measurable next to the bounded-variable evaluator
/// of Proposition 3.1.
///
/// Only first-order formulas are supported; fixpoints and second-order
/// quantifiers return Unsupported.
class NaiveEvaluator {
 public:
  /// `max_tuples` caps the size of any intermediate relation so benchmarks
  /// can probe the blow-up without exhausting memory.
  explicit NaiveEvaluator(const Database& db,
                          std::size_t max_tuples = std::size_t{1} << 26);

  /// Evaluates a formula to a relation over its sorted free variables.
  Result<VarRelation> Evaluate(const FormulaPtr& formula);

  /// Evaluates a query (y̅)phi to its answer relation.
  Result<Relation> EvaluateQuery(const Query& query);

  /// Optional resource governor (not owned): the token is polled per
  /// subformula node and every materialized intermediate relation is
  /// counted against the memory account (as a transient: the naive
  /// evaluator's intermediates die as the recursion unwinds).
  void set_governor(ResourceGovernor* governor) { governor_ = governor; }

  const NaiveEvalStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

 private:
  Result<VarRelation> Eval(const FormulaPtr& f);
  Status Record(const VarRelation& r);

  const Database* db_;
  std::size_t max_tuples_;
  ResourceGovernor* governor_ = nullptr;
  NaiveEvalStats stats_;
};

}  // namespace bvq

#endif  // BVQ_EVAL_NAIVE_EVAL_H_
