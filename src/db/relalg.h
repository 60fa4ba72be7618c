#ifndef BVQ_DB_RELALG_H_
#define BVQ_DB_RELALG_H_

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"
#include "db/relation.h"

namespace bvq {

/// A relation whose columns are labeled by first-order variable indices.
///
/// This is the intermediate-result representation of the *naive* (classical,
/// unbounded) query evaluator: a subformula with free variables
/// {x_{i_1} < ... < x_{i_m}} is evaluated to an m-ary relation over those
/// columns. Because m can grow linearly with the query length, these
/// intermediates can be exponentially large in the query — the blow-up
/// identified by Cosmadakis [Cos83] and eliminated by the bounded-variable
/// restriction that this library is about.
struct VarRelation {
  std::vector<std::size_t> vars;  // sorted, distinct variable indices
  Relation rel;                   // arity == vars.size()

  bool operator==(const VarRelation& other) const {
    return vars == other.vars && rel == other.rel;
  }
};

/// Natural join on the shared variables; output columns are the sorted
/// union of both variable sets.
VarRelation Join(const VarRelation& a, const VarRelation& b);

/// Semijoin: tuples of `a` that join with at least one tuple of `b`.
VarRelation Semijoin(const VarRelation& a, const VarRelation& b);

/// Antijoin: tuples of `a` that join with no tuple of `b` (the negated
/// body literals of stratified Datalog).
VarRelation Antijoin(const VarRelation& a, const VarRelation& b);

/// Extends `a` with the missing variables of `vars` (cross product with the
/// domain for each — this is where naive evaluation pays its exponential
/// price) and reorders columns to `vars`. `vars` must be a sorted superset
/// of a.vars. Fails with ResourceExhausted when the domain^free_columns
/// blow-up overflows the size type (the product previously wrapped
/// silently).
Result<VarRelation> ExtendTo(const VarRelation& a,
                             const std::vector<std::size_t>& vars,
                             std::size_t domain_size);

/// Union after extending both sides to the union of their variable sets.
Result<VarRelation> Union(const VarRelation& a, const VarRelation& b,
                          std::size_t domain_size);

/// Complement of `a` within D^{|vars|}. Fails with ResourceExhausted when
/// domain_size^arity overflows the size type.
Result<VarRelation> Complement(const VarRelation& a, std::size_t domain_size);

/// Existential quantification: drops the column of `var` (projection) and
/// deduplicates. If `var` is absent the input is returned unchanged.
VarRelation ProjectOut(const VarRelation& a, std::size_t var);

/// The relation for an atom R(x_{args[0]}, ..., x_{args[m-1]}): selects the
/// rows of `rel` consistent with repeated variables and projects onto the
/// sorted distinct variables. An arity-0 atom yields an empty-vars
/// VarRelation whose rel is the proposition.
VarRelation FromAtom(const Relation& rel,
                     const std::vector<std::size_t>& args);

/// The diagonal x_i = x_j (or all of D over {x_i} when i == j).
VarRelation EqualityRelation(std::size_t var_i, std::size_t var_j,
                             std::size_t domain_size);

/// Projection of a VarRelation onto an arbitrary target variable tuple
/// (possibly with repeats, possibly with variables absent from `a`, which
/// are crossed with the domain). Used to produce the final query answer
/// (y̅)phi. Propagates ExtendTo's overflow failure.
Result<Relation> AnswerTuple(const VarRelation& a,
                             const std::vector<std::size_t>& target_vars,
                             std::size_t domain_size);

}  // namespace bvq

#endif  // BVQ_DB_RELALG_H_
