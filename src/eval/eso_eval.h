#ifndef BVQ_EVAL_ESO_EVAL_H_
#define BVQ_EVAL_ESO_EVAL_H_

#include <map>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "db/assignment_set.h"
#include "db/database.h"
#include "logic/formula.h"
#include "sat/solver.h"

namespace bvq {

/// Lemma 3.6 as an executable transformation: rewrites an ESO^k formula so
/// that every second-order quantified relation has arity at most k.
///
/// For each quantified relation S and each distinct argument pattern u̅
/// with which S occurs, a k-ary view relation S__<pattern> is introduced;
/// the atom S(u̅) becomes S__<pattern>(x1,...,xk), and consistency
/// assertions are added for every pair of patterns p, q and every pair of
/// k-tuples of variables w̅, v̅ whose composed argument sequences w̅∘p and
/// v̅∘q coincide syntactically (a constant number for fixed k, quadratic in
/// the formula overall).
///
/// The result is equivalent to the input on every database with at least
/// one element. Only formulas of the shape "SO-exists prefix over an FO
/// matrix" are accepted.
Result<FormulaPtr> EsoArityReduce(const FormulaPtr& formula,
                                  std::size_t num_vars);

/// A witness for the second-order quantifiers of a satisfied ESO query:
/// one relation per quantified variable (an SO variable the grounding never
/// references is reported as an empty relation of its declared arity).
/// Cells never referenced by the grounding are reported false.
using EsoWitness = std::map<std::string, Relation>;

struct EsoEvalOptions {
  sat::SolverOptions solver;
  /// Cap on the number of grounded circuit nodes.
  std::size_t max_ground_nodes = std::size_t{1} << 26;
  /// Evaluate(): ground the formula once for all n^k candidate tuples and
  /// decide each tuple by an assumption-based re-solve on one incremental
  /// solver that keeps its learnt clauses across the sweep. Off = the
  /// per-tuple scratch path (fresh grounding + fresh solver per tuple),
  /// kept as the ablation baseline; answers are byte-identical either way.
  bool incremental = true;
  /// Optional resource governor (not owned; must outlive the evaluator's
  /// public calls). Checked per grounding rank and inside every SAT call
  /// (propagated into solver.governor when that is unset); the grounded
  /// CNF, the solver clause database, and the answer cube charge against
  /// its memory account. Trips surface as DeadlineExceeded /
  /// ResourceExhausted with partial stats retained.
  ResourceGovernor* governor = nullptr;
};

struct EsoEvalStats {
  /// Largest grounded CNF seen (the only one, on the incremental path).
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  std::size_t so_cells = 0;  // propositional variables for SO relation cells
  /// SAT queries issued: 1 for Holds, n^k for an Evaluate sweep.
  std::size_t sat_calls = 0;
  /// Full groundings performed: 1 on the incremental path, n^k scratch.
  std::size_t groundings = 0;
  /// Solver counters, summed over every SAT call of the last operation.
  sat::SolverStats solver;
};

/// Evaluator for ESO^k queries (Corollary 3.7): grounds the query to a
/// polynomially sized CNF and decides it with the CDCL solver.
///
/// The grounding exploits exactly the observation behind Lemma 3.6: an
/// atom S(u̅) in a k-variable formula can only ever refer to value tuples
/// (a[u_1],...,a[u_l]) for assignments a in D^k, so at most |phi| * n^k
/// cells of each quantified relation matter; one propositional variable is
/// created per *referenced* cell. Subformula groundings are memoized per
/// (node, assignment), so total circuit size is O(|phi| * n^k).
///
/// Evaluate() additionally collapses the redundancy across the n^k
/// candidate answers: the memoized grounding is built once for the whole
/// sweep (closed subformulas are shared across tuples outright), each
/// tuple's root literal acts as its selector, and a single incremental
/// solver decides every tuple under the one-literal assumption {root},
/// reusing the learnt-clause database from tuple to tuple.
///
/// Supported fragment: first-order connectives/quantifiers plus
/// second-order existentials in positive positions. Fixpoints are not
/// supported (that is FP^k's business).
class EsoEvaluator {
 public:
  EsoEvaluator(const Database& db, std::size_t num_vars,
               EsoEvalOptions options = {});

  /// Truth of `formula` under `assignment` (one SAT call). If `witness` is
  /// non-null and the result is true, the second-order witness relations
  /// are stored there.
  Result<bool> Holds(const FormulaPtr& formula,
                     const std::vector<Value>& assignment,
                     EsoWitness* witness = nullptr);

  /// Truth of a sentence (all variables quantified or irrelevant):
  /// evaluates under the all-zero assignment.
  Result<bool> HoldsSentence(const FormulaPtr& formula,
                             EsoWitness* witness = nullptr) {
    return Holds(formula, std::vector<Value>(num_vars_, 0), witness);
  }

  /// Full answer set over D^k. One grounding plus n^k assumption-based
  /// re-solves by default (options.incremental); one full scratch solve
  /// per assignment with the kill switch off.
  Result<AssignmentSet> Evaluate(const FormulaPtr& formula);

  const EsoEvalStats& stats() const { return stats_; }

  /// Installs (or clears) the resource governor after construction; see
  /// EsoEvalOptions::governor.
  void set_governor(ResourceGovernor* governor) {
    options_.governor = governor;
  }

 private:
  /// options_.solver with the evaluator-level governor propagated into the
  /// solver (unless the caller already set one there).
  sat::SolverOptions SolverOptionsWithGovernor() const;
  /// One scratch SAT call for the assignment with rank `rank`; stats for
  /// that call are written to `stats`.
  Result<bool> HoldsRank(const FormulaPtr& formula, std::size_t rank,
                         EsoWitness* witness, EsoEvalStats* stats) const;

  Result<AssignmentSet> EvaluateIncremental(const FormulaPtr& formula);
  Result<AssignmentSet> EvaluateScratch(const FormulaPtr& formula);

  const Database* db_;
  std::size_t num_vars_;
  EsoEvalOptions options_;
  EsoEvalStats stats_;
};

}  // namespace bvq

#endif  // BVQ_EVAL_ESO_EVAL_H_
