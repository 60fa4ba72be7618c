#ifndef BVQ_DB_ASSIGNMENT_SET_H_
#define BVQ_DB_ASSIGNMENT_SET_H_

#include <cstdint>
#include <vector>

#include "common/bitset.h"
#include "common/index.h"
#include "common/thread_pool.h"
#include "db/relation.h"

namespace bvq {

/// The answer relation of a query (y_1,...,y_a)phi read straight off phi's
/// final cube (Proposition 3.1): the cube projected onto the distinct answer
/// variables, in first-occurrence order, as a bitset over D^d (d <= k). The
/// first distinct variable is the most significant digit of a rank, so rank
/// order is lexicographic in the answer tuple: rows come out sorted and
/// distinct, nothing sorts, and nothing holds one row per cube bit.
/// Repeated answer variables are expanded only when a row is written.
class ProjectedAnswer {
 public:
  /// Columns of a row: the length of the answer list.
  std::size_t arity() const { return columns_.size(); }
  /// Number of answer tuples, by popcount.
  std::size_t Count() const { return bits_.Count(); }
  /// The first `limit` answer tuples in lexicographic order, one FindNext
  /// each; rows past `limit` are never built.
  Relation FirstRows(std::size_t limit) const;
  /// Every answer tuple.
  Relation ToRelation() const { return FirstRows(Count()); }

 private:
  friend class AssignmentSet;

  std::size_t domain_size_ = 0;
  // Row column j holds distinct variable columns_[j] (0 = most significant).
  std::vector<std::size_t> columns_;
  std::size_t num_distinct_ = 0;
  DynamicBitset bits_;
};

/// A set of variable assignments {x_1,...,x_k} -> D, stored as a bitset
/// over D^k.
///
/// This is the paper's central object: in a bounded-variable language every
/// subexpression denotes a relation of arity at most k, hence of size at
/// most n^k (Section 2.2). The bottom-up evaluator of Proposition 3.1
/// computes one AssignmentSet per subformula; the fixpoint evaluators of
/// Section 3.2 iterate on AssignmentSets.
///
/// Assignment ranks follow TupleIndexer: coordinate 0 (variable x_1) is the
/// least significant digit.
class AssignmentSet {
 public:
  /// The empty set of assignments over D^k with |D| = domain_size.
  AssignmentSet(std::size_t domain_size, std::size_t num_vars);

  /// Default: the (single-point) cube over a one-element domain with no
  /// variables. Exists so AssignmentSet can live in standard containers;
  /// assign a real value before use.
  AssignmentSet() : AssignmentSet(1, 0) {}

  /// All of D^k.
  static AssignmentSet Full(std::size_t domain_size, std::size_t num_vars);

  std::size_t domain_size() const { return indexer_.domain_size(); }
  std::size_t num_vars() const { return indexer_.arity(); }
  const TupleIndexer& indexer() const { return indexer_; }

  std::size_t Count() const { return bits_.Count(); }
  bool Empty() const { return bits_.None(); }
  bool IsFull() const { return bits_.Count() == indexer_.NumTuples(); }

  bool Test(std::size_t rank) const { return bits_.Test(rank); }
  void Set(std::size_t rank) { bits_.Set(rank); }
  bool TestAssignment(const std::vector<Value>& assignment) const {
    return bits_.Test(indexer_.Rank(assignment));
  }
  void SetAssignment(const std::vector<Value>& assignment) {
    bits_.Set(indexer_.Rank(assignment));
  }

  /// Boolean connectives (Proposition 3.1: conjunction is intersection,
  /// negation is complement relative to D^k, ...).
  AssignmentSet& AndWith(const AssignmentSet& other);
  AssignmentSet& OrWith(const AssignmentSet& other);
  AssignmentSet& Complement();
  AssignmentSet& SubtractWith(const AssignmentSet& other);

  /// Existential quantification over variable `var` (coordinate index):
  /// the result contains assignment a iff some b agreeing with a outside
  /// `var` is in the set. The quantified coordinate becomes "don't care"
  /// (cylindrified), so the result is still a subset of D^k.
  ///
  /// Every kernel taking a `pool` has one chunked body. A null or
  /// one-lane pool, or a cube under 4,096 bits, runs it as a single chunk
  /// on the caller. Outputs are byte-identical for every pool: chunks
  /// either own disjoint word-aligned spans of the output bitset or fill
  /// private shards OR-ed into it (see DESIGN.md, "Threading model &
  /// determinism").
  AssignmentSet ExistsVar(std::size_t var, ThreadPool* pool = nullptr) const;
  /// Universal quantification over `var` (the dual of ExistsVar).
  AssignmentSet ForAllVar(std::size_t var, ThreadPool* pool = nullptr) const;

  /// The diagonal x_i = x_j.
  static AssignmentSet Equality(std::size_t domain_size, std::size_t num_vars,
                                std::size_t var_i, std::size_t var_j,
                                ThreadPool* pool = nullptr);
  /// The set x_i = constant c.
  static AssignmentSet VarEqualsConst(std::size_t domain_size,
                                      std::size_t num_vars, std::size_t var_i,
                                      Value c);

  /// Lifts an m-ary database relation R applied to variables
  /// (args[0], ..., args[m-1]) into an assignment set:
  /// a is included iff (a[args[0]], ..., a[args[m-1]]) is in R.
  /// Variables may repeat in args.
  static AssignmentSet FromAtom(std::size_t domain_size, std::size_t num_vars,
                                const Relation& relation,
                                const std::vector<std::size_t>& args,
                                ThreadPool* pool = nullptr);

  /// Coordinate substitution: result[a] = this[a'] where a' equals a except
  /// a'[targets[i]] = a[sources[i]] for each i. All reads of `sources` use
  /// the original a. `targets` must be distinct; sources may repeat and may
  /// overlap targets.
  ///
  /// This implements the interpretation of a recursion-variable atom
  /// S(u_1,...,u_m) against the current fixpoint iterate: the iterate is a
  /// cube over all k variables with the relation's arguments living at
  /// coordinates `targets`, and the atom reads it at positions `sources`.
  AssignmentSet Remap(const std::vector<std::size_t>& targets,
                      const std::vector<std::size_t>& sources,
                      ThreadPool* pool = nullptr) const;

  /// Projects onto the variables `vars` (each < k; repeats allowed): the
  /// set of value tuples (a[vars[0]],...,a[vars[m-1]]) over members a. One
  /// pass over the cube in lines of n bits along coordinate 0, OR-ed at
  /// word level wherever the answer drops a coordinate.
  ProjectedAnswer Project(const std::vector<std::size_t>& vars) const;

  /// Project(vars) as a classical relation of arity vars.size().
  Relation ToRelation(const std::vector<std::size_t>& vars) const {
    return Project(vars).ToRelation();
  }

  /// Restricts to assignments whose coordinates `vars` take the values of
  /// some tuple of `relation` *and* requires exactly that: keeps a iff
  /// (a[vars...]) in relation. Equivalent to AndWith(FromAtom(...)).
  AssignmentSet& RestrictToAtom(const Relation& relation,
                                const std::vector<std::size_t>& args);

  bool operator==(const AssignmentSet& other) const {
    return bits_ == other.bits_;
  }
  bool operator!=(const AssignmentSet& other) const {
    return !(*this == other);
  }
  bool IsSubsetOf(const AssignmentSet& other) const {
    return bits_.IsSubsetOf(other.bits_);
  }

  /// Content hash for cycle detection (PFP evaluation, Section 3.4).
  uint64_t Hash() const { return bits_.Hash(); }

  const DynamicBitset& bits() const { return bits_; }
  DynamicBitset& mutable_bits() { return bits_; }

  /// Heap bytes held by the cube's bit storage, for memory accounting.
  std::size_t ByteSize() const { return bits_.ByteSize(); }

 private:
  TupleIndexer indexer_;
  DynamicBitset bits_;
};

}  // namespace bvq

#endif  // BVQ_DB_ASSIGNMENT_SET_H_
