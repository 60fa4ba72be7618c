#ifndef BVQ_DB_RELATION_H_
#define BVQ_DB_RELATION_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/status.h"

namespace bvq {

/// A value of the (finite, dense) domain D = {0, ..., n-1}.
using Value = uint32_t;

/// A tuple over the domain. The arity is implied by context.
using Tuple = std::vector<Value>;

/// A finite relation of fixed arity over domain {0..n-1}: a sorted,
/// deduplicated set of tuples stored flat (row-major).
///
/// This is the *general-arity* representation used by the database substrate
/// and by the naive (unbounded) evaluator whose intermediate relations can
/// have arity linear in the query length — the blow-up the paper's
/// bounded-variable restriction eliminates. The bounded-variable evaluators
/// use `AssignmentSet` instead.
///
/// Arity 0 is allowed and encodes a proposition: the empty relation is
/// "false", the relation containing the single empty tuple is "true".
class Relation {
 public:
  /// Empty relation of the given arity.
  explicit Relation(std::size_t arity = 0) : arity_(arity), size_(0) {}

  /// Builds a relation from tuples (copied, sorted, deduplicated).
  /// All tuples must have length `arity`.
  static Relation FromTuples(std::size_t arity,
                             const std::vector<Tuple>& tuples);
  static Relation FromTuples(std::size_t arity,
                             std::initializer_list<Tuple> tuples);

  /// The full relation D^arity for domain size n. Guards against absurd
  /// sizes with an error.
  static Result<Relation> Full(std::size_t arity, std::size_t domain_size);

  /// The arity-0 relation encoding a truth value.
  static Relation Proposition(bool value);

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return size_; }

  /// Heap bytes held by the row storage, for memory accounting.
  std::size_t ByteSize() const { return data_.size() * sizeof(Value); }
  bool empty() const { return size_ == 0; }

  /// Pointer to the i-th tuple (arity() consecutive values).
  const Value* tuple(std::size_t i) const { return data_.data() + i * arity_; }
  /// Copy of the i-th tuple.
  Tuple TupleAt(std::size_t i) const {
    return Tuple(tuple(i), tuple(i) + arity_);
  }

  /// Membership test (binary search).
  bool Contains(const Value* t) const;
  bool Contains(const Tuple& t) const {
    return t.size() == arity_ && Contains(t.data());
  }

  /// Inserts a tuple, keeping the sorted/dedup invariant. Returns true if
  /// the tuple was new. O(size) worst case; prefer FromTuples for bulk.
  bool Insert(const Tuple& t);

  /// As a proposition: true iff nonempty (meaningful mainly for arity 0).
  bool AsBool() const { return size_ > 0; }

  /// Content-stable 64-bit fingerprint of (arity, tuple set): equal for
  /// relations with the same arity and tuples regardless of insertion order,
  /// process, or build path. Unlike the database's per-process version
  /// nonces, fingerprints are meaningful across restarts, which is what lets
  /// exported answer-cache entries be re-keyed portably (DESIGN.md §13).
  /// Maintained incrementally (a commutative sum of per-tuple hashes), so
  /// reading it is O(1).
  std::uint64_t fingerprint() const;

  /// Largest value appearing in any tuple plus one (0 if empty). Useful to
  /// infer a minimal domain size.
  std::size_t MinDomainSize() const;

  bool operator==(const Relation& other) const {
    return arity_ == other.arity_ && data_ == other.data_;
  }
  bool operator!=(const Relation& other) const { return !(*this == other); }

  /// "{(0,1),(1,2)}" rendering, for debugging and golden tests.
  std::string ToString() const;

  /// Iteration support: visits each tuple as a const Value*.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < size_; ++i) fn(tuple(i));
  }

 private:
  friend class RelationBuilder;

  std::size_t arity_;
  std::size_t size_;
  std::vector<Value> data_;  // size_ * arity_ values, row-major, sorted rows
  std::uint64_t fp_sum_ = 0;  // commutative sum of per-tuple hashes
};

/// Incremental builder that defers the sort/dedup to Build(); use for bulk
/// construction (generators, joins).
class RelationBuilder {
 public:
  explicit RelationBuilder(std::size_t arity) : arity_(arity) {}

  void Add(const Value* t) {
    // An arity-0 row has no values, and `t` may be null.
    if (arity_ > 0) {
      const std::size_t old = data_.size();
      data_.resize(old + arity_);
      std::copy_n(t, arity_, data_.data() + old);
    }
    ++num_rows_;
  }
  void Add(const Tuple& t) {
    assert(t.size() == arity_);
    Add(t.data());
  }

  /// Appends `num_rows` rows stored flat (num_rows * arity() values). Used
  /// by the parallel kernels to concatenate per-chunk row buffers in stable
  /// chunk order before the canonicalizing Build().
  void AddFlat(const Value* data, std::size_t num_rows) {
    data_.insert(data_.end(), data, data + num_rows * arity_);
    num_rows_ += num_rows;
  }

  std::size_t arity() const { return arity_; }

  /// Sorts rows lexicographically, removes duplicates, and returns the
  /// finished relation. The builder is left empty.
  Relation Build();

  /// Build() for rows added in strictly increasing lexicographic order
  /// (asserted in debug builds): takes the rows as they are, with no sort
  /// and no copy.
  Relation BuildSorted();

 private:
  std::size_t arity_;
  std::size_t num_rows_ = 0;
  std::vector<Value> data_;
};

}  // namespace bvq

#endif  // BVQ_DB_RELATION_H_
