#ifndef BVQ_LOGIC_ANALYSIS_H_
#define BVQ_LOGIC_ANALYSIS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "db/database.h"
#include "logic/formula.h"

namespace bvq {

/// Nesting limit for formulas read from text. ParseFormula and ParseQuery
/// reject a formula whose tree height (edges on the longest root-to-leaf
/// path) or parser nesting (`!`, quantifiers, `->`, parentheses, fixpoint
/// brackets) exceeds it, with a ParseError naming the depth and the limit.
/// Every recursive pass over a parsed formula (NNF, interning, Eval, the
/// canonical codec) then stays well inside an 8 MiB stack, sanitized builds
/// included.
inline constexpr std::size_t kMaxFormulaDepth = 512;

/// Free first-order variables of `formula` (indices).
std::set<std::size_t> FreeVars(const FormulaPtr& formula);

/// The number of distinct individual variables the formula mentions (bound
/// or free), as max index + 1. A formula is in L^k iff NumVariables <= k —
/// the paper's bounded-variable restriction (Section 2.2).
std::size_t NumVariables(const FormulaPtr& formula);

/// Free relation variables (predicate names not bound by an enclosing
/// fixpoint or second-order quantifier) together with their arity as used.
/// These must be supplied by the database (or an environment) at evaluation
/// time. Returns an error if a name is used with two different arities.
Result<std::map<std::string, std::size_t>> FreePredicates(
    const FormulaPtr& formula);

/// Whether every occurrence of `rel_var` in `formula` is positive (under an
/// even number of negations, counting the left side of -> as one negation
/// and both sides of <-> as unknown polarity). Occurrences under <-> make
/// this return false. Required for lfp/gfp bodies (Section 2.2).
bool OccursOnlyPositively(const FormulaPtr& formula,
                          const std::string& rel_var);

/// Which of the paper's four languages a formula falls in.
struct LanguageClass {
  bool first_order = true;   // FO: no fixpoints, no second-order
  bool fixpoint = true;      // FP: lfp/gfp only (positivity satisfied)
  bool partial_fixpoint = true;  // PFP: pfp/lfp/gfp, no second-order
  bool eso = true;           // ESO: SO-exists prefix over an FO matrix
};
LanguageClass ClassifyLanguage(const FormulaPtr& formula);

/// Alternation depth of least/greatest fixpoints: the length l of the
/// longest chain of *dependent* nested fixpoints with alternating signs.
/// Drives the naive evaluator's n^{kl} iteration bound and Theorem 3.5's
/// l*n^k certificate size. A formula without fixpoints has depth 0; a
/// single lfp (or any non-alternating monotone nesting) has depth 1.
std::size_t AlternationDepth(const FormulaPtr& formula);

/// Verifies a formula against a database: every free predicate resolves to
/// a database relation with matching arity; fixpoint binders use distinct
/// bound variables with matching argument counts; lfp/gfp bodies use their
/// recursion variable only positively; all variable indices are < num_vars.
Status CheckWellFormed(const FormulaPtr& formula, const Database& db,
                       std::size_t num_vars);

/// A long-lived hash-consing arena for formula structural classes and
/// predicate ids, shareable across many FormulaIndex builds (and across
/// threads). Interning the formulas of a whole session into one interner
/// makes class ids *stable across queries*: two syntactically identical
/// subtrees of two different queries get the same class id, which is the
/// identity the cross-query answer cache keys on (DESIGN.md §11). A
/// FormulaIndex built without an explicit interner owns a private one, so
/// single-query callers see the old per-root behaviour unchanged.
///
/// Thread safety: interning is serialized by an internal mutex (held for
/// the whole of one index build, so ids are assigned atomically per
/// formula). Interned entries live in deques and are never mutated after
/// insertion, so references handed out under the mutex stay valid — and
/// safely readable without it — for the interner's lifetime.
class FormulaInterner {
 public:
  FormulaInterner() = default;
  FormulaInterner(const FormulaInterner&) = delete;
  FormulaInterner& operator=(const FormulaInterner&) = delete;

  /// Totals interned so far (momentary under concurrent interning).
  std::size_t num_preds() const;
  std::size_t num_classes() const;

  /// Portable canonical form of class `cls`: a self-delimiting binary
  /// encoding of the subtree's exact shape with predicate *names* inlined
  /// (interned ids are process-local and would be meaningless elsewhere).
  /// Any interner produces the identical byte string for syntactically
  /// identical subtrees, which is what lets answer-cache snapshots carry
  /// formula identity across processes and restarts (DESIGN.md §13).
  /// Memoized per class; returns "" for an out-of-range class id.
  std::string CanonicalFormOf(std::size_t cls);

  /// Decodes a canonical form produced by CanonicalFormOf (typically by
  /// another process), interning every node of the subtree into this arena
  /// exactly as a FormulaIndex build of the same formula would — so a later
  /// query with that shape dedups onto the same class id. On success stores
  /// the root's class id in *cls and returns true; returns false on
  /// malformed or truncated input (strict: bounds-checked reads, capped
  /// counts and recursion depth, whole input must be consumed).
  bool InternCanonical(std::string_view canon, std::size_t* cls);

  /// Names of the free relation variables of `cls`, sorted by interned id
  /// (matching FormulaIndex::FreeRelVars order). Empty for out-of-range ids.
  std::vector<std::string> FreePredNames(std::size_t cls) const;

 private:
  friend class FormulaIndex;

  struct KeyHash {
    std::size_t operator()(const std::vector<uint64_t>& key) const;
  };

  // The *Locked helpers require mutex_ to be held by the caller (they are
  // shared between FormulaIndex builds, which hold the lock across a whole
  // build, and the canonical-form codec).
  std::size_t InternPredLocked(const std::string& name);
  std::size_t InternClassLocked(std::vector<uint64_t> key,
                                std::vector<std::size_t> free_preds);
  void EncodeClassLocked(std::size_t cls, std::string* out);
  bool DecodeClassLocked(std::string_view canon, std::size_t* pos,
                         std::size_t depth, std::size_t* cls);

  // All fields below are guarded by mutex_. Deques, not vectors: growth
  // must not move existing elements, because FormulaIndex snapshots hold
  // pointers into them.
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::size_t> pred_ids_;
  std::deque<std::string> pred_names_;
  std::unordered_map<std::vector<uint64_t>, std::size_t, KeyHash> classes_;
  // Distinct free-predicate lists, one node each (set nodes never move);
  // classes point into it, since far fewer lists than classes occur.
  std::set<std::vector<std::size_t>> free_pred_lists_;
  std::deque<const std::vector<std::size_t>*> class_free_preds_;
  std::deque<uint64_t> class_hashes_;
  // Per-class pointer back to the exact key (the map node's key storage is
  // stable under rehash), for the canonical-form encoder.
  std::deque<const std::vector<uint64_t>*> class_keys_;
  // Lazy memo of the canonical forms encoded so far, by class id.
  std::unordered_map<std::size_t, std::string> class_canons_;
  std::unordered_map<std::string, std::size_t> canon_to_class_;
};

/// Structural interning plus relation-variable dependency analysis of a
/// formula DAG, built once per root and then queried per node during
/// evaluation.
///
/// Every node is assigned a *class* id from the interner: two nodes get the
/// same class iff their subtrees are syntactically identical (exact
/// hash-consing on the node shape and child classes, not just a hash — no
/// collision can merge distinct subtrees). Class ids are interner-wide, so
/// they are what cache keys, snapshots and the batch planner use.
///
/// Each of the root's own classes also gets a dense per-query *slot* in
/// [0, num_slots()), numbered in first-visit order, and each predicate name
/// it mentions — database relation, fixpoint recursion variable or
/// second-order witness alike — a dense per-query id in [0, num_preds()).
/// Per-query tables (the evaluator's memo and environment) are indexed by
/// these, so they cost what the query has, not what the interner has seen.
/// With a private interner, slots and class ids coincide.
///
/// Per slot the index records the class id, its structural hash and its
/// *free relation variables*: the predicates used in the subtree that are
/// not bound by a fixpoint or second-order quantifier inside it. A
/// subformula's value is a function of the database and of exactly those
/// bindings, which is what makes the pair (class, versions of its free
/// rel-vars) a sound memoization key for the bounded evaluator
/// (Proposition 3.1's "never recompute at the same arity", extended across
/// fixpoint iterations).
///
/// The constructor holds the interner's lock for the build and snapshots
/// only the root's own slots and names, so every accessor below is
/// lock-free afterwards.
class FormulaIndex {
 public:
  /// Sentinel for "node has no resolving predicate" / "name not interned".
  static constexpr std::size_t kNoPred = static_cast<std::size_t>(-1);

  /// What the evaluator needs per node visit: the structural class, its
  /// per-query slot and, for atoms / fixpoints / second-order binders, the
  /// per-query id of the name they resolve or bind (kNoPred otherwise).
  struct NodeFacts {
    std::size_t cls = 0;
    std::size_t slot = 0;
    std::size_t pred = kNoPred;
  };

  /// Builds the index for `root`. With a null `interner` the index owns a
  /// private arena; otherwise it interns into the shared arena, which must
  /// outlive the index.
  explicit FormulaIndex(const FormulaPtr& root,
                        FormulaInterner* interner = nullptr);

  /// Facts for a node of the indexed formula. The node must belong to it.
  const NodeFacts& Facts(const Formula* node) const;

  /// Per-query id of `name`, or kNoPred if the formula does not mention it.
  std::size_t PredId(const std::string& name) const;
  const std::string& PredName(std::size_t pred) const {
    return *pred_names_[pred];
  }
  std::size_t num_preds() const { return pred_names_.size(); }
  std::size_t num_slots() const { return slots_.size(); }

  /// Interner-wide class id of `slot`.
  std::size_t ClassOf(std::size_t slot) const { return slots_[slot].cls; }

  /// Per-query ids of the free relation variables of `slot`, in ascending
  /// interner-wide id: the order AnswerCache keys list their versions in.
  const std::vector<std::size_t>& FreeRelVars(std::size_t slot) const {
    return slots_[slot].free_preds;
  }

  /// FNV-1a hash of the slot's structural shape. Within one interner,
  /// equal hashes are overwhelmingly likely to mean equal classes, but the
  /// class id — not this hash — is the collision-free identity.
  uint64_t StructuralHash(std::size_t slot) const {
    return slots_[slot].hash;
  }

 private:
  struct Slot {
    std::size_t cls;
    uint64_t hash;
    std::vector<std::size_t> free_preds;
  };

  // Interns `name`, stores its per-query id (numbered on first sight) in
  // *local, and returns its interner-wide id.
  std::size_t InternPred(const std::string& name, std::size_t* local);
  NodeFacts Visit(const FormulaPtr& f);
  // Interns the class and fills in facts->cls and facts->slot.
  void InternClass(std::vector<uint64_t> key,
                   std::vector<std::size_t> free_preds, NodeFacts* facts);

  std::unique_ptr<FormulaInterner> owned_;  // set iff no shared interner
  FormulaInterner* interner_;               // the arena Visit interns into
  std::unordered_map<const Formula*, NodeFacts> facts_;
  std::unordered_map<std::size_t, std::size_t> slot_of_class_;
  std::vector<Slot> slots_;
  std::unordered_map<std::size_t, std::size_t> local_pred_;  // by global id
  std::unordered_map<std::string, std::size_t> pred_ids_;
  std::vector<const std::string*> pred_names_;
};

}  // namespace bvq

#endif  // BVQ_LOGIC_ANALYSIS_H_
