#ifndef BVQ_EVAL_BOUNDED_EVAL_H_
#define BVQ_EVAL_BOUNDED_EVAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/resource.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "db/assignment_set.h"
#include "db/database.h"
#include "eval/answer_cache.h"
#include "logic/analysis.h"
#include "logic/formula.h"

namespace bvq {

/// How nested fixpoints are iterated.
enum class FixpointStrategy {
  /// Recompute every inner fixpoint from scratch on each iteration of its
  /// enclosing fixpoint. With alternation depth l this performs up to
  /// n^{kl} body evaluations — the exponential behaviour Section 3.2 of the
  /// paper starts from.
  kNaiveNested,
  /// Warm-start an inner fixpoint from its previous value across iterations
  /// of enclosing fixpoints of the *same* polarity, resetting only when an
  /// enclosing fixpoint of the opposite polarity advances (the footnote-5
  /// optimization; an Emerson–Lei-style scheme). Monotone (alternation-free)
  /// nestings then need only l*n^k body evaluations.
  kMonotoneReuse,
};

/// How PFP limit/cycle detection is performed (Section 3.4).
enum class PfpCycleDetection {
  /// Remember a hash of every stage seen; O(#stages) space, each stage
  /// visited once.
  kHashHistory,
  /// Floyd tortoise-and-hare; O(1) extra space per parameter block (the
  /// polynomial-space regime Theorem 3.8 is about) at the cost of a
  /// constant-factor more stage evaluations.
  kFloyd,
};

/// Counters exposed for the benchmark harness.
struct EvalStats {
  /// Number of fixpoint body evaluations (the paper's "iterations").
  std::size_t fixpoint_iterations = 0;
  /// Number of AssignmentSet-producing node evaluations (memo hits
  /// included; subtract memo_hits for the number of real computations).
  std::size_t node_evals = 0;
  /// Number of warm starts taken by kMonotoneReuse.
  std::size_t warm_starts = 0;
  /// Cells/tuples swept by the atom, quantifier, and fixpoint kernels:
  /// database rows scanned by atom lifts plus assignment-set cells touched
  /// by quantifier sweeps and fixpoint stages.
  std::size_t tuples_scanned = 0;
  /// Kernel dispatches that actually fanned out to the thread pool.
  std::size_t parallel_loops = 0;
  /// Chunks executed across those dispatches.
  std::size_t parallel_chunks = 0;
  /// Chunks that migrated to a pool worker instead of the submitting
  /// thread.
  std::size_t chunks_stolen = 0;
  /// Subtree evaluations answered from the dependency-aware memo table
  /// (the whole subtree was skipped).
  std::size_t memo_hits = 0;
  /// Subtree evaluations that missed the memo and ran for real.
  std::size_t memo_misses = 0;
  /// Memo hits taken while at least one fixpoint or second-order
  /// enumeration loop was live: work that the seed evaluator performed
  /// once per iteration and the memo layer hoisted out of the loop.
  std::size_t invariant_hoists = 0;
  /// Fixpoint-iterate installs into the environment that shared the cube
  /// instead of deep-copying the full n^k bitset (one per iteration of
  /// every fixpoint loop; the seed copied each time).
  std::size_t iterate_copies_avoided = 0;
  /// Subtree evaluations answered from the cross-query AnswerCache (the
  /// whole subtree was skipped without ever having run in this call).
  /// memo_hits + cache_hits + memo_misses = memoized node lookups.
  std::size_t cache_hits = 0;
  /// Cross-query cache probes (database-only subtrees with the cache
  /// installed) that found no entry and fell through to a real evaluation.
  std::size_t cache_misses = 0;
  /// LRU/budget evictions the session cache performed during this call
  /// (inserts from concurrent queries of the same session count too — the
  /// cache is shared state).
  std::size_t cache_evictions = 0;
  /// Resident bytes of the session cache after this call's export.
  std::size_t cache_bytes = 0;

  void Reset() { *this = EvalStats(); }
};

/// Options for BoundedEvaluator.
struct BoundedEvalOptions {
  FixpointStrategy fixpoint_strategy = FixpointStrategy::kNaiveNested;
  PfpCycleDetection pfp_cycle_detection = PfpCycleDetection::kHashHistory;
  /// Upper bound on n^k (bits per AssignmentSet); evaluation fails with
  /// ResourceExhausted beyond it.
  std::size_t max_cube_bits = std::size_t{1} << 30;
  /// Upper bound on 2^{n^m} enumeration for second-order quantifiers; the
  /// ESO evaluator (SAT-based) should be used beyond toy sizes.
  std::size_t max_so_enumeration_bits = 22;
  /// Worker lanes for the data-parallel kernels. 0 = auto
  /// (ThreadPool::DefaultThreads(), i.e. hardware concurrency unless
  /// BVQ_THREADS overrides it); 1 = every kernel runs as one chunk on the
  /// calling thread, and the pool starts no thread. Outputs are
  /// byte-identical for every value (see DESIGN.md, "Threading model &
  /// determinism").
  std::size_t num_threads = 0;
  /// Dependency-aware subformula memoization (DESIGN.md, "Memoization &
  /// invariant hoisting"): every subtree result is cached keyed on its
  /// structural class and the versions of the relation-variable bindings
  /// it depends on, so loop-invariant subtrees of fixpoint bodies are
  /// evaluated once instead of once per iteration. Answers are
  /// byte-identical either way; `false` is the ablation kill switch
  /// (bench_memo_ablation) and restores the seed evaluation strategy.
  bool memo = true;
  /// Optional cross-query answer cache (not owned; must outlive the
  /// evaluator's public calls). When set — and cross_query_cache is true —
  /// Evaluate* builds its FormulaIndex on the cache's shared
  /// FormulaInterner, probes the cache for every memoized subtree whose
  /// free relation variables are all database-resolved, and exports the
  /// surviving database-only memo entries back into the cache on clean
  /// success (never after a governor trip: partial kernel output must not
  /// poison cross-query state). Piggybacks on the memo layer: with
  /// `memo = false` the cache is inert. See DESIGN.md §11.
  AnswerCache* answer_cache = nullptr;
  /// Kill switch for the cross-query cache: `false` ignores answer_cache
  /// entirely and restores the per-query evaluation of PR 2 (the ablation
  /// arm of bench_cache_warm; answers are byte-identical either way).
  bool cross_query_cache = true;
  /// Optional resource governor (not owned; must outlive the evaluator's
  /// public calls). When set, Eval polls its token per subformula node and
  /// charges every long-lived cube (memo entries, fixpoint iterates, PFP
  /// hash history) against its memory account; a tripped deadline/budget
  /// surfaces as DeadlineExceeded/ResourceExhausted from Evaluate*. Charges
  /// are scoped to the public call: everything is released on return.
  ResourceGovernor* governor = nullptr;
};

/// Interpretation of a relation variable during evaluation: the current
/// iterate (or chosen witness) encoded as a cube over all k variables, with
/// the relation's m arguments living at coordinates `coords`. An atom
/// S(u_1..u_m) evaluates to cube.Remap(coords <- u).
///
/// The cube is held by shared, copy-on-write-style immutable storage so a
/// fixpoint loop can install its current iterate into the environment
/// without duplicating the full n^k bitset each round. `version` is a
/// nonce assigned by the evaluator: every distinct binding event gets a
/// fresh value, which is what the memo layer keys invalidation on (0 is
/// reserved for "resolved by the database").
struct RelVarBinding {
  RelVarBinding() = default;
  RelVarBinding(AssignmentSet cube_value, std::vector<std::size_t> coords_in)
      : cube_ptr(std::make_shared<const AssignmentSet>(std::move(cube_value))),
        coords(std::move(coords_in)) {}
  RelVarBinding(std::shared_ptr<const AssignmentSet> shared,
                std::vector<std::size_t> coords_in, uint64_t version_in = 0)
      : cube_ptr(std::move(shared)),
        coords(std::move(coords_in)),
        version(version_in) {}

  const AssignmentSet& cube() const { return *cube_ptr; }

  std::shared_ptr<const AssignmentSet> cube_ptr;
  std::vector<std::size_t> coords;
  uint64_t version = 0;
};

/// Bottom-up evaluator for bounded-variable queries: FO^k per
/// Proposition 3.1, FP^k per Section 3.2, PFP^k per Section 3.4.
///
/// Every subformula is evaluated to an AssignmentSet over D^k (a k-ary
/// relation, hence of size at most n^k): conjunction is bitset
/// intersection, negation is complement, quantification is projection with
/// cylindrification. Fixpoint subformulas iterate on AssignmentSets.
///
/// Second-order quantifiers are supported only by (guarded) enumeration;
/// use EsoEvaluator for real ESO^k workloads.
class BoundedEvaluator {
 public:
  /// Evaluates over database `db` using `num_vars` variables (the k of
  /// L^k); formulas may use variable indices < num_vars.
  BoundedEvaluator(const Database& db, std::size_t num_vars,
                   BoundedEvalOptions options = {});

  /// The set of assignments D^k satisfying `formula`.
  Result<AssignmentSet> Evaluate(const FormulaPtr& formula);

  /// Evaluates with initial relation-variable bindings (used by the
  /// certificate checker and tests).
  Result<AssignmentSet> EvaluateWithEnv(
      const FormulaPtr& formula,
      const std::map<std::string, RelVarBinding>& env);

  /// Evaluates a query (y̅)phi to the |y̅|-ary answer relation.
  Result<Relation> EvaluateQuery(const Query& query);

  const EvalStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  std::size_t num_vars() const { return num_vars_; }
  const Database& database() const { return *db_; }

  /// The pool backing the kernels; never null (one lane at num_threads 1).
  ThreadPool* thread_pool() const { return pool_.get(); }

  /// Installs (or clears) the resource governor after construction; see
  /// BoundedEvalOptions::governor.
  void set_governor(ResourceGovernor* governor) {
    options_.governor = governor;
  }

 private:
  // Internal environment: one slot per interned predicate id of the
  // formula being evaluated (FormulaIndex), so binding lookups, installs,
  // and restores are O(1) vector indexing instead of string-map searches.
  using Env = std::vector<std::optional<RelVarBinding>>;

  Result<AssignmentSet> Eval(const FormulaPtr& f, Env& env);
  Result<AssignmentSet> EvalUncached(const FormulaPtr& f,
                                     const FormulaIndex::NodeFacts& facts,
                                     Env& env);
  // lfp, gfp and ifp under either FixpointStrategy: one loop, in which the
  // strategy decides only the footnote-5 warm start and warm-cache store.
  Result<AssignmentSet> EvalFixpoint(const FixpointFormula& fp,
                                     std::size_t pred, Env& env);
  Result<AssignmentSet> EvalPartialFixpoint(const FixpointFormula& fp,
                                            std::size_t pred, Env& env);
  Result<AssignmentSet> EvalSecondOrder(const SoExistsFormula& so,
                                        std::size_t pred, Env& env);
  // One stage of a fixpoint loop: installs iterate `x` as `pred`'s binding,
  // counts the stage and evaluates the body under it.
  Result<AssignmentSet> Stage(const FixpointFormula& fp, std::size_t pred,
                              const std::shared_ptr<const AssignmentSet>& x,
                              Env& env);
  // Guard of one loop's binding, loop depth and charges (bounded_eval.cc).
  class LoopScope;

  // Installs `cube` as the binding of `pred` with a fresh version nonce.
  void Bind(Env& env, std::size_t pred,
            std::shared_ptr<const AssignmentSet> cube,
            const std::vector<std::size_t>& coords);

  // Cross-query cache plumbing (DESIGN.md §11).
  bool CacheActive() const {
    return options_.answer_cache != nullptr && options_.cross_query_cache &&
           options_.memo;
  }
  // Builds the cross-query key for class `cls` from the current database's
  // relation versions. False when the class is not keyable (some free
  // rel-var is not a database relation).
  bool BuildCacheKey(std::size_t cls, AnswerCache::Key* key) const;
  // Inserts every database-only memo entry of the finished call into the
  // session cache. Only called on clean success.
  void ExportMemoToCache();

  // Governor accounting. Charges accumulate in charged_bytes_ and are
  // released in bulk when the public call returns, so per-site Release
  // calls are an optimization (tighter live accounting), not a correctness
  // requirement. All are no-ops when no governor is installed.
  Status ChargeBytes(std::size_t bytes);
  void ReleaseBytes(std::size_t bytes);
  Status ChargeCube(const AssignmentSet& cube) {
    return ChargeBytes(options_.governor ? cube.ByteSize() : 0);
  }
  void ReleaseCube(const AssignmentSet& cube) {
    ReleaseBytes(options_.governor ? cube.ByteSize() : 0);
  }
  // Poll the token; OK when no governor is installed.
  Status GovCheck() {
    return options_.governor ? options_.governor->Check() : Status::OK();
  }

  const Database* db_;
  std::size_t num_vars_;
  BoundedEvalOptions options_;
  EvalStats stats_;
  // Owned pool for the kernels, joined in the destructor.
  std::unique_ptr<ThreadPool> pool_;

  // Structural interning + dependency sets of the formula currently being
  // evaluated; rebuilt per public Evaluate call.
  std::unique_ptr<FormulaIndex> index_;

  // Version nonce source for Bind (0 is reserved for database-resolved
  // names, so the counter pre-increments from 0).
  uint64_t next_version_ = 0;

  // Net bytes charged to the governor during the current public call;
  // released in bulk on return (success or error). Only touched from the
  // orchestrating thread — never from pool workers.
  std::size_t charged_bytes_ = 0;

  // Number of live fixpoint-iteration / second-order-enumeration loops on
  // the evaluation stack; memo hits taken while it is positive are counted
  // as invariant_hoists.
  std::size_t loop_depth_ = 0;

  // Dependency-aware memo table, indexed by structural class
  // (FormulaIndex): an entry answers a subtree evaluation for free while
  // the versions of the class's free relation variables are unchanged.
  struct MemoEntry {
    bool valid = false;
    std::vector<uint64_t> versions;
    AssignmentSet value;
  };
  std::vector<MemoEntry> memo_;

  // kMonotoneReuse state: cached last iterate per fixpoint node, valid only
  // while no enclosing opposite-polarity fixpoint has advanced (tracked via
  // per-polarity epochs; index 0 = least, 1 = greatest).
  struct CacheEntry {
    AssignmentSet value;
    uint64_t epoch;
  };
  std::map<const FixpointFormula*, CacheEntry> warm_cache_;
  uint64_t epoch_[2] = {0, 0};

  // Database atoms and equality diagonals are invariant during one
  // evaluation but re-requested on every fixpoint iteration. With the memo
  // layer on they ride in memo_; this table serves the memo-off path,
  // keyed by {pred_id, args...} / {kEqualityKey, i, j}. Cleared per public
  // Evaluate call.
  struct IdKeyHash {
    std::size_t operator()(const std::vector<std::size_t>& key) const;
  };
  static constexpr std::size_t kEqualityKey = static_cast<std::size_t>(-2);
  std::unordered_map<std::vector<std::size_t>, AssignmentSet, IdKeyHash>
      atom_cache_;
};

}  // namespace bvq

#endif  // BVQ_EVAL_BOUNDED_EVAL_H_
