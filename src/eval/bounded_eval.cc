#include "eval/bounded_eval.h"

#include <unordered_set>

#include "common/index.h"
#include "common/strings.h"
#include "logic/analysis.h"

namespace bvq {

namespace {

// Enumerates the parameter blocks of a partial-fixpoint computation: a
// block is one valuation of the coordinates *not* bound by the fixpoint.
// Blocks evolve independently (the recursion-variable Remap never crosses
// them), so limit/cycle detection must be per block (Section 3.4 semantics
// with parameters).
class BlockLayout {
 public:
  BlockLayout(const TupleIndexer& idx, const std::vector<std::size_t>& bound)
      : n_(idx.domain_size()) {
    std::vector<bool> is_bound(idx.arity(), false);
    for (std::size_t v : bound) is_bound[v] = true;
    num_blocks_ = 1;
    slice_size_ = 1;
    for (std::size_t j = 0; j < idx.arity(); ++j) {
      if (is_bound[j]) {
        bound_strides_.push_back(idx.Stride(j));
        slice_size_ *= n_;
      } else {
        param_strides_.push_back(idx.Stride(j));
        num_blocks_ *= n_;
      }
    }
  }

  std::size_t num_blocks() const { return num_blocks_; }

  // FNV hash of a block's slice of `set`.
  uint64_t SliceHash(const AssignmentSet& set, std::size_t block) const {
    uint64_t h = 1469598103934665603ull;
    uint64_t word = 0;
    int nbits = 0;
    RadixWalker w = SliceWalker(block);
    for (std::size_t s = 0; s < slice_size_; ++s, w.Next()) {
      word = (word << 1) | (set.Test(w.value()) ? 1 : 0);
      if (++nbits == 64) {
        h ^= word;
        h *= 1099511628211ull;
        word = 0;
        nbits = 0;
      }
    }
    if (nbits > 0) {
      h ^= word;
      h *= 1099511628211ull;
    }
    return h;
  }

  bool SlicesEqual(const AssignmentSet& a, const AssignmentSet& b,
                   std::size_t block) const {
    RadixWalker w = SliceWalker(block);
    for (std::size_t s = 0; s < slice_size_; ++s, w.Next()) {
      if (a.Test(w.value()) != b.Test(w.value())) return false;
    }
    return true;
  }

  void CopySlice(const AssignmentSet& from, AssignmentSet& to,
                 std::size_t block) const {
    RadixWalker w = SliceWalker(block);
    for (std::size_t s = 0; s < slice_size_; ++s, w.Next()) {
      to.mutable_bits().Assign(w.value(), from.Test(w.value()));
    }
  }

 private:
  // Visits the global ranks of `block`'s slice positions in order: one
  // div/mod chain for the block's base rank, then a stride walk over the
  // bound coordinates.
  RadixWalker SliceWalker(std::size_t block) const {
    std::size_t base = 0;
    for (std::size_t stride : param_strides_) {
      base += (block % n_) * stride;
      block /= n_;
    }
    RadixWalker w(n_, bound_strides_);
    w.Seek(0, base);
    return w;
  }

  std::size_t n_;
  std::vector<std::size_t> bound_strides_;
  std::vector<std::size_t> param_strides_;
  std::size_t num_blocks_;
  std::size_t slice_size_;
};

}  // namespace

std::size_t BoundedEvaluator::IdKeyHash::operator()(
    const std::vector<std::size_t>& key) const {
  uint64_t h = 1469598103934665603ull;
  for (std::size_t v : key) {
    h ^= static_cast<uint64_t>(v);
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

BoundedEvaluator::BoundedEvaluator(const Database& db, std::size_t num_vars,
                                   BoundedEvalOptions options)
    : db_(&db), num_vars_(num_vars), options_(options) {
  pool_ = std::make_unique<ThreadPool>(options_.num_threads);
}

Result<AssignmentSet> BoundedEvaluator::Evaluate(const FormulaPtr& formula) {
  std::map<std::string, RelVarBinding> env;
  return EvaluateWithEnv(formula, env);
}

Result<AssignmentSet> BoundedEvaluator::EvaluateWithEnv(
    const FormulaPtr& formula, const std::map<std::string, RelVarBinding>& env) {
  if (TupleIndexer::Exceeds(db_->domain_size(), num_vars_,
                            options_.max_cube_bits)) {
    return Status::ResourceExhausted(
        StrCat("n^k = ", db_->domain_size(), "^", num_vars_,
               " exceeds the assignment-set size limit"));
  }
  // With a session cache installed, intern into its long-lived arena so
  // this formula's class ids line up with the cached keys; num_classes()
  // then counts every class the session has seen, so memo_ below accepts
  // any id the index can hand out.
  index_ = std::make_unique<FormulaIndex>(
      formula, CacheActive() ? options_.answer_cache->interner() : nullptr);
  warm_cache_.clear();
  atom_cache_.clear();
  memo_.assign(index_->num_classes(), MemoEntry{});
  epoch_[0] = epoch_[1] = 0;
  next_version_ = 0;
  loop_depth_ = 0;
  charged_bytes_ = 0;
  if (options_.governor != nullptr) {
    // Predicted bound for the stats report: one n^k cube per structural
    // class the memo can retain, plus a few live iterates. Saturates on
    // overflow (the Exceeds guard above already bounds the cube itself).
    const std::size_t cube_bytes =
        (TupleIndexer(db_->domain_size(), num_vars_).NumTuples() + 63) / 64 *
        sizeof(uint64_t);
    std::size_t predicted = 0;
    if (!CheckedMul(cube_bytes, index_->num_classes() + 4, &predicted)) {
      predicted = static_cast<std::size_t>(-1);
    }
    options_.governor->set_predicted_bytes(predicted);
  }
  pool_->set_cancel_token(
      options_.governor ? options_.governor->stop_flag() : nullptr);
  Env working(index_->num_preds());
  for (const auto& [name, binding] : env) {
    const std::size_t pred = index_->PredId(name);
    // Bindings for names the formula never mentions cannot influence the
    // answer; drop them rather than widen the slot vector.
    if (pred == FormulaIndex::kNoPred) continue;
    working[pred] =
        RelVarBinding(binding.cube_ptr, binding.coords, ++next_version_);
  }
  const ThreadPoolStats before = pool_->stats();
  std::uint64_t cache_evictions_before = 0;
  if (CacheActive()) {
    cache_evictions_before = options_.answer_cache->stats().evictions;
  }
  auto result = Eval(formula, working);
  const ThreadPoolStats after = pool_->stats();
  stats_.parallel_loops += after.parallel_loops - before.parallel_loops;
  stats_.parallel_chunks += after.chunks - before.chunks;
  stats_.chunks_stolen += after.chunks_stolen - before.chunks_stolen;
  if (options_.governor != nullptr) {
    // Charges are scoped to this call; the memo/warm caches they covered
    // are cleared on the next call anyway.
    options_.governor->Release(charged_bytes_);
    charged_bytes_ = 0;
    if (result.ok() && options_.governor->stopped()) {
      // The trip flag is sticky and pool workers skip chunks once it is
      // set, so a nominally complete result that overlapped a trip may
      // hold partial kernel output. Fail it; the caller re-runs without
      // the governor (or with a fresh one) for a trustworthy answer.
      return options_.governor->status();
    }
  }
  if (CacheActive()) {
    // Export only after the trip check above: a governed call that tripped
    // has already returned, so nothing downstream of partial kernel output
    // can reach the session cache. Residency is charged to the *cache's*
    // governor (the session account), not this query's — the bulk release
    // above has already settled the per-query books.
    if (result.ok()) ExportMemoToCache();
    const AnswerCacheStats cache_stats = options_.answer_cache->stats();
    stats_.cache_bytes = cache_stats.bytes;
    stats_.cache_evictions += static_cast<std::size_t>(
        cache_stats.evictions - cache_evictions_before);
  }
  return result;
}

bool BoundedEvaluator::BuildCacheKey(std::size_t cls,
                                     AnswerCache::Key* key) const {
  const std::vector<std::size_t>& deps = index_->FreeRelVars(cls);
  key->cls = cls;
  key->domain_size = db_->domain_size();
  key->num_vars = num_vars_;
  key->versions.clear();
  key->versions.reserve(deps.size());
  for (std::size_t pred : deps) {
    const std::uint64_t version = db_->relation_version(index_->PredName(pred));
    if (version == 0) return false;  // not a database relation
    key->versions.push_back(version);
  }
  return true;
}

void BoundedEvaluator::ExportMemoToCache() {
  for (std::size_t cls = 0; cls < memo_.size(); ++cls) {
    const MemoEntry& slot = memo_[cls];
    if (!slot.valid) continue;
    // Only database-only entries survive across queries: an all-zero
    // signature says every free rel-var was unbound in the environment,
    // i.e. resolved by the database, whose versions the key captures.
    bool db_only = true;
    for (std::uint64_t v : slot.versions) db_only &= (v == 0);
    if (!db_only) continue;
    AnswerCache::Key key;
    if (!BuildCacheKey(cls, &key)) continue;
    options_.answer_cache->Insert(key, slot.value);
  }
}

Result<Relation> BoundedEvaluator::EvaluateQuery(const Query& query) {
  auto set = Evaluate(query.formula);
  if (!set.ok()) return set.status();
  for (std::size_t v : query.answer_vars) {
    if (v >= num_vars_) {
      return Status::TypeError(
          StrCat("answer variable x", v + 1, " out of range for k = ",
                 num_vars_));
    }
  }
  return set->ToRelation(query.answer_vars);
}

void BoundedEvaluator::Bind(Env& env, std::size_t pred,
                            std::shared_ptr<const AssignmentSet> cube,
                            const std::vector<std::size_t>& coords) {
  env[pred] = RelVarBinding(std::move(cube), coords, ++next_version_);
}

Status BoundedEvaluator::ChargeBytes(std::size_t bytes) {
  if (options_.governor == nullptr || bytes == 0) return Status::OK();
  charged_bytes_ += bytes;
  return options_.governor->Charge(bytes);
}

void BoundedEvaluator::ReleaseBytes(std::size_t bytes) {
  if (options_.governor == nullptr || bytes == 0) return;
  options_.governor->Release(bytes);
  charged_bytes_ -= bytes;
}

Result<AssignmentSet> BoundedEvaluator::Eval(const FormulaPtr& f, Env& env) {
  ++stats_.node_evals;
  // The per-node poll is the evaluator's cancellation grain: cheap next to
  // any cube kernel, frequent enough to bound deadline overshoot by one
  // node evaluation.
  BVQ_RETURN_IF_ERROR(GovCheck());
  const FormulaIndex::NodeFacts& facts = index_->Facts(f.get());
  // Constants are cheaper to rebuild than to look up; everything else is
  // answerable from the memo while the versions of the bindings it reads
  // are unchanged. In particular a subtree that mentions no recursion
  // variable of a live fixpoint keeps a constant signature across the
  // fixpoint's iterations and is evaluated exactly once (the invariant
  // hoist this layer exists for).
  if (!options_.memo || f->kind() == FormulaKind::kTrue ||
      f->kind() == FormulaKind::kFalse) {
    return EvalUncached(f, facts, env);
  }
  MemoEntry& slot = memo_[facts.cls];
  const std::vector<std::size_t>& deps = index_->FreeRelVars(facts.cls);
  std::vector<uint64_t> sig;
  sig.reserve(deps.size());
  for (std::size_t pred : deps) {
    sig.push_back(env[pred] ? env[pred]->version : 0);
  }
  if (slot.valid && slot.versions == sig) {
    ++stats_.memo_hits;
    if (loop_depth_ > 0) ++stats_.invariant_hoists;
    return slot.value;
  }
  if (CacheActive()) {
    // Cross-query probe: an all-zero signature means the subtree depends
    // only on database relations, so a previous query of this session may
    // have left its answer in the cache under the current db versions.
    bool db_only = true;
    for (uint64_t v : sig) db_only &= (v == 0);
    AnswerCache::Key key;
    if (db_only && BuildCacheKey(facts.cls, &key)) {
      AssignmentSet cached;
      if (options_.answer_cache->Lookup(key, &cached)) {
        ++stats_.cache_hits;
        // Land the hit in the memo slot like a freshly computed entry, so
        // repeats within this call are plain memo hits (and the cube is
        // charged to this query's account like any memo resident).
        if (slot.valid) ReleaseCube(slot.value);
        BVQ_RETURN_IF_ERROR(ChargeCube(cached));
        slot.valid = true;
        slot.versions = std::move(sig);
        slot.value = std::move(cached);
        return slot.value;
      }
      ++stats_.cache_misses;
    }
  }
  ++stats_.memo_misses;
  auto result = EvalUncached(f, facts, env);
  if (result.ok()) {
    // The memo retains a cube copy for the rest of the call; swap the
    // charge from the overwritten entry (if any) to the new one.
    if (slot.valid) ReleaseCube(slot.value);
    BVQ_RETURN_IF_ERROR(ChargeCube(*result));
    slot.valid = true;
    slot.versions = std::move(sig);
    slot.value = *result;
  }
  return result;
}

Result<AssignmentSet> BoundedEvaluator::EvalUncached(
    const FormulaPtr& f, const FormulaIndex::NodeFacts& facts, Env& env) {
  const std::size_t n = db_->domain_size();
  switch (f->kind()) {
    case FormulaKind::kTrue:
      return AssignmentSet::Full(n, num_vars_);
    case FormulaKind::kFalse:
      return AssignmentSet(n, num_vars_);
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      for (std::size_t v : atom.args()) {
        if (v >= num_vars_) {
          return Status::TypeError(StrCat("atom ", atom.pred(),
                                          " uses out-of-range variable x",
                                          v + 1));
        }
      }
      if (env[facts.pred]) {
        const RelVarBinding& binding = *env[facts.pred];
        if (binding.coords.size() != atom.args().size()) {
          return Status::TypeError(
              StrCat("relation variable ", atom.pred(), " has arity ",
                     binding.coords.size(), ", used with ",
                     atom.args().size()));
        }
        stats_.tuples_scanned += binding.cube().indexer().NumTuples();
        return binding.cube().Remap(binding.coords, atom.args(),
                                    pool_.get());
      }
      auto rel = db_->GetRelation(atom.pred());
      if (!rel.ok()) return rel.status();
      if ((*rel)->arity() != atom.args().size()) {
        return Status::TypeError(
            StrCat("relation ", atom.pred(), " has arity ", (*rel)->arity(),
                   ", used with ", atom.args().size()));
      }
      std::vector<std::size_t> key;
      if (!options_.memo) {
        key.reserve(atom.args().size() + 1);
        key.push_back(facts.pred);
        key.insert(key.end(), atom.args().begin(), atom.args().end());
        auto cached = atom_cache_.find(key);
        if (cached != atom_cache_.end()) return cached->second;
      }
      stats_.tuples_scanned += (*rel)->size();
      AssignmentSet set = AssignmentSet::FromAtom(n, num_vars_, **rel,
                                                  atom.args(), pool_.get());
      if (!options_.memo) atom_cache_.emplace(std::move(key), set);
      return set;
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      if (eq.lhs() >= num_vars_ || eq.rhs() >= num_vars_) {
        return Status::TypeError("equality uses out-of-range variable");
      }
      std::vector<std::size_t> key;
      if (!options_.memo) {
        key = {kEqualityKey, eq.lhs(), eq.rhs()};
        auto cached = atom_cache_.find(key);
        if (cached != atom_cache_.end()) return cached->second;
      }
      AssignmentSet set = AssignmentSet::Equality(n, num_vars_, eq.lhs(),
                                                  eq.rhs(), pool_.get());
      if (!options_.memo) atom_cache_.emplace(std::move(key), set);
      return set;
    }
    case FormulaKind::kNot: {
      auto sub = Eval(static_cast<const NotFormula&>(*f).sub(), env);
      if (!sub.ok()) return sub;
      sub->Complement();
      return sub;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      auto lhs = Eval(b.lhs(), env);
      if (!lhs.ok()) return lhs;
      if (options_.governor != nullptr) {
        // The lhs cube stays live across the whole rhs subtree; count it
        // toward the peak without retaining a charge.
        BVQ_RETURN_IF_ERROR(options_.governor->NoteTransient(lhs->ByteSize()));
      }
      auto rhs = Eval(b.rhs(), env);
      if (!rhs.ok()) return rhs;
      switch (f->kind()) {
        case FormulaKind::kAnd:
          lhs->AndWith(*rhs);
          return lhs;
        case FormulaKind::kOr:
          lhs->OrWith(*rhs);
          return lhs;
        case FormulaKind::kImplies:
          lhs->Complement();
          lhs->OrWith(*rhs);
          return lhs;
        case FormulaKind::kIff: {
          // a <-> b == ~(a xor b)
          lhs->mutable_bits() ^= rhs->bits();
          lhs->Complement();
          return lhs;
        }
        default:
          break;
      }
      return Status::Internal("unreachable binary op");
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      if (q.var() >= num_vars_) {
        return Status::TypeError(
            StrCat("quantifier over out-of-range variable x", q.var() + 1));
      }
      auto body = Eval(q.body(), env);
      if (!body.ok()) return body;
      stats_.tuples_scanned += body->indexer().NumTuples();
      return f->kind() == FormulaKind::kExists
                 ? body->ExistsVar(q.var(), pool_.get())
                 : body->ForAllVar(q.var(), pool_.get());
    }
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      for (std::size_t v : fp.bound_vars()) {
        if (v >= num_vars_) {
          return Status::TypeError(
              StrCat("fixpoint binds out-of-range variable x", v + 1));
        }
      }
      for (std::size_t v : fp.apply_args()) {
        if (v >= num_vars_) {
          return Status::TypeError(
              StrCat("fixpoint applied to out-of-range variable x", v + 1));
        }
      }
      if (fp.apply_args().size() != fp.bound_vars().size()) {
        return Status::TypeError("fixpoint arity mismatch");
      }
      if (fp.op() == FixpointKind::kPartial) {
        return EvalPartialFixpoint(fp, facts.pred, env);
      }
      if (fp.op() != FixpointKind::kInflationary &&
          !OccursOnlyPositively(fp.body(), fp.rel_var())) {
        return Status::TypeError(
            StrCat("recursion variable ", fp.rel_var(),
                   " must occur positively in lfp/gfp body"));
      }
      return EvalFixpoint(fp, facts.pred, env);
    }
    case FormulaKind::kSecondOrderExists:
      return EvalSecondOrder(static_cast<const SoExistsFormula&>(*f),
                             facts.pred, env);
  }
  return Status::Internal("unreachable formula kind");
}

// Scope of one fixpoint or second-order loop over relation variable `pred`.
// While it lives, memo hits count as invariant hoists; on every exit it
// restores the binding the loop shadowed (and with it the outer version,
// revalidating memo entries taken under it) and releases what the loop
// charged through it.
class BoundedEvaluator::LoopScope {
 public:
  LoopScope(BoundedEvaluator& eval, Env& env, std::size_t pred)
      : eval_(eval), env_(env), pred_(pred), outer_(env[pred]) {
    ++eval_.loop_depth_;
  }
  ~LoopScope() {
    --eval_.loop_depth_;
    env_[pred_] = std::move(outer_);
    eval_.ReleaseBytes(charged_);
  }
  LoopScope(const LoopScope&) = delete;
  LoopScope& operator=(const LoopScope&) = delete;

  // Charges `bytes` for the rest of the loop.
  Status Charge(std::size_t bytes) {
    charged_ += bytes;
    return eval_.ChargeBytes(bytes);
  }

 private:
  BoundedEvaluator& eval_;
  Env& env_;
  std::size_t pred_;
  std::optional<RelVarBinding> outer_;
  std::size_t charged_ = 0;
};

Result<AssignmentSet> BoundedEvaluator::Stage(
    const FixpointFormula& fp, std::size_t pred,
    const std::shared_ptr<const AssignmentSet>& x, Env& env) {
  Bind(env, pred, x, fp.bound_vars());
  ++stats_.fixpoint_iterations;
  ++stats_.iterate_copies_avoided;
  stats_.tuples_scanned += x->indexer().NumTuples();
  if (fp.op() == FixpointKind::kInflationary ||
      fp.op() == FixpointKind::kPartial) {
    // A body iterated without monotonicity invalidates the warm-start
    // caches of every monotone fixpoint beneath it.
    ++epoch_[0];
    ++epoch_[1];
  }
  return Eval(fp.body(), env);
}

Result<AssignmentSet> BoundedEvaluator::EvalFixpoint(
    const FixpointFormula& fp, std::size_t pred, Env& env) {
  const std::size_t n = db_->domain_size();
  // IFP: X_{i+1} = X_i union phi(X_i); increasing by construction, so it
  // converges within n^k stages regardless of the body's shape.
  const bool inflationary = fp.op() == FixpointKind::kInflationary;
  const int pol = fp.op() == FixpointKind::kGreatest ? 1 : 0;
  // Footnote 5: under kMonotoneReuse an lfp/gfp starts from its last value
  // while no enclosing opposite-polarity fixpoint has advanced since.
  const bool reuse =
      !inflationary &&
      options_.fixpoint_strategy == FixpointStrategy::kMonotoneReuse;
  std::shared_ptr<const AssignmentSet> x;
  auto warm = reuse ? warm_cache_.find(&fp) : warm_cache_.end();
  if (warm != warm_cache_.end() && warm->second.epoch == epoch_[pol]) {
    x = std::make_shared<const AssignmentSet>(warm->second.value);
    ++stats_.warm_starts;
  } else {
    x = std::make_shared<const AssignmentSet>(
        pol == 1 ? AssignmentSet::Full(n, num_vars_)
                 : AssignmentSet(n, num_vars_));
  }
  bool converged = false;
  {
    LoopScope scope(*this, env, pred);
    // One charge covers the whole loop: every iterate is the same-size
    // cube, replaced (not accumulated) each round.
    BVQ_RETURN_IF_ERROR(scope.Charge(x->ByteSize()));
    const std::size_t max_iters = x->indexer().NumTuples() + 2;
    for (std::size_t iter = 0; iter <= max_iters; ++iter) {
      auto next = Stage(fp, pred, x, env);
      if (!next.ok()) return next;
      if (inflationary) next->OrWith(*x);
      if (*next == *x) {
        converged = true;
        break;
      }
      x = std::make_shared<const AssignmentSet>(std::move(*next));
      // Advancing this iterate invalidates warm caches of opposite-polarity
      // fixpoints (their operators just moved in the non-monotone direction
      // for them); bumping both epochs would forfeit same-polarity reuse.
      if (reuse) ++epoch_[1 - pol];
    }
  }
  if (!converged) {
    // A syntactically positive body can still induce a non-monotone
    // operator when the recursion variable passes through a pfp body.
    return Status::TypeError(
        StrCat("fixpoint ", fp.rel_var(),
               " did not converge; operator is not monotone"));
  }
  if (reuse) {
    // The warm cache keeps a copy of the converged iterate for the rest of
    // the call (released in bulk at EvaluateWithEnv exit). It is charged
    // only after the loop scope released the iterate, so the peak holds
    // one of the two cubes, not both.
    auto old = warm_cache_.find(&fp);
    if (old != warm_cache_.end()) ReleaseCube(old->second.value);
    BVQ_RETURN_IF_ERROR(ChargeCube(*x));
    warm_cache_.insert_or_assign(&fp, CacheEntry{*x, epoch_[pol]});
  }
  return x->Remap(fp.bound_vars(), fp.apply_args(), pool_.get());
}

Result<AssignmentSet> BoundedEvaluator::EvalPartialFixpoint(
    const FixpointFormula& fp, std::size_t pred, Env& env) {
  const std::size_t n = db_->domain_size();
  BlockLayout layout(TupleIndexer(n, num_vars_), fp.bound_vars());
  const std::size_t num_blocks = layout.num_blocks();

  // Current stage; shared so each stage binds without copying the cube.
  auto x = std::make_shared<const AssignmentSet>(AssignmentSet(n, num_vars_));
  AssignmentSet result(n, num_vars_);       // assembled per-block limits
  // Byte flags, not vector<bool>: the parallel sweep writes flags of
  // distinct blocks from different chunks, which must not share storage.
  std::vector<uint8_t> decided(num_blocks, 0);
  std::size_t num_decided = 0;
  // Settles block b: its limit slice is copied from `stage`, or, when the
  // block cycles, the slice stays empty.
  auto decide = [&](std::size_t b, bool limit, const AssignmentSet& stage) {
    if (limit) layout.CopySlice(stage, result, b);
    decided[b] = 1;
    ++num_decided;
  };

  // Per-block detection: SliceHash/SlicesEqual over the blocks of a stage
  // read shared stages and write only per-block state, so they fan out
  // cleanly; CopySlice writes are not block-disjoint at word granularity
  // and stay on the caller.
  const std::size_t block_grain = ChunkGrain(
      num_blocks, x->indexer().NumTuples(), pool_->num_threads(), 4);
  auto for_each_block = [&](const std::function<void(std::size_t)>& fn) {
    pool_->ParallelFor(
        num_blocks, block_grain,
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
          for (std::size_t b = begin; b < end; ++b) fn(b);
        });
  };

  // PFP's long-lived cubes: the iterate and the assembled result, plus the
  // tortoise/hare pair in Floyd mode. Hash mode additionally charges the
  // stage history as it grows (payload bytes; one uint64 per stage per
  // undecided block — the O(#stages) space Floyd mode exists to avoid).
  const bool floyd =
      options_.pfp_cycle_detection == PfpCycleDetection::kFloyd;
  LoopScope scope(*this, env, pred);
  BVQ_RETURN_IF_ERROR(scope.Charge(x->ByteSize() * (floyd ? 4 : 2)));

  if (!floyd) {
    std::vector<std::unordered_set<uint64_t>> seen(num_blocks);
    for (std::size_t b = 0; b < num_blocks; ++b) {
      seen[b].insert(layout.SliceHash(*x, b));
    }
    BVQ_RETURN_IF_ERROR(scope.Charge(num_blocks * sizeof(uint64_t)));
    // Per-block stage outcome: 0 = still running, 1 = limit reached (copy
    // the slice), 2 = cycle detected (slice stays empty).
    std::vector<uint8_t> outcome(num_blocks, 0);
    while (num_decided < num_blocks) {
      auto next = Stage(fp, pred, x, env);
      if (!next.ok()) return next;
      auto classify = [&](std::size_t b) -> uint8_t {
        if (decided[b]) return 0;
        if (layout.SlicesEqual(*x, *next, b)) {
          // Stage repeated immediately: the sequence has a limit here.
          return 1;
        }
        const uint64_t h = layout.SliceHash(*next, b);
        // Revisiting an earlier stage without having converged means the
        // sequence cycles, so the partial fixpoint is empty there.
        return seen[b].insert(h).second ? 0 : 2;
      };
      for_each_block([&](std::size_t b) { outcome[b] = classify(b); });
      std::size_t fresh_hashes = 0;
      for (std::size_t b = 0; b < num_blocks; ++b) {
        if (decided[b]) continue;
        if (outcome[b] == 0) {
          // classify() inserted a fresh stage hash for this block.
          ++fresh_hashes;
          continue;
        }
        decide(b, outcome[b] == 1, *next);
      }
      // A zero-byte charge never reaches the governor.
      BVQ_RETURN_IF_ERROR(scope.Charge(fresh_hashes * sizeof(uint64_t)));
      x = std::make_shared<const AssignmentSet>(std::move(*next));
    }
  } else {
    // Floyd tortoise-and-hare, per block. The tortoise advances one stage
    // and the hare two stages per round; when a block's slices meet, the
    // block is inside its cycle. A cycle of length 1 is a limit; anything
    // longer means no limit (empty slice).
    auto tortoise = x;
    auto hare = x;
    // met[b]: slices met, waiting to test whether the meeting point is a
    // fixpoint (the next tortoise step tells us). Byte flags for the same
    // reason as `decided`.
    std::vector<uint8_t> met(num_blocks, 0);
    std::vector<uint8_t> is_limit(num_blocks, 0);
    while (num_decided < num_blocks) {
      auto t_next = Stage(fp, pred, tortoise, env);
      if (!t_next.ok()) return t_next;
      // The meeting point for block b was tortoise's previous slice;
      // t_next tells us whether it is a fixpoint.
      auto test_limit = [&](std::size_t b) {
        is_limit[b] = !decided[b] && met[b] &&
                      layout.SlicesEqual(*tortoise, *t_next, b);
      };
      for_each_block(test_limit);
      for (std::size_t b = 0; b < num_blocks; ++b) {
        if (!decided[b] && met[b]) decide(b, is_limit[b], *tortoise);
      }
      auto h_mid = Stage(fp, pred, hare, env);
      if (!h_mid.ok()) return h_mid;
      auto h_next = Stage(
          fp, pred, std::make_shared<const AssignmentSet>(std::move(*h_mid)),
          env);
      if (!h_next.ok()) return h_next;
      tortoise = std::make_shared<const AssignmentSet>(std::move(*t_next));
      hare = std::make_shared<const AssignmentSet>(std::move(*h_next));
      // met flags of distinct blocks live in distinct bytes, so the
      // detection loop fans out without a merge step.
      auto test_met = [&](std::size_t b) {
        if (decided[b] || met[b]) return;
        if (layout.SlicesEqual(*tortoise, *hare, b)) met[b] = 1;
      };
      for_each_block(test_met);
    }
  }
  return result.Remap(fp.bound_vars(), fp.apply_args(), pool_.get());
}

Result<AssignmentSet> BoundedEvaluator::EvalSecondOrder(
    const SoExistsFormula& so, std::size_t pred, Env& env) {
  const std::size_t n = db_->domain_size();
  if (TupleIndexer::Exceeds(n, so.arity(),
                            options_.max_so_enumeration_bits)) {
    return Status::ResourceExhausted(
        StrCat("enumerating ", so.rel_var(), "/", so.arity(), " over |D|=",
               n,
               " is out of range for brute force; use EsoEvaluator"));
  }
  TupleIndexer idx(n, so.arity());
  const std::size_t cells = idx.NumTuples();
  if (cells >= 63) {
    return Status::ResourceExhausted(
        "second-order enumeration space too large");
  }
  // Bind the quantified relation to coordinates 0..arity-1 of the cube.
  std::vector<std::size_t> coords(so.arity());
  for (std::size_t j = 0; j < so.arity(); ++j) coords[j] = j;
  if (so.arity() > num_vars_) {
    return Status::TypeError(
        StrCat("second-order variable ", so.rel_var(), " of arity ",
               so.arity(), " exceeds the ", num_vars_,
               "-variable cube; apply EsoArityReduction first"));
  }

  AssignmentSet acc(n, num_vars_);
  // The accumulator plus the current witness cube (replaced per mask, so
  // one slot's worth) live across the whole enumeration; the charge is
  // held until the public call returns, not released with the loop.
  BVQ_RETURN_IF_ERROR(ChargeBytes(2 * acc.ByteSize()));
  Tuple t(so.arity());
  LoopScope scope(*this, env, pred);
  for (uint64_t mask = 0; mask < (uint64_t{1} << cells); ++mask) {
    RelationBuilder rb(so.arity());
    for (std::size_t c = 0; c < cells; ++c) {
      if ((mask >> c) & 1) {
        idx.Unrank(c, t.data());
        rb.Add(t);
      }
    }
    Relation rel = rb.Build();
    auto cube = std::make_shared<const AssignmentSet>(
        AssignmentSet::FromAtom(n, num_vars_, rel, coords, pool_.get()));
    Bind(env, pred, std::move(cube), coords);
    // Arbitrary witnesses break monotone warm-start assumptions.
    ++epoch_[0];
    ++epoch_[1];
    auto body = Eval(so.body(), env);
    if (!body.ok()) return body;
    acc.OrWith(*body);
    if (acc.IsFull()) break;
  }
  return acc;
}

}  // namespace bvq
