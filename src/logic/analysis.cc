#include "logic/analysis.h"

#include <algorithm>
#include <iterator>

#include "common/strings.h"
#include "common/varint.h"

namespace bvq {

namespace {

void CollectFreeVars(const FormulaPtr& f, std::set<std::size_t>& out) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      out.insert(atom.args().begin(), atom.args().end());
      return;
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      out.insert(eq.lhs());
      out.insert(eq.rhs());
      return;
    }
    case FormulaKind::kNot:
      CollectFreeVars(static_cast<const NotFormula&>(*f).sub(), out);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      CollectFreeVars(b.lhs(), out);
      CollectFreeVars(b.rhs(), out);
      return;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      std::set<std::size_t> inner;
      CollectFreeVars(q.body(), inner);
      inner.erase(q.var());
      out.insert(inner.begin(), inner.end());
      return;
    }
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      std::set<std::size_t> inner;
      CollectFreeVars(fp.body(), inner);
      for (std::size_t v : fp.bound_vars()) inner.erase(v);
      out.insert(inner.begin(), inner.end());
      out.insert(fp.apply_args().begin(), fp.apply_args().end());
      return;
    }
    case FormulaKind::kSecondOrderExists:
      CollectFreeVars(static_cast<const SoExistsFormula&>(*f).body(), out);
      return;
  }
}

std::size_t MaxVarIndexPlusOne(const FormulaPtr& f) {
  std::size_t m = 0;
  auto bump = [&m](std::size_t v) { m = std::max(m, v + 1); };
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return 0;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      for (std::size_t v : atom.args()) bump(v);
      return m;
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      bump(eq.lhs());
      bump(eq.rhs());
      return m;
    }
    case FormulaKind::kNot:
      return MaxVarIndexPlusOne(static_cast<const NotFormula&>(*f).sub());
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      return std::max(MaxVarIndexPlusOne(b.lhs()),
                      MaxVarIndexPlusOne(b.rhs()));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      bump(q.var());
      return std::max(m, MaxVarIndexPlusOne(q.body()));
    }
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      for (std::size_t v : fp.bound_vars()) bump(v);
      for (std::size_t v : fp.apply_args()) bump(v);
      return std::max(m, MaxVarIndexPlusOne(fp.body()));
    }
    case FormulaKind::kSecondOrderExists:
      return MaxVarIndexPlusOne(
          static_cast<const SoExistsFormula&>(*f).body());
  }
  return 0;
}

// Collects free predicates with arities; reports arity conflicts.
Status CollectPredicates(const FormulaPtr& f,
                         std::set<std::string>& bound,
                         std::map<std::string, std::size_t>& out) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEquals:
      return Status::OK();
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      if (bound.count(atom.pred())) return Status::OK();
      auto it = out.find(atom.pred());
      if (it != out.end() && it->second != atom.args().size()) {
        return Status::TypeError(
            StrCat("predicate ", atom.pred(), " used with arities ",
                   it->second, " and ", atom.args().size()));
      }
      out[atom.pred()] = atom.args().size();
      return Status::OK();
    }
    case FormulaKind::kNot:
      return CollectPredicates(static_cast<const NotFormula&>(*f).sub(),
                               bound, out);
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      BVQ_RETURN_IF_ERROR(CollectPredicates(b.lhs(), bound, out));
      return CollectPredicates(b.rhs(), bound, out);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      return CollectPredicates(static_cast<const QuantFormula&>(*f).body(),
                               bound, out);
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      const bool was_bound = bound.count(fp.rel_var()) > 0;
      bound.insert(fp.rel_var());
      Status s = CollectPredicates(fp.body(), bound, out);
      if (!was_bound) bound.erase(fp.rel_var());
      return s;
    }
    case FormulaKind::kSecondOrderExists: {
      const auto& so = static_cast<const SoExistsFormula&>(*f);
      const bool was_bound = bound.count(so.rel_var()) > 0;
      bound.insert(so.rel_var());
      Status s = CollectPredicates(so.body(), bound, out);
      if (!was_bound) bound.erase(so.rel_var());
      return s;
    }
  }
  return Status::OK();
}

enum class Polarity { kPositive, kNegative, kBoth };

Polarity Flip(Polarity p) {
  switch (p) {
    case Polarity::kPositive:
      return Polarity::kNegative;
    case Polarity::kNegative:
      return Polarity::kPositive;
    case Polarity::kBoth:
      return Polarity::kBoth;
  }
  return Polarity::kBoth;
}

// Checks that rel_var occurs only with polarity kPositive under the given
// ambient polarity.
bool CheckPolarity(const FormulaPtr& f, const std::string& rel_var,
                   Polarity ambient) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEquals:
      return true;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      if (atom.pred() != rel_var) return true;
      return ambient == Polarity::kPositive;
    }
    case FormulaKind::kNot:
      return CheckPolarity(static_cast<const NotFormula&>(*f).sub(), rel_var,
                           Flip(ambient));
    case FormulaKind::kAnd:
    case FormulaKind::kOr: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      return CheckPolarity(b.lhs(), rel_var, ambient) &&
             CheckPolarity(b.rhs(), rel_var, ambient);
    }
    case FormulaKind::kImplies: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      return CheckPolarity(b.lhs(), rel_var, Flip(ambient)) &&
             CheckPolarity(b.rhs(), rel_var, ambient);
    }
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      return CheckPolarity(b.lhs(), rel_var, Polarity::kBoth) &&
             CheckPolarity(b.rhs(), rel_var, Polarity::kBoth);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      return CheckPolarity(static_cast<const QuantFormula&>(*f).body(),
                           rel_var, ambient);
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      if (fp.rel_var() == rel_var) return true;  // shadowed
      return CheckPolarity(fp.body(), rel_var, ambient);
    }
    case FormulaKind::kSecondOrderExists: {
      const auto& so = static_cast<const SoExistsFormula&>(*f);
      if (so.rel_var() == rel_var) return true;  // shadowed
      return CheckPolarity(so.body(), rel_var, ambient);
    }
  }
  return false;
}

void Classify(const FormulaPtr& f, bool under_so_prefix, LanguageClass& c) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kAtom:
    case FormulaKind::kEquals:
      return;
    case FormulaKind::kNot:
      Classify(static_cast<const NotFormula&>(*f).sub(), false, c);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      Classify(b.lhs(), false, c);
      Classify(b.rhs(), false, c);
      return;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      Classify(static_cast<const QuantFormula&>(*f).body(), false, c);
      return;
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      c.first_order = false;
      c.eso = false;
      if (fp.op() == FixpointKind::kPartial ||
          fp.op() == FixpointKind::kInflationary) {
        c.fixpoint = false;
      } else if (!OccursOnlyPositively(fp.body(), fp.rel_var())) {
        c.fixpoint = false;
        c.partial_fixpoint = false;  // ill-formed as FP; pfp would not bind
      }
      Classify(fp.body(), false, c);
      return;
    }
    case FormulaKind::kSecondOrderExists: {
      const auto& so = static_cast<const SoExistsFormula&>(*f);
      c.first_order = false;
      c.fixpoint = false;
      c.partial_fixpoint = false;
      if (!under_so_prefix) c.eso = false;
      Classify(so.body(), under_so_prefix, c);
      return;
    }
  }
}

// Computes, for the subformula f, the alternation depth contributed by
// chains ending in a kLeast (mu_depth) and kGreatest (nu_depth) fixpoint.
// This is the standard Niwinski-style syntactic alternation depth,
// simplified to nesting (we do not check dependence through the recursion
// variable, so this is an upper bound that is tight for all families used
// in this repository).
struct AltDepth {
  std::size_t mu = 0;  // deepest chain whose outermost sign is mu
  std::size_t nu = 0;  // deepest chain whose outermost sign is nu
};

AltDepth AlternationDepthRec(const FormulaPtr& f) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kAtom:
    case FormulaKind::kEquals:
      return {};
    case FormulaKind::kNot:
      return AlternationDepthRec(static_cast<const NotFormula&>(*f).sub());
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      AltDepth l = AlternationDepthRec(b.lhs());
      AltDepth r = AlternationDepthRec(b.rhs());
      return {std::max(l.mu, r.mu), std::max(l.nu, r.nu)};
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      return AlternationDepthRec(static_cast<const QuantFormula&>(*f).body());
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      AltDepth inner = AlternationDepthRec(fp.body());
      AltDepth out = inner;
      if (fp.op() == FixpointKind::kLeast ||
          fp.op() == FixpointKind::kPartial ||
          fp.op() == FixpointKind::kInflationary) {
        out.mu = std::max({std::size_t{1}, inner.mu, inner.nu + 1});
      } else {
        out.nu = std::max({std::size_t{1}, inner.nu, inner.mu + 1});
      }
      return out;
    }
    case FormulaKind::kSecondOrderExists:
      return AlternationDepthRec(
          static_cast<const SoExistsFormula&>(*f).body());
  }
  return {};
}

Status CheckRec(const FormulaPtr& f, const Database& db, std::size_t num_vars,
                std::map<std::string, std::size_t>& binders) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      return Status::OK();
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      for (std::size_t v : atom.args()) {
        if (v >= num_vars) {
          return Status::TypeError(StrCat("atom ", atom.pred(),
                                          " uses variable x", v + 1,
                                          " but only ", num_vars,
                                          " variables are allowed"));
        }
      }
      auto it = binders.find(atom.pred());
      if (it != binders.end()) {
        if (it->second != atom.args().size()) {
          return Status::TypeError(
              StrCat("relation variable ", atom.pred(), " has arity ",
                     it->second, ", used with ", atom.args().size()));
        }
        return Status::OK();
      }
      auto rel = db.GetRelation(atom.pred());
      if (!rel.ok()) {
        return Status::TypeError(
            StrCat("unknown predicate ", atom.pred()));
      }
      if ((*rel)->arity() != atom.args().size()) {
        return Status::TypeError(
            StrCat("relation ", atom.pred(), " has arity ", (*rel)->arity(),
                   ", used with ", atom.args().size()));
      }
      return Status::OK();
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      if (eq.lhs() >= num_vars || eq.rhs() >= num_vars) {
        return Status::TypeError("equality uses out-of-range variable");
      }
      return Status::OK();
    }
    case FormulaKind::kNot:
      return CheckRec(static_cast<const NotFormula&>(*f).sub(), db, num_vars,
                      binders);
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      BVQ_RETURN_IF_ERROR(CheckRec(b.lhs(), db, num_vars, binders));
      return CheckRec(b.rhs(), db, num_vars, binders);
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      if (q.var() >= num_vars) {
        return Status::TypeError(
            StrCat("quantifier binds out-of-range variable x", q.var() + 1));
      }
      return CheckRec(q.body(), db, num_vars, binders);
    }
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      if (fp.bound_vars().empty()) {
        return Status::TypeError("fixpoint binds no variables");
      }
      std::set<std::size_t> distinct(fp.bound_vars().begin(),
                                     fp.bound_vars().end());
      if (distinct.size() != fp.bound_vars().size()) {
        return Status::TypeError(
            StrCat("fixpoint ", fp.rel_var(), " binds repeated variables"));
      }
      if (fp.apply_args().size() != fp.bound_vars().size()) {
        return Status::TypeError(
            StrCat("fixpoint ", fp.rel_var(), " applied to ",
                   fp.apply_args().size(), " arguments, binds ",
                   fp.bound_vars().size()));
      }
      for (std::size_t v : fp.bound_vars()) {
        if (v >= num_vars) {
          return Status::TypeError(
              StrCat("fixpoint binds out-of-range variable x", v + 1));
        }
      }
      for (std::size_t v : fp.apply_args()) {
        if (v >= num_vars) {
          return Status::TypeError(
              StrCat("fixpoint applied to out-of-range variable x", v + 1));
        }
      }
      if (fp.op() != FixpointKind::kPartial &&
          fp.op() != FixpointKind::kInflationary &&
          !OccursOnlyPositively(fp.body(), fp.rel_var())) {
        return Status::TypeError(
            StrCat("recursion variable ", fp.rel_var(),
                   " must occur positively in an lfp/gfp body"));
      }
      auto saved = binders.find(fp.rel_var());
      std::size_t saved_arity = 0;
      bool had = false;
      if (saved != binders.end()) {
        had = true;
        saved_arity = saved->second;
      }
      binders[fp.rel_var()] = fp.bound_vars().size();
      Status s = CheckRec(fp.body(), db, num_vars, binders);
      if (had) {
        binders[fp.rel_var()] = saved_arity;
      } else {
        binders.erase(fp.rel_var());
      }
      return s;
    }
    case FormulaKind::kSecondOrderExists: {
      const auto& so = static_cast<const SoExistsFormula&>(*f);
      auto saved = binders.find(so.rel_var());
      std::size_t saved_arity = 0;
      bool had = false;
      if (saved != binders.end()) {
        had = true;
        saved_arity = saved->second;
      }
      binders[so.rel_var()] = so.arity();
      Status s = CheckRec(so.body(), db, num_vars, binders);
      if (had) {
        binders[so.rel_var()] = saved_arity;
      } else {
        binders.erase(so.rel_var());
      }
      return s;
    }
  }
  return Status::OK();
}

}  // namespace

std::set<std::size_t> FreeVars(const FormulaPtr& formula) {
  std::set<std::size_t> out;
  CollectFreeVars(formula, out);
  return out;
}

std::size_t NumVariables(const FormulaPtr& formula) {
  return MaxVarIndexPlusOne(formula);
}

Result<std::map<std::string, std::size_t>> FreePredicates(
    const FormulaPtr& formula) {
  std::map<std::string, std::size_t> out;
  std::set<std::string> bound;
  BVQ_RETURN_IF_ERROR(CollectPredicates(formula, bound, out));
  return out;
}

bool OccursOnlyPositively(const FormulaPtr& formula,
                          const std::string& rel_var) {
  return CheckPolarity(formula, rel_var, Polarity::kPositive);
}

LanguageClass ClassifyLanguage(const FormulaPtr& formula) {
  LanguageClass c;
  Classify(formula, true, c);
  return c;
}

std::size_t AlternationDepth(const FormulaPtr& formula) {
  AltDepth d = AlternationDepthRec(formula);
  return std::max(d.mu, d.nu);
}

Status CheckWellFormed(const FormulaPtr& formula, const Database& db,
                       std::size_t num_vars) {
  std::map<std::string, std::size_t> binders;
  return CheckRec(formula, db, num_vars, binders);
}

// --- FormulaIndex ---------------------------------------------------------

namespace {

uint64_t FnvHashWords(const std::vector<uint64_t>& words) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t w : words) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (w >> (byte * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

// Sorted-unique union of two sorted-unique id vectors.
std::vector<std::size_t> UnionSorted(const std::vector<std::size_t>& a,
                                     const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

std::vector<std::size_t> EraseSorted(std::vector<std::size_t> v,
                                     std::size_t x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) v.erase(it);
  return v;
}

}  // namespace

std::size_t FormulaInterner::KeyHash::operator()(
    const std::vector<uint64_t>& key) const {
  return static_cast<std::size_t>(FnvHashWords(key));
}

std::size_t FormulaInterner::num_preds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pred_names_.size();
}

std::size_t FormulaInterner::num_classes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return class_hashes_.size();
}

FormulaIndex::FormulaIndex(const FormulaPtr& root, FormulaInterner* interner)
    : owned_(interner == nullptr ? std::make_unique<FormulaInterner>()
                                 : nullptr),
      interner_(interner == nullptr ? owned_.get() : interner) {
  // One lock acquisition covers the whole build, so this index's slots and
  // names are snapshotted consistently even when other threads intern
  // concurrently.
  std::lock_guard<std::mutex> lock(interner_->mutex_);
  Visit(root);
}

const FormulaIndex::NodeFacts& FormulaIndex::Facts(
    const Formula* node) const {
  return facts_.at(node);
}

std::size_t FormulaIndex::PredId(const std::string& name) const {
  auto it = pred_ids_.find(name);
  return it == pred_ids_.end() ? kNoPred : it->second;
}

std::size_t FormulaIndex::InternPred(const std::string& name,
                                     std::size_t* local) {
  const std::size_t global = interner_->InternPredLocked(name);
  auto [it, inserted] = local_pred_.emplace(global, pred_names_.size());
  if (inserted) {
    pred_names_.push_back(&interner_->pred_names_[global]);
    pred_ids_.emplace(name, it->second);
  }
  *local = it->second;
  return global;
}

void FormulaIndex::InternClass(std::vector<uint64_t> key,
                               std::vector<std::size_t> free_preds,
                               NodeFacts* facts) {
  facts->cls =
      interner_->InternClassLocked(std::move(key), std::move(free_preds));
  auto [it, inserted] = slot_of_class_.emplace(facts->cls, slots_.size());
  facts->slot = it->second;
  if (!inserted) return;
  // Every free predicate of a subtree of the root was interned by this
  // build, so each has a per-query id.
  Slot slot{facts->cls, interner_->class_hashes_[facts->cls], {}};
  for (std::size_t pred : *interner_->class_free_preds_[facts->cls]) {
    slot.free_preds.push_back(local_pred_.at(pred));
  }
  slots_.push_back(std::move(slot));
}

std::size_t FormulaInterner::InternPredLocked(const std::string& name) {
  auto [it, inserted] = pred_ids_.emplace(name, pred_names_.size());
  if (inserted) pred_names_.push_back(name);
  return it->second;
}

std::size_t FormulaInterner::InternClassLocked(
    std::vector<uint64_t> key, std::vector<std::size_t> free_preds) {
  auto [it, inserted] = classes_.emplace(std::move(key), class_hashes_.size());
  if (inserted) {
    class_hashes_.push_back(FnvHashWords(it->first));
    class_free_preds_.push_back(
        &*free_pred_lists_.insert(std::move(free_preds)).first);
    class_keys_.push_back(&it->first);
  }
  return it->second;
}

// --- Canonical forms (DESIGN.md §13) --------------------------------------
//
// Per-kind layout (every integer a varint, names length-prefixed strings,
// children encoded recursively in place — the format is self-delimiting):
//
//   True/False   tag
//   Atom         tag name nargs arg*
//   Equals       tag lhs rhs
//   Not          tag child
//   And..Iff     tag lhs-child rhs-child
//   Exists/ForAll tag var child
//   Fixpoint     tag op name nbound bound* napply apply* body-child
//   SOExists     tag name arity body-child
//
// The interned key for Fixpoint stores no apply count (it is implied by the
// key length), so the canonical form adds an explicit one to stay
// self-delimiting; the decoder reconstructs the exact key layout.

namespace {
// Decode-side sanity caps: a well-formed canon from any real formula stays
// far below these; a corrupted one must not drive allocation or recursion.
constexpr std::size_t kCanonMaxDepth = 4096;
static_assert(kMaxFormulaDepth <= kCanonMaxDepth,
              "every parsed formula must round-trip through the codec");
constexpr std::uint64_t kCanonMaxCount = std::uint64_t{1} << 16;
constexpr std::uint64_t kCanonMaxIndex = std::uint64_t{1} << 20;
}  // namespace

std::string FormulaInterner::CanonicalFormOf(std::size_t cls) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (cls >= class_keys_.size()) return std::string();
  std::string out;
  EncodeClassLocked(cls, &out);
  return out;
}

void FormulaInterner::EncodeClassLocked(std::size_t cls, std::string* out) {
  if (auto memo = class_canons_.find(cls); memo != class_canons_.end()) {
    out->append(memo->second);
    return;
  }
  std::string buf;
  const std::vector<uint64_t>& key = *class_keys_[cls];
  AppendVarint(&buf, key[0]);
  auto name = [&](std::size_t pred) {
    const std::string& n = pred_names_[pred];
    AppendVarint(&buf, n.size());
    buf.append(n);
  };
  switch (static_cast<FormulaKind>(key[0])) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      break;
    case FormulaKind::kAtom: {
      name(key[1]);
      AppendVarint(&buf, key[2]);
      for (std::size_t i = 0; i < key[2]; ++i) AppendVarint(&buf, key[3 + i]);
      break;
    }
    case FormulaKind::kEquals:
      AppendVarint(&buf, key[1]);
      AppendVarint(&buf, key[2]);
      break;
    case FormulaKind::kNot:
      EncodeClassLocked(key[1], &buf);
      break;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff:
      EncodeClassLocked(key[1], &buf);
      EncodeClassLocked(key[2], &buf);
      break;
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      AppendVarint(&buf, key[1]);
      EncodeClassLocked(key[2], &buf);
      break;
    case FormulaKind::kFixpoint: {
      AppendVarint(&buf, key[1]);  // op
      name(key[2]);
      const std::size_t nbound = key[3];
      AppendVarint(&buf, nbound);
      for (std::size_t i = 0; i < nbound; ++i) {
        AppendVarint(&buf, key[4 + i]);
      }
      const std::size_t napply = key.size() - (5 + nbound);
      AppendVarint(&buf, napply);
      for (std::size_t i = 0; i < napply; ++i) {
        AppendVarint(&buf, key[5 + nbound + i]);
      }
      EncodeClassLocked(key[4 + nbound], &buf);
      break;
    }
    case FormulaKind::kSecondOrderExists:
      name(key[1]);
      AppendVarint(&buf, key[2]);
      EncodeClassLocked(key[3], &buf);
      break;
  }
  const std::string& canon =
      class_canons_.emplace(cls, std::move(buf)).first->second;
  out->append(canon);
  canon_to_class_.emplace(canon, cls);
}

bool FormulaInterner::InternCanonical(std::string_view canon,
                                      std::size_t* cls) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = canon_to_class_.find(std::string(canon));
  if (it != canon_to_class_.end()) {
    *cls = it->second;
    return true;
  }
  std::size_t pos = 0;
  std::size_t root = 0;
  if (!DecodeClassLocked(canon, &pos, 0, &root)) return false;
  if (pos != canon.size()) return false;  // trailing garbage
  canon_to_class_.emplace(std::string(canon), root);
  *cls = root;
  return true;
}

bool FormulaInterner::DecodeClassLocked(std::string_view canon,
                                        std::size_t* pos, std::size_t depth,
                                        std::size_t* cls) {
  if (depth > kCanonMaxDepth) return false;
  std::uint64_t kind_raw = 0;
  if (!ReadVarint(canon, pos, &kind_raw)) return false;
  if (kind_raw > static_cast<std::uint64_t>(FormulaKind::kSecondOrderExists)) {
    return false;
  }
  auto read_name = [&](std::string* out_name) {
    std::uint64_t len = 0;
    if (!ReadVarint(canon, pos, &len)) return false;
    if (len > kCanonMaxCount || len > canon.size() - *pos) return false;
    out_name->assign(canon.substr(*pos, static_cast<std::size_t>(len)));
    *pos += static_cast<std::size_t>(len);
    return true;
  };
  auto read_index = [&](std::uint64_t* out_v) {
    return ReadVarint(canon, pos, out_v) && *out_v <= kCanonMaxIndex;
  };
  auto read_count = [&](std::uint64_t* out_n) {
    return ReadVarint(canon, pos, out_n) && *out_n <= kCanonMaxCount;
  };

  std::vector<uint64_t> key{kind_raw};
  std::vector<std::size_t> free_preds;
  switch (static_cast<FormulaKind>(kind_raw)) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      break;
    case FormulaKind::kAtom: {
      std::string pred_name;
      std::uint64_t nargs = 0;
      if (!read_name(&pred_name) || !read_count(&nargs)) return false;
      const std::size_t pred = InternPredLocked(pred_name);
      key.push_back(pred);
      key.push_back(nargs);
      for (std::uint64_t i = 0; i < nargs; ++i) {
        std::uint64_t v = 0;
        if (!read_index(&v)) return false;
        key.push_back(v);
      }
      free_preds = {pred};
      break;
    }
    case FormulaKind::kEquals: {
      std::uint64_t lhs = 0, rhs = 0;
      if (!read_index(&lhs) || !read_index(&rhs)) return false;
      key.push_back(lhs);
      key.push_back(rhs);
      break;
    }
    case FormulaKind::kNot: {
      std::size_t sub = 0;
      if (!DecodeClassLocked(canon, pos, depth + 1, &sub)) return false;
      key.push_back(sub);
      free_preds = *class_free_preds_[sub];
      break;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      std::size_t lhs = 0, rhs = 0;
      if (!DecodeClassLocked(canon, pos, depth + 1, &lhs)) return false;
      if (!DecodeClassLocked(canon, pos, depth + 1, &rhs)) return false;
      key.push_back(lhs);
      key.push_back(rhs);
      free_preds =
          UnionSorted(*class_free_preds_[lhs], *class_free_preds_[rhs]);
      break;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      std::uint64_t var = 0;
      std::size_t body = 0;
      if (!read_index(&var)) return false;
      if (!DecodeClassLocked(canon, pos, depth + 1, &body)) return false;
      key.push_back(var);
      key.push_back(body);
      free_preds = *class_free_preds_[body];
      break;
    }
    case FormulaKind::kFixpoint: {
      std::uint64_t op = 0;
      if (!ReadVarint(canon, pos, &op) ||
          op > static_cast<std::uint64_t>(FixpointKind::kInflationary)) {
        return false;
      }
      std::string pred_name;
      std::uint64_t nbound = 0;
      if (!read_name(&pred_name) || !read_count(&nbound)) return false;
      const std::size_t pred = InternPredLocked(pred_name);
      key.push_back(op);
      key.push_back(pred);
      key.push_back(nbound);
      for (std::uint64_t i = 0; i < nbound; ++i) {
        std::uint64_t v = 0;
        if (!read_index(&v)) return false;
        key.push_back(v);
      }
      std::uint64_t napply = 0;
      if (!read_count(&napply)) return false;
      std::vector<uint64_t> applies;
      for (std::uint64_t i = 0; i < napply; ++i) {
        std::uint64_t v = 0;
        if (!read_index(&v)) return false;
        applies.push_back(v);
      }
      std::size_t body = 0;
      if (!DecodeClassLocked(canon, pos, depth + 1, &body)) return false;
      key.push_back(body);
      key.insert(key.end(), applies.begin(), applies.end());
      free_preds = EraseSorted(*class_free_preds_[body], pred);
      break;
    }
    case FormulaKind::kSecondOrderExists: {
      std::string pred_name;
      std::uint64_t arity = 0;
      if (!read_name(&pred_name) || !read_count(&arity)) return false;
      const std::size_t pred = InternPredLocked(pred_name);
      std::size_t body = 0;
      if (!DecodeClassLocked(canon, pos, depth + 1, &body)) return false;
      key.push_back(pred);
      key.push_back(arity);
      key.push_back(body);
      free_preds = EraseSorted(*class_free_preds_[body], pred);
      break;
    }
  }
  *cls = InternClassLocked(std::move(key), std::move(free_preds));
  return true;
}

std::vector<std::string> FormulaInterner::FreePredNames(
    std::size_t cls) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  if (cls >= class_free_preds_.size()) return out;
  out.reserve(class_free_preds_[cls]->size());
  for (std::size_t p : *class_free_preds_[cls]) out.push_back(pred_names_[p]);
  return out;
}

FormulaIndex::NodeFacts FormulaIndex::Visit(const FormulaPtr& f) {
  auto cached = facts_.find(f.get());
  if (cached != facts_.end()) return cached->second;

  // Keys are exact encodings — kind tag, node parameters, then child
  // *class* ids (already canonical), with counts wherever a field is
  // variable-length — so equal keys imply syntactically identical
  // subtrees.
  std::vector<uint64_t> key{static_cast<uint64_t>(f->kind())};
  NodeFacts facts;
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
      InternClass(std::move(key), {}, &facts);
      break;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      const std::size_t pred = InternPred(atom.pred(), &facts.pred);
      key.push_back(pred);
      key.push_back(atom.args().size());
      for (std::size_t v : atom.args()) key.push_back(v);
      InternClass(std::move(key), {pred}, &facts);
      break;
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      key.push_back(eq.lhs());
      key.push_back(eq.rhs());
      InternClass(std::move(key), {}, &facts);
      break;
    }
    case FormulaKind::kNot: {
      const NodeFacts sub = Visit(static_cast<const NotFormula&>(*f).sub());
      key.push_back(sub.cls);
      InternClass(std::move(key), *interner_->class_free_preds_[sub.cls],
                  &facts);
      break;
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      const NodeFacts lhs = Visit(b.lhs());
      const NodeFacts rhs = Visit(b.rhs());
      key.push_back(lhs.cls);
      key.push_back(rhs.cls);
      InternClass(std::move(key),
                  UnionSorted(*interner_->class_free_preds_[lhs.cls],
                              *interner_->class_free_preds_[rhs.cls]),
                  &facts);
      break;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      const NodeFacts body = Visit(q.body());
      key.push_back(q.var());
      key.push_back(body.cls);
      InternClass(std::move(key), *interner_->class_free_preds_[body.cls],
                  &facts);
      break;
    }
    case FormulaKind::kFixpoint: {
      const auto& fp = static_cast<const FixpointFormula&>(*f);
      const NodeFacts body = Visit(fp.body());
      const std::size_t pred = InternPred(fp.rel_var(), &facts.pred);
      key.push_back(static_cast<uint64_t>(fp.op()));
      key.push_back(pred);
      key.push_back(fp.bound_vars().size());
      for (std::size_t v : fp.bound_vars()) key.push_back(v);
      key.push_back(body.cls);
      for (std::size_t v : fp.apply_args()) key.push_back(v);
      InternClass(std::move(key),
                  EraseSorted(*interner_->class_free_preds_[body.cls], pred),
                  &facts);
      break;
    }
    case FormulaKind::kSecondOrderExists: {
      const auto& so = static_cast<const SoExistsFormula&>(*f);
      const NodeFacts body = Visit(so.body());
      const std::size_t pred = InternPred(so.rel_var(), &facts.pred);
      key.push_back(pred);
      key.push_back(so.arity());
      key.push_back(body.cls);
      InternClass(std::move(key),
                  EraseSorted(*interner_->class_free_preds_[body.cls], pred),
                  &facts);
      break;
    }
  }
  facts_.emplace(f.get(), facts);
  return facts;
}

}  // namespace bvq
