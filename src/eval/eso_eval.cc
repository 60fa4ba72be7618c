#include "eval/eso_eval.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/index.h"
#include "common/strings.h"
#include "logic/analysis.h"
#include "logic/builder.h"
#include "sat/tseitin.h"

namespace bvq {

namespace {

// ---------------------------------------------------------------------------
// Lemma 3.6: syntactic arity reduction.
// ---------------------------------------------------------------------------

struct SoBinder {
  std::string name;
  std::size_t arity;
};

// Peels the outermost SO-exists prefix.
FormulaPtr PeelPrefix(FormulaPtr f, std::vector<SoBinder>* binders) {
  while (f->kind() == FormulaKind::kSecondOrderExists) {
    const auto& so = static_cast<const SoExistsFormula&>(*f);
    binders->push_back({so.rel_var(), so.arity()});
    f = so.body();
  }
  return f;
}

bool IsFirstOrder(const FormulaPtr& f) {
  LanguageClass c = ClassifyLanguage(f);
  return c.first_order;
}

std::string ViewName(const std::string& base,
                     const std::vector<std::size_t>& pattern) {
  std::string name = base + "__";
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    if (i > 0) name += "_";
    name += std::to_string(pattern[i] + 1);
  }
  return name;
}

// Collects the distinct argument patterns of each bound relation.
void CollectPatterns(
    const FormulaPtr& f, const std::set<std::string>& so_names,
    std::map<std::string, std::set<std::vector<std::size_t>>>* patterns) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEquals:
      return;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      if (so_names.count(atom.pred())) {
        (*patterns)[atom.pred()].insert(atom.args());
      }
      return;
    }
    case FormulaKind::kNot:
      CollectPatterns(static_cast<const NotFormula&>(*f).sub(), so_names,
                      patterns);
      return;
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      CollectPatterns(b.lhs(), so_names, patterns);
      CollectPatterns(b.rhs(), so_names, patterns);
      return;
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      CollectPatterns(static_cast<const QuantFormula&>(*f).body(), so_names,
                      patterns);
      return;
    default:
      return;
  }
}

// Rewrites SO atoms to view atoms applied at the identity tuple
// (x1,...,xk).
FormulaPtr RewriteAtoms(const FormulaPtr& f,
                        const std::set<std::string>& so_names,
                        const std::vector<std::size_t>& identity) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kEquals:
      return f;
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      if (!so_names.count(atom.pred())) return f;
      return Atom(ViewName(atom.pred(), atom.args()), identity);
    }
    case FormulaKind::kNot: {
      const auto& nf = static_cast<const NotFormula&>(*f);
      return Not(RewriteAtoms(nf.sub(), so_names, identity));
    }
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      return std::make_shared<BinaryFormula>(
          f->kind(), RewriteAtoms(b.lhs(), so_names, identity),
          RewriteAtoms(b.rhs(), so_names, identity));
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      return std::make_shared<QuantFormula>(
          f->kind(), q.var(), RewriteAtoms(q.body(), so_names, identity));
    }
    default:
      return f;
  }
}

}  // namespace

Result<FormulaPtr> EsoArityReduce(const FormulaPtr& formula,
                                  std::size_t num_vars) {
  std::vector<SoBinder> binders;
  FormulaPtr matrix = PeelPrefix(formula, &binders);
  if (!IsFirstOrder(matrix)) {
    return Status::Unsupported(
        "EsoArityReduce expects an SO-exists prefix over an FO matrix");
  }
  std::set<std::string> so_names;
  for (const SoBinder& b : binders) so_names.insert(b.name);

  std::map<std::string, std::set<std::vector<std::size_t>>> patterns;
  CollectPatterns(matrix, so_names, &patterns);

  std::vector<std::size_t> identity(num_vars);
  for (std::size_t j = 0; j < num_vars; ++j) identity[j] = j;

  FormulaPtr rewritten = RewriteAtoms(matrix, so_names, identity);

  // Consistency assertions (see header): for patterns p, q of the same
  // relation and k-tuples w̅, v̅ over the variables with w̅∘p == v̅∘q,
  // assert forall x̄ (V_p(w̅) <-> V_q(v̅)).
  std::vector<FormulaPtr> axioms;
  const std::size_t k = num_vars;
  TupleIndexer tuple_space(k, k);  // k-tuples over variable indices
  for (const auto& [rel, pats] : patterns) {
    std::vector<std::vector<std::size_t>> plist(pats.begin(), pats.end());
    for (std::size_t pi = 0; pi < plist.size(); ++pi) {
      for (std::size_t qi = pi; qi < plist.size(); ++qi) {
        const auto& p = plist[pi];
        const auto& q = plist[qi];
        if (p.size() != q.size()) continue;  // cannot coincide
        std::vector<uint32_t> w(k), v(k);
        for (std::size_t wr = 0; wr < tuple_space.NumTuples(); ++wr) {
          tuple_space.Unrank(wr, w.data());
          for (std::size_t vr = 0; vr < tuple_space.NumTuples(); ++vr) {
            if (pi == qi && vr <= wr) continue;  // symmetric / trivial
            tuple_space.Unrank(vr, v.data());
            bool coincide = true;
            for (std::size_t m = 0; m < p.size(); ++m) {
              if (w[p[m]] != v[q[m]]) {
                coincide = false;
                break;
              }
            }
            if (!coincide) continue;
            std::vector<std::size_t> wargs(w.begin(), w.end());
            std::vector<std::size_t> vargs(v.begin(), v.end());
            FormulaPtr ax = Iff(Atom(ViewName(rel, p), wargs),
                                Atom(ViewName(rel, q), vargs));
            for (std::size_t j = k; j-- > 0;) {
              ax = ForAll(j, std::move(ax));
            }
            axioms.push_back(std::move(ax));
          }
        }
      }
    }
  }

  FormulaPtr body = rewritten;
  if (!axioms.empty()) {
    body = And(std::move(body), AndAll(std::move(axioms)));
  }
  // Quantify the views (k-ary each).
  for (const auto& [rel, pats] : patterns) {
    for (const auto& p : pats) {
      body = SoExists(ViewName(rel, p), num_vars, std::move(body));
    }
  }
  // Relations that never occur in the matrix need no quantifier at all.
  return body;
}

// ---------------------------------------------------------------------------
// Grounding + SAT evaluation (Corollary 3.7).
// ---------------------------------------------------------------------------

namespace {

struct CellKey {
  std::string rel;
  Tuple cell;
  bool operator<(const CellKey& o) const {
    if (rel != o.rel) return rel < o.rel;
    return cell < o.cell;
  }
};

class Grounder {
 public:
  Grounder(const Database& db, std::size_t num_vars, std::size_t max_nodes)
      : db_(&db),
        num_vars_(num_vars),
        idx_(db.domain_size(), num_vars),
        max_nodes_(max_nodes),
        builder_(&cnf_) {}

  Result<sat::Lit> Ground(const FormulaPtr& f, std::size_t rank) {
    if (cnf_.num_vars > static_cast<int>(max_nodes_)) {
      return Status::ResourceExhausted("grounded circuit too large");
    }
    const std::pair<const Formula*, std::size_t> key(f.get(), rank);
    auto memo = memo_.find(key);
    if (memo != memo_.end()) return memo->second;
    auto lit = GroundUncached(f, rank);
    if (!lit.ok()) return lit;
    memo_.emplace(key, *lit);
    return lit;
  }

  // Rejects second-order quantifiers in non-positive positions.
  Status CheckSoPolarity(const FormulaPtr& f, bool positive) const {
    switch (f->kind()) {
      case FormulaKind::kTrue:
      case FormulaKind::kFalse:
      case FormulaKind::kAtom:
      case FormulaKind::kEquals:
        return Status::OK();
      case FormulaKind::kNot:
        return CheckSoPolarity(static_cast<const NotFormula&>(*f).sub(),
                               !positive);
      case FormulaKind::kAnd:
      case FormulaKind::kOr: {
        const auto& b = static_cast<const BinaryFormula&>(*f);
        BVQ_RETURN_IF_ERROR(CheckSoPolarity(b.lhs(), positive));
        return CheckSoPolarity(b.rhs(), positive);
      }
      case FormulaKind::kImplies: {
        const auto& b = static_cast<const BinaryFormula&>(*f);
        BVQ_RETURN_IF_ERROR(CheckSoPolarity(b.lhs(), !positive));
        return CheckSoPolarity(b.rhs(), positive);
      }
      case FormulaKind::kIff: {
        const auto& b = static_cast<const BinaryFormula&>(*f);
        // Both polarities: SO quantifiers must not occur at all below.
        LanguageClass cl = ClassifyLanguage(f);
        if (!cl.first_order) {
          return Status::Unsupported(
              "second-order quantifier under <-> is outside ESO");
        }
        (void)b;
        return Status::OK();
      }
      case FormulaKind::kExists:
      case FormulaKind::kForAll:
        return CheckSoPolarity(static_cast<const QuantFormula&>(*f).body(),
                               positive);
      case FormulaKind::kFixpoint:
        return Status::Unsupported(
            "fixpoints are not part of the ESO fragment");
      case FormulaKind::kSecondOrderExists: {
        if (!positive) {
          return Status::Unsupported(
              "second-order quantifier in negative position is outside ESO");
        }
        return CheckSoPolarity(
            static_cast<const SoExistsFormula&>(*f).body(), positive);
      }
    }
    return Status::OK();
  }

  sat::Cnf& cnf() { return cnf_; }
  sat::CircuitBuilder& builder() { return builder_; }
  const std::map<CellKey, int>& cells() const { return cells_; }
  /// Declared arity of every SO-quantified variable seen while grounding,
  /// including ones the matrix never mentions (zero cells).
  const std::map<std::string, std::size_t>& so_arities() const {
    return so_arity_;
  }
  std::size_t num_so_cells() const { return cells_.size(); }

 private:
  Result<sat::Lit> GroundUncached(const FormulaPtr& f, std::size_t rank) {
    switch (f->kind()) {
      case FormulaKind::kTrue:
        return builder_.True();
      case FormulaKind::kFalse:
        return builder_.False();
      case FormulaKind::kAtom: {
        const auto& atom = static_cast<const AtomFormula&>(*f);
        Tuple cell(atom.args().size());
        for (std::size_t j = 0; j < atom.args().size(); ++j) {
          if (atom.args()[j] >= num_vars_) {
            return Status::TypeError("atom variable out of range");
          }
          cell[j] = idx_.Digit(rank, atom.args()[j]);
        }
        if (so_arity_.count(atom.pred())) {
          if (so_arity_[atom.pred()] != atom.args().size()) {
            return Status::TypeError(
                StrCat("arity mismatch for ", atom.pred()));
          }
          CellKey key{atom.pred(), cell};
          auto it = cells_.find(key);
          int var;
          if (it == cells_.end()) {
            var = cnf_.NewVar();
            cells_.emplace(std::move(key), var);
          } else {
            var = it->second;
          }
          return sat::Lit(var, false);
        }
        auto rel = db_->GetRelation(atom.pred());
        if (!rel.ok()) return rel.status();
        if ((*rel)->arity() != atom.args().size()) {
          return Status::TypeError(
              StrCat("arity mismatch for ", atom.pred()));
        }
        return (*rel)->Contains(cell) ? builder_.True() : builder_.False();
      }
      case FormulaKind::kEquals: {
        const auto& eq = static_cast<const EqualsFormula&>(*f);
        return idx_.Digit(rank, eq.lhs()) == idx_.Digit(rank, eq.rhs())
                   ? builder_.True()
                   : builder_.False();
      }
      case FormulaKind::kNot: {
        auto sub = Ground(static_cast<const NotFormula&>(*f).sub(), rank);
        if (!sub.ok()) return sub;
        return builder_.Not(*sub);
      }
      case FormulaKind::kAnd:
      case FormulaKind::kOr:
      case FormulaKind::kImplies:
      case FormulaKind::kIff: {
        const auto& b = static_cast<const BinaryFormula&>(*f);
        auto lhs = Ground(b.lhs(), rank);
        if (!lhs.ok()) return lhs;
        auto rhs = Ground(b.rhs(), rank);
        if (!rhs.ok()) return rhs;
        switch (f->kind()) {
          case FormulaKind::kAnd:
            return builder_.And(*lhs, *rhs);
          case FormulaKind::kOr:
            return builder_.Or(*lhs, *rhs);
          case FormulaKind::kImplies:
            return builder_.Implies(*lhs, *rhs);
          default:
            return builder_.Iff(*lhs, *rhs);
        }
      }
      case FormulaKind::kExists:
      case FormulaKind::kForAll: {
        const auto& q = static_cast<const QuantFormula&>(*f);
        if (q.var() >= num_vars_) {
          return Status::TypeError("quantified variable out of range");
        }
        std::vector<sat::Lit> parts;
        parts.reserve(db_->domain_size());
        for (std::size_t v = 0; v < db_->domain_size(); ++v) {
          auto part = Ground(
              q.body(), idx_.WithDigit(rank, q.var(),
                                       static_cast<Value>(v)));
          if (!part.ok()) return part;
          parts.push_back(*part);
        }
        return f->kind() == FormulaKind::kExists ? builder_.OrAll(parts)
                                                 : builder_.AndAll(parts);
      }
      case FormulaKind::kFixpoint:
        return Status::Unsupported(
            "fixpoints are not part of the ESO fragment");
      case FormulaKind::kSecondOrderExists: {
        const auto& so = static_cast<const SoExistsFormula&>(*f);
        // The SAT solver's search over the cell variables realizes the
        // second-order existential (positive polarity was checked).
        // Scoping is flattened, so names must be globally unique and must
        // not shadow database relations.
        if (db_->HasRelation(so.rel_var())) {
          return Status::Unsupported(
              StrCat("second-order variable ", so.rel_var(),
                     " shadows a database relation; rename it"));
        }
        auto existing = so_arity_.find(so.rel_var());
        if (existing != so_arity_.end() && existing->second != so.arity()) {
          return Status::Unsupported(
              StrCat("second-order variable ", so.rel_var(),
                     " re-quantified with a different arity"));
        }
        so_arity_.emplace(so.rel_var(), so.arity());
        auto body = Ground(so.body(), rank);
        return body;
      }
    }
    return Status::Internal("unreachable formula kind");
  }

  const Database* db_;
  std::size_t num_vars_;
  TupleIndexer idx_;
  std::size_t max_nodes_;
  sat::Cnf cnf_;
  sat::CircuitBuilder builder_;
  std::map<std::string, std::size_t> so_arity_;
  std::map<CellKey, int> cells_;
  std::map<std::pair<const Formula*, std::size_t>, sat::Lit> memo_;
};

}  // namespace

namespace {

/// Folds the stats of one SAT call into the sweep totals: solver counters
/// add up, CNF sizes report the largest call.
// Heap bytes of a grounded CNF (clause headers + literal payloads), the
// quantity the governor accounts for the grounding.
std::size_t CnfBytes(const sat::Cnf& cnf) {
  std::size_t bytes = cnf.clauses.size() * sizeof(sat::Clause);
  for (const sat::Clause& c : cnf.clauses) bytes += c.size() * sizeof(sat::Lit);
  return bytes;
}

void AccumulateStats(const EsoEvalStats& call, EsoEvalStats* total) {
  total->cnf_vars = std::max(total->cnf_vars, call.cnf_vars);
  total->cnf_clauses = std::max(total->cnf_clauses, call.cnf_clauses);
  total->so_cells = std::max(total->so_cells, call.so_cells);
  total->solver.decisions += call.solver.decisions;
  total->solver.propagations += call.solver.propagations;
  total->solver.conflicts += call.solver.conflicts;
  total->solver.learned_clauses += call.solver.learned_clauses;
  total->solver.restarts += call.solver.restarts;
  total->solver.deleted_clauses += call.solver.deleted_clauses;
  total->solver.db_reductions += call.solver.db_reductions;
  total->solver.minimized_literals += call.solver.minimized_literals;
  total->solver.solve_calls += call.solver.solve_calls;
}

}  // namespace

EsoEvaluator::EsoEvaluator(const Database& db, std::size_t num_vars,
                           EsoEvalOptions options)
    : db_(&db), num_vars_(num_vars), options_(options) {}

sat::SolverOptions EsoEvaluator::SolverOptionsWithGovernor() const {
  sat::SolverOptions solver = options_.solver;
  if (solver.governor == nullptr) solver.governor = options_.governor;
  return solver;
}

Result<bool> EsoEvaluator::HoldsRank(const FormulaPtr& formula,
                                     std::size_t rank, EsoWitness* witness,
                                     EsoEvalStats* stats) const {
  ResourceGovernor* const governor = options_.governor;
  if (governor != nullptr) BVQ_RETURN_IF_ERROR(governor->Check());
  Grounder grounder(*db_, num_vars_, options_.max_ground_nodes);
  BVQ_RETURN_IF_ERROR(grounder.CheckSoPolarity(formula, true));
  auto root = grounder.Ground(formula, rank);
  if (!root.ok()) return root.status();
  grounder.builder().AssertTrue(*root);

  stats->cnf_vars = grounder.cnf().num_vars;
  stats->cnf_clauses = grounder.cnf().clauses.size();
  stats->so_cells = grounder.num_so_cells();

  ScopedCharge cnf_charge;
  BVQ_RETURN_IF_ERROR(cnf_charge.Add(governor, CnfBytes(grounder.cnf())));
  sat::Solver solver(SolverOptionsWithGovernor());
  sat::SolveResult result = solver.Solve(grounder.cnf());
  stats->solver = solver.stats();
  if (result.status == sat::SolveStatus::kInterrupted) {
    return governor != nullptr
               ? governor->status()
               : Status::ResourceExhausted("SAT solve interrupted");
  }
  if (result.status == sat::SolveStatus::kUnknown) {
    return Status::ResourceExhausted("SAT solver exceeded conflict budget");
  }
  const bool sat = result.status == sat::SolveStatus::kSat;
  if (sat && witness != nullptr) {
    witness->clear();
    std::map<std::string, RelationBuilder> builders;
    for (const auto& [key, var] : grounder.cells()) {
      auto [it, inserted] =
          builders.try_emplace(key.rel, RelationBuilder(key.cell.size()));
      if (result.model[var]) it->second.Add(key.cell);
    }
    for (auto& [name, rb] : builders) {
      witness->emplace(name, rb.Build());
    }
    // An SO variable the matrix never mentions has no referenced cells,
    // but it is still existentially quantified: report it as the empty
    // relation of its declared arity instead of omitting it.
    for (const auto& [name, arity] : grounder.so_arities()) {
      witness->try_emplace(name, Relation(arity));
    }
  }
  return sat;
}

Result<bool> EsoEvaluator::Holds(const FormulaPtr& formula,
                                 const std::vector<Value>& assignment,
                                 EsoWitness* witness) {
  if (assignment.size() != num_vars_) {
    return Status::InvalidArgument("assignment size must equal num_vars");
  }
  TupleIndexer idx(db_->domain_size(), num_vars_);
  stats_ = EsoEvalStats();
  stats_.sat_calls = 1;
  stats_.groundings = 1;
  return HoldsRank(formula, idx.Rank(assignment), witness, &stats_);
}

Result<AssignmentSet> EsoEvaluator::EvaluateIncremental(
    const FormulaPtr& formula) {
  const std::size_t n = db_->domain_size();
  AssignmentSet out(n, num_vars_);
  TupleIndexer idx(n, num_vars_);
  const std::size_t total = idx.NumTuples();
  stats_ = EsoEvalStats();

  // Ground once for the whole sweep. The per-(node, rank) memo means the
  // n^k roots share every closed subcircuit; each root literal is the
  // selector for its tuple.
  ResourceGovernor* const governor = options_.governor;
  ScopedCharge charge;
  // The answer cube lives for the whole sweep.
  BVQ_RETURN_IF_ERROR(charge.Add(governor, out.ByteSize()));
  Grounder grounder(*db_, num_vars_, options_.max_ground_nodes);
  BVQ_RETURN_IF_ERROR(grounder.CheckSoPolarity(formula, true));
  std::vector<sat::Lit> roots(total);
  for (std::size_t r = 0; r < total; ++r) {
    // Per-rank poll: grounding a rank is the sweep's unit of work before
    // any solver runs.
    if (governor != nullptr) BVQ_RETURN_IF_ERROR(governor->Check());
    auto root = grounder.Ground(formula, r);
    if (!root.ok()) return root.status();
    roots[r] = *root;
  }
  stats_.cnf_vars = grounder.cnf().num_vars;
  stats_.cnf_clauses = grounder.cnf().clauses.size();
  stats_.so_cells = grounder.num_so_cells();
  stats_.groundings = total == 0 ? 0 : 1;
  stats_.sat_calls = total;
  // The grounded CNF is the sweep's dominant long-lived allocation; the
  // solver charges its own (attached + learnt) clause database on top.
  BVQ_RETURN_IF_ERROR(charge.Add(governor, CnfBytes(grounder.cnf())));

  // One incremental solver decides every tuple under the one-literal
  // assumption {root}: the Tseitin definitions are equivalences, so the
  // unasserted circuits of the other tuples do not constrain anything, and
  // learnt clauses carry over from re-solve to re-solve.
  sat::Solver solver(SolverOptionsWithGovernor());
  std::vector<sat::Lit> assumption(1);
  for (std::size_t r = 0; r < total; ++r) {
    assumption[0] = roots[r];
    sat::SolveResult result = solver.Solve(grounder.cnf(), assumption);
    if (result.status == sat::SolveStatus::kInterrupted) {
      stats_.solver = solver.stats();
      return governor != nullptr
                 ? governor->status()
                 : Status::ResourceExhausted("SAT solve interrupted");
    }
    if (result.status == sat::SolveStatus::kUnknown) {
      stats_.solver = solver.stats();
      return Status::ResourceExhausted("SAT solver exceeded conflict budget");
    }
    if (result.status == sat::SolveStatus::kSat) out.Set(r);
  }
  stats_.solver = solver.stats();
  return out;
}

Result<AssignmentSet> EsoEvaluator::EvaluateScratch(const FormulaPtr& formula) {
  const std::size_t n = db_->domain_size();
  AssignmentSet out(n, num_vars_);
  TupleIndexer idx(n, num_vars_);
  const std::size_t total = idx.NumTuples();
  stats_ = EsoEvalStats();
  for (std::size_t r = 0; r < total; ++r) {
    EsoEvalStats call;
    auto holds = HoldsRank(formula, r, nullptr, &call);
    if (!holds.ok()) return holds.status();
    AccumulateStats(call, &stats_);
    if (*holds) out.Set(r);
  }
  stats_.sat_calls = total;
  stats_.groundings = total;
  return out;
}

Result<AssignmentSet> EsoEvaluator::Evaluate(const FormulaPtr& formula) {
  return options_.incremental ? EvaluateIncremental(formula)
                              : EvaluateScratch(formula);
}

}  // namespace bvq
