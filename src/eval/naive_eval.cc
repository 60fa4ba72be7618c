#include "eval/naive_eval.h"

#include "common/index.h"
#include "common/strings.h"

namespace bvq {

NaiveEvaluator::NaiveEvaluator(const Database& db, std::size_t max_tuples)
    : db_(&db), max_tuples_(max_tuples) {}

Status NaiveEvaluator::Record(const VarRelation& r) {
  stats_.max_intermediate_arity =
      std::max(stats_.max_intermediate_arity, r.vars.size());
  stats_.max_intermediate_tuples =
      std::max(stats_.max_intermediate_tuples, r.rel.size());
  stats_.total_intermediate_tuples += r.rel.size();
  if (governor_ != nullptr) {
    // Intermediates die as the recursion unwinds, so they are transients:
    // peak + budget accounting without a retained charge.
    return governor_->NoteTransient(r.rel.ByteSize());
  }
  return Status::OK();
}

Result<VarRelation> NaiveEvaluator::Evaluate(const FormulaPtr& formula) {
  return Eval(formula);
}

Result<Relation> NaiveEvaluator::EvaluateQuery(const Query& query) {
  auto r = Eval(query.formula);
  if (!r.ok()) return r.status();
  return AnswerTuple(*r, query.answer_vars, db_->domain_size());
}

Result<VarRelation> NaiveEvaluator::Eval(const FormulaPtr& f) {
  const std::size_t n = db_->domain_size();
  // Per-node token poll, the same cancellation grain as BoundedEvaluator.
  if (governor_ != nullptr) BVQ_RETURN_IF_ERROR(governor_->Check());
  auto guard = [&](VarRelation r) -> Result<VarRelation> {
    if (r.rel.size() > max_tuples_) {
      return Status::ResourceExhausted(
          StrCat("naive intermediate of arity ", r.vars.size(), " with ",
                 r.rel.size(), " tuples exceeds the limit"));
    }
    BVQ_RETURN_IF_ERROR(Record(r));
    return r;
  };
  auto guard_full = [&](std::size_t arity) -> Status {
    if (TupleIndexer::Exceeds(n, arity, max_tuples_)) {
      return Status::ResourceExhausted(
          StrCat("naive evaluation needs D^", arity, " with |D|=", n,
                 ", exceeding the limit"));
    }
    return Status::OK();
  };

  switch (f->kind()) {
    case FormulaKind::kTrue:
      return guard({{}, Relation::Proposition(true)});
    case FormulaKind::kFalse:
      return guard({{}, Relation::Proposition(false)});
    case FormulaKind::kAtom: {
      const auto& atom = static_cast<const AtomFormula&>(*f);
      auto rel = db_->GetRelation(atom.pred());
      if (!rel.ok()) return rel.status();
      if ((*rel)->arity() != atom.args().size()) {
        return Status::TypeError(
            StrCat("relation ", atom.pred(), " has arity ", (*rel)->arity(),
                   ", used with ", atom.args().size()));
      }
      return guard(FromAtom(**rel, atom.args()));
    }
    case FormulaKind::kEquals: {
      const auto& eq = static_cast<const EqualsFormula&>(*f);
      return guard(EqualityRelation(eq.lhs(), eq.rhs(), n));
    }
    case FormulaKind::kNot: {
      auto sub = Eval(static_cast<const NotFormula&>(*f).sub());
      if (!sub.ok()) return sub;
      BVQ_RETURN_IF_ERROR(guard_full(sub->vars.size()));
      BVQ_ASSIGN_OR_RETURN(VarRelation neg, Complement(*sub, n));
      return guard(std::move(neg));
    }
    case FormulaKind::kAnd: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      auto lhs = Eval(b.lhs());
      if (!lhs.ok()) return lhs;
      auto rhs = Eval(b.rhs());
      if (!rhs.ok()) return rhs;
      return guard(Join(*lhs, *rhs));
    }
    case FormulaKind::kOr: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      auto lhs = Eval(b.lhs());
      if (!lhs.ok()) return lhs;
      auto rhs = Eval(b.rhs());
      if (!rhs.ok()) return rhs;
      // The union pads each side with the other's variables: this cross
      // product with the domain is the naive evaluator's blow-up point.
      std::size_t out_arity = lhs->vars.size() + rhs->vars.size();
      BVQ_RETURN_IF_ERROR(guard_full(out_arity));
      BVQ_ASSIGN_OR_RETURN(VarRelation u, Union(*lhs, *rhs, n));
      return guard(std::move(u));
    }
    case FormulaKind::kImplies: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      auto lhs = Eval(b.lhs());
      if (!lhs.ok()) return lhs;
      auto rhs = Eval(b.rhs());
      if (!rhs.ok()) return rhs;
      BVQ_RETURN_IF_ERROR(guard_full(lhs->vars.size()));
      BVQ_ASSIGN_OR_RETURN(VarRelation neg, Complement(*lhs, n));
      BVQ_RETURN_IF_ERROR(guard_full(neg.vars.size() + rhs->vars.size()));
      BVQ_ASSIGN_OR_RETURN(VarRelation u, Union(neg, *rhs, n));
      return guard(std::move(u));
    }
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      auto lhs = Eval(b.lhs());
      if (!lhs.ok()) return lhs;
      auto rhs = Eval(b.rhs());
      if (!rhs.ok()) return rhs;
      BVQ_RETURN_IF_ERROR(guard_full(lhs->vars.size()));
      BVQ_RETURN_IF_ERROR(guard_full(rhs->vars.size()));
      BVQ_ASSIGN_OR_RETURN(VarRelation nl, Complement(*lhs, n));
      BVQ_ASSIGN_OR_RETURN(VarRelation nr, Complement(*rhs, n));
      BVQ_ASSIGN_OR_RETURN(VarRelation fwd,
                           Union(nl, *rhs, n));  // lhs -> rhs
      Record(fwd);
      BVQ_ASSIGN_OR_RETURN(VarRelation bwd,
                           Union(nr, *lhs, n));  // rhs -> lhs
      Record(bwd);
      return guard(Join(fwd, bwd));
    }
    case FormulaKind::kExists: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      auto body = Eval(q.body());
      if (!body.ok()) return body;
      return guard(ProjectOut(*body, q.var()));
    }
    case FormulaKind::kForAll: {
      const auto& q = static_cast<const QuantFormula&>(*f);
      auto body = Eval(q.body());
      if (!body.ok()) return body;
      // forall x . phi == !(exists x . !phi)
      BVQ_RETURN_IF_ERROR(guard_full(body->vars.size()));
      BVQ_ASSIGN_OR_RETURN(VarRelation neg, Complement(*body, n));
      Record(neg);
      VarRelation proj = ProjectOut(neg, q.var());
      Record(proj);
      BVQ_ASSIGN_OR_RETURN(VarRelation comp, Complement(proj, n));
      return guard(std::move(comp));
    }
    case FormulaKind::kFixpoint:
    case FormulaKind::kSecondOrderExists:
      return Status::Unsupported(
          "NaiveEvaluator handles first-order formulas only");
  }
  return Status::Internal("unreachable formula kind");
}

}  // namespace bvq
