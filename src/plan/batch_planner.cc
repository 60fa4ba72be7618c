#include "plan/batch_planner.h"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

namespace bvq::plan {

namespace {

// Children of a formula node, in AST order. Structural only: the planner
// never interprets semantics, it just mirrors the shape FormulaIndex hashed.
std::vector<FormulaPtr> ChildrenOf(const FormulaPtr& f) {
  switch (f->kind()) {
    case FormulaKind::kTrue:
    case FormulaKind::kFalse:
    case FormulaKind::kAtom:
    case FormulaKind::kEquals:
      return {};
    case FormulaKind::kNot:
      return {static_cast<const NotFormula&>(*f).sub()};
    case FormulaKind::kAnd:
    case FormulaKind::kOr:
    case FormulaKind::kImplies:
    case FormulaKind::kIff: {
      const auto& b = static_cast<const BinaryFormula&>(*f);
      return {b.lhs(), b.rhs()};
    }
    case FormulaKind::kExists:
    case FormulaKind::kForAll:
      return {static_cast<const QuantFormula&>(*f).body()};
    case FormulaKind::kFixpoint:
      return {static_cast<const FixpointFormula&>(*f).body()};
    case FormulaKind::kSecondOrderExists:
      return {static_cast<const SoExistsFormula&>(*f).body()};
  }
  return {};
}

}  // namespace

Result<BatchPlan> PlanBatch(std::vector<Query> queries, const Database& db,
                            std::size_t session_num_vars,
                            FormulaInterner* interner) {
  if (interner == nullptr) {
    return Status::InvalidArgument("PlanBatch: interner must be non-null");
  }
  BatchPlan plan;
  plan.queries = std::move(queries);
  plan.num_vars.reserve(plan.queries.size());
  plan.stats.queries = plan.queries.size();

  // Node identity is (class, effective k): the answer-cache key includes k,
  // so the same subtree planned under two different k values cannot share a
  // cached answer and must be two nodes.
  std::map<std::pair<std::size_t, std::size_t>, std::size_t> node_ids;
  std::size_t per_query_class_sum = 0;

  for (std::size_t qi = 0; qi < plan.queries.size(); ++qi) {
    const Query& query = plan.queries[qi];
    std::size_t k = session_num_vars;
    const std::size_t needed = NumVariables(query.formula);
    if (needed > k) k = needed;
    plan.num_vars.push_back(k);

    FormulaIndex index(query.formula, interner);
    // Iterative post-order walk so children are interned as nodes before
    // their parents (stages then come out in one pass). `expanded` marks a
    // frame whose children are already pushed.
    std::set<std::size_t> seen_classes;  // this query's distinct classes
    std::vector<std::pair<FormulaPtr, bool>> stack;
    stack.emplace_back(query.formula, false);
    while (!stack.empty()) {
      auto [f, expanded] = stack.back();
      stack.pop_back();
      const FormulaIndex::NodeFacts& facts = index.Facts(f.get());
      const std::size_t cls = facts.cls;
      const auto key = std::make_pair(cls, k);
      if (!expanded) {
        if (node_ids.count(key) != 0) {
          // Node already built (by this or an earlier query); just record
          // this query as an owner of the whole subtree.
          std::vector<std::size_t> pending{node_ids[key]};
          while (!pending.empty()) {
            BatchNode& node = plan.nodes[pending.back()];
            pending.pop_back();
            if (!node.owners.empty() && node.owners.back() == qi) continue;
            node.owners.push_back(qi);
            seen_classes.insert(node.cls);
            pending.insert(pending.end(), node.children.begin(),
                           node.children.end());
          }
          continue;
        }
        stack.emplace_back(f, true);
        for (const FormulaPtr& child : ChildrenOf(f)) {
          stack.emplace_back(child, false);
        }
        continue;
      }
      if (node_ids.count(key) != 0) {
        // A sibling occurrence of the same class was finished first.
        continue;
      }
      BatchNode node;
      node.cls = cls;
      node.formula = f;
      node.num_vars = k;
      node.owners.push_back(qi);
      std::set<std::size_t> child_set;
      for (const FormulaPtr& child : ChildrenOf(f)) {
        const std::size_t child_cls = index.Facts(child.get()).cls;
        child_set.insert(node_ids.at(std::make_pair(child_cls, k)));
      }
      node.children.assign(child_set.begin(), child_set.end());
      node.stage = 0;
      for (const std::size_t ci : node.children) {
        node.stage = std::max(node.stage, plan.nodes[ci].stage + 1);
      }
      node.db_only = true;
      for (const std::size_t pred : index.FreeRelVars(facts.slot)) {
        if (db.relation_version(index.PredName(pred)) == 0) {
          node.db_only = false;
          break;
        }
      }
      seen_classes.insert(cls);
      node_ids[key] = plan.nodes.size();
      plan.nodes.push_back(std::move(node));
    }
    per_query_class_sum += seen_classes.size();
  }

  // Materialization selection: shared, database-only, maximal. Roots first
  // (descending stage) so a selected ancestor marks its whole subtree as
  // covered — evaluating the ancestor exports every database-only
  // descendant into the cache, making a separate pass redundant.
  std::vector<std::size_t> order(plan.nodes.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return plan.nodes[a].stage > plan.nodes[b].stage;
                   });
  std::vector<bool> covered(plan.nodes.size(), false);
  for (const std::size_t ni : order) {
    BatchNode& node = plan.nodes[ni];
    if (covered[ni] || !node.db_only || node.owners.size() < 2) continue;
    node.materialize = true;
    ++plan.stats.materialized;
    std::vector<std::size_t> pending(node.children);
    while (!pending.empty()) {
      const std::size_t ci = pending.back();
      pending.pop_back();
      if (covered[ci]) continue;
      covered[ci] = true;
      pending.insert(pending.end(), plan.nodes[ci].children.begin(),
                     plan.nodes[ci].children.end());
    }
  }

  plan.stats.nodes = plan.nodes.size();
  for (const BatchNode& node : plan.nodes) {
    if (node.owners.size() >= 2) ++plan.stats.shared_nodes;
    plan.stats.stages = std::max(plan.stats.stages, node.stage + 1);
  }
  plan.stats.dedup_ratio =
      plan.nodes.empty() ? 1.0
                         : static_cast<double>(per_query_class_sum) /
                               static_cast<double>(plan.nodes.size());

  // plan.nodes is already in topological order: the walk is post-order, so
  // every child was constructed (and given a smaller index) before each of
  // its parents. Iterating nodes in index order therefore never visits a
  // parent before its children — the property the executor relies on.
  return plan;
}

}  // namespace bvq::plan
