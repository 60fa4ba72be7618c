#include "db/relalg.h"

#include <algorithm>
#include <unordered_map>

#include "common/index.h"
#include "common/strings.h"

namespace bvq {

namespace {

// Positions (column indices) in `vars` of each element of `subset`.
// Both inputs sorted; subset must be a subset of vars.
std::vector<std::size_t> PositionsOf(const std::vector<std::size_t>& vars,
                                     const std::vector<std::size_t>& subset) {
  std::vector<std::size_t> pos;
  pos.reserve(subset.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < vars.size() && j < subset.size(); ++i) {
    if (vars[i] == subset[j]) {
      pos.push_back(i);
      ++j;
    }
  }
  assert(j == subset.size());
  return pos;
}

std::vector<std::size_t> SortedIntersection(
    const std::vector<std::size_t>& a, const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

std::vector<std::size_t> SortedUnion(const std::vector<std::size_t>& a,
                                     const std::vector<std::size_t>& b) {
  std::vector<std::size_t> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

struct KeyHash {
  std::size_t operator()(const std::vector<Value>& key) const {
    std::size_t h = 1469598103934665603ull;
    for (Value v : key) {
      h ^= v;
      h *= 1099511628211ull;
    }
    return h;
  }
};

using KeyIndex =
    std::unordered_map<std::vector<Value>, std::vector<std::size_t>, KeyHash>;

KeyIndex BuildIndex(const Relation& rel,
                    const std::vector<std::size_t>& key_cols) {
  KeyIndex index;
  std::vector<Value> key(key_cols.size());
  for (std::size_t i = 0; i < rel.size(); ++i) {
    const Value* row = rel.tuple(i);
    for (std::size_t j = 0; j < key_cols.size(); ++j) {
      key[j] = row[key_cols[j]];
    }
    index[key].push_back(i);
  }
  return index;
}

}  // namespace

VarRelation Join(const VarRelation& a, const VarRelation& b) {
  const std::vector<std::size_t> shared = SortedIntersection(a.vars, b.vars);
  const std::vector<std::size_t> out_vars = SortedUnion(a.vars, b.vars);
  const std::vector<std::size_t> a_key = PositionsOf(a.vars, shared);
  const std::vector<std::size_t> b_key = PositionsOf(b.vars, shared);

  // For each output column, where it comes from: (from_a, column index).
  struct Source {
    bool from_a;
    std::size_t col;
  };
  std::vector<Source> sources;
  sources.reserve(out_vars.size());
  for (std::size_t v : out_vars) {
    auto ia = std::lower_bound(a.vars.begin(), a.vars.end(), v);
    if (ia != a.vars.end() && *ia == v) {
      sources.push_back(
          {true, static_cast<std::size_t>(ia - a.vars.begin())});
    } else {
      auto ib = std::lower_bound(b.vars.begin(), b.vars.end(), v);
      sources.push_back(
          {false, static_cast<std::size_t>(ib - b.vars.begin())});
    }
  }

  KeyIndex index = BuildIndex(b.rel, b_key);
  RelationBuilder out(out_vars.size());
  std::vector<Value> key(a_key.size());
  std::vector<Value> row(out_vars.size());
  for (std::size_t i = 0; i < a.rel.size(); ++i) {
    const Value* ra = a.rel.tuple(i);
    for (std::size_t j = 0; j < a_key.size(); ++j) key[j] = ra[a_key[j]];
    auto it = index.find(key);
    if (it == index.end()) continue;
    for (std::size_t bi : it->second) {
      const Value* rb = b.rel.tuple(bi);
      for (std::size_t c = 0; c < sources.size(); ++c) {
        row[c] = sources[c].from_a ? ra[sources[c].col] : rb[sources[c].col];
      }
      out.Add(row.data());
    }
  }
  return {out_vars, out.Build()};
}

VarRelation Semijoin(const VarRelation& a, const VarRelation& b) {
  const std::vector<std::size_t> shared = SortedIntersection(a.vars, b.vars);
  const std::vector<std::size_t> a_key = PositionsOf(a.vars, shared);
  const std::vector<std::size_t> b_key = PositionsOf(b.vars, shared);
  KeyIndex index = BuildIndex(b.rel, b_key);
  RelationBuilder out(a.vars.size());
  std::vector<Value> key(a_key.size());
  for (std::size_t i = 0; i < a.rel.size(); ++i) {
    const Value* ra = a.rel.tuple(i);
    for (std::size_t j = 0; j < a_key.size(); ++j) key[j] = ra[a_key[j]];
    if (index.count(key)) out.Add(ra);
  }
  return {a.vars, out.Build()};
}

VarRelation Antijoin(const VarRelation& a, const VarRelation& b) {
  const std::vector<std::size_t> shared = SortedIntersection(a.vars, b.vars);
  const std::vector<std::size_t> a_key = PositionsOf(a.vars, shared);
  const std::vector<std::size_t> b_key = PositionsOf(b.vars, shared);
  KeyIndex index = BuildIndex(b.rel, b_key);
  RelationBuilder out(a.vars.size());
  std::vector<Value> key(a_key.size());
  for (std::size_t i = 0; i < a.rel.size(); ++i) {
    const Value* ra = a.rel.tuple(i);
    for (std::size_t j = 0; j < a_key.size(); ++j) key[j] = ra[a_key[j]];
    if (!index.count(key)) out.Add(ra);
  }
  return {a.vars, out.Build()};
}

Result<VarRelation> ExtendTo(const VarRelation& a,
                             const std::vector<std::size_t>& vars,
                             std::size_t domain_size) {
  if (vars == a.vars) return a;
  // Columns of the output that come from `a`, by output position; the rest
  // range over the whole domain.
  std::vector<std::ptrdiff_t> from;  // -1 = free column
  from.reserve(vars.size());
  std::size_t num_free = 0;
  for (std::size_t v : vars) {
    auto it = std::lower_bound(a.vars.begin(), a.vars.end(), v);
    if (it != a.vars.end() && *it == v) {
      from.push_back(it - a.vars.begin());
    } else {
      from.push_back(-1);
      ++num_free;
    }
  }
  std::vector<std::size_t> free_pos;
  for (std::size_t c = 0; c < from.size(); ++c) {
    if (from[c] < 0) free_pos.push_back(c);
  }
  // domain^num_free new rows per source tuple: this product wraps silently
  // in plain size_t arithmetic, so all three sizing factors are checked.
  BVQ_ASSIGN_OR_RETURN(const std::size_t combos,
                       CheckedPow(domain_size, num_free));
  std::size_t out_rows = 0;
  std::size_t out_values = 0;
  if (!CheckedMul(a.rel.size(), combos, &out_rows) ||
      !CheckedMul(out_rows, std::max<std::size_t>(vars.size(), 1),
                  &out_values)) {
    return Status::ResourceExhausted(
        StrCat("ExtendTo over ", vars.size(), " variables with |D|=",
               domain_size, " overflows the size type"));
  }
  RelationBuilder out(vars.size());
  std::vector<Value> row(vars.size());
  for (std::size_t i = 0; i < a.rel.size(); ++i) {
    const Value* ra = a.rel.tuple(i);
    for (std::size_t c = 0; c < from.size(); ++c) {
      if (from[c] >= 0) row[c] = ra[from[c]];
    }
    for (std::size_t combo = 0; combo < combos; ++combo) {
      std::size_t rem = combo;
      for (std::size_t f = 0; f < num_free; ++f) {
        row[free_pos[f]] = static_cast<Value>(rem % domain_size);
        rem /= domain_size;
      }
      out.Add(row.data());
    }
  }
  return VarRelation{vars, out.Build()};
}

Result<VarRelation> Union(const VarRelation& a, const VarRelation& b,
                          std::size_t domain_size) {
  const std::vector<std::size_t> out_vars = SortedUnion(a.vars, b.vars);
  BVQ_ASSIGN_OR_RETURN(VarRelation ea, ExtendTo(a, out_vars, domain_size));
  BVQ_ASSIGN_OR_RETURN(VarRelation eb, ExtendTo(b, out_vars, domain_size));
  RelationBuilder out(out_vars.size());
  ea.rel.ForEach([&](const Value* t) { out.Add(t); });
  eb.rel.ForEach([&](const Value* t) { out.Add(t); });
  return VarRelation{out_vars, out.Build()};
}

Result<VarRelation> Complement(const VarRelation& a,
                               std::size_t domain_size) {
  const std::size_t arity = a.vars.size();
  if (arity == 0) {
    return VarRelation{a.vars, Relation::Proposition(!a.rel.AsBool())};
  }
  BVQ_ASSIGN_OR_RETURN(const std::size_t total,
                       CheckedPow(domain_size, arity));
  std::size_t out_values = 0;
  if (!CheckedMul(total, arity, &out_values)) {
    return Status::ResourceExhausted(
        StrCat("Complement within D^", arity, " with |D|=", domain_size,
               " overflows the size type"));
  }
  RelationBuilder out(arity);
  std::vector<Value> row(arity, 0);
  for (std::size_t rank = 0; rank < total; ++rank) {
    std::size_t rem = rank;
    for (std::size_t j = 0; j < arity; ++j) {
      row[j] = static_cast<Value>(rem % domain_size);
      rem /= domain_size;
    }
    if (!a.rel.Contains(row.data())) out.Add(row.data());
  }
  return VarRelation{a.vars, out.Build()};
}

VarRelation ProjectOut(const VarRelation& a, std::size_t var) {
  auto it = std::lower_bound(a.vars.begin(), a.vars.end(), var);
  if (it == a.vars.end() || *it != var) return a;
  const std::size_t drop = static_cast<std::size_t>(it - a.vars.begin());
  std::vector<std::size_t> out_vars = a.vars;
  out_vars.erase(out_vars.begin() + static_cast<std::ptrdiff_t>(drop));
  RelationBuilder out(out_vars.size());
  std::vector<Value> row(out_vars.size());
  for (std::size_t i = 0; i < a.rel.size(); ++i) {
    const Value* t = a.rel.tuple(i);
    std::size_t c = 0;
    for (std::size_t j = 0; j < a.vars.size(); ++j) {
      if (j != drop) row[c++] = t[j];
    }
    out.Add(row.data());
  }
  return {out_vars, out.Build()};
}

VarRelation FromAtom(const Relation& rel,
                     const std::vector<std::size_t>& args) {
  assert(args.size() == rel.arity());
  std::vector<std::size_t> vars = args;
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  if (args.empty()) {
    return {vars, rel};
  }
  // Output column position of each atom argument.
  std::vector<std::size_t> out_pos(args.size());
  for (std::size_t j = 0; j < args.size(); ++j) {
    out_pos[j] = static_cast<std::size_t>(
        std::lower_bound(vars.begin(), vars.end(), args[j]) - vars.begin());
  }
  RelationBuilder out(vars.size());
  std::vector<Value> row(vars.size());
  for (std::size_t i = 0; i < rel.size(); ++i) {
    const Value* t = rel.tuple(i);
    bool consistent = true;
    // Repeated variables must agree across their occurrences.
    std::vector<bool> written(vars.size(), false);
    for (std::size_t j = 0; j < args.size() && consistent; ++j) {
      const std::size_t c = out_pos[j];
      if (written[c] && row[c] != t[j]) {
        consistent = false;
      } else {
        row[c] = t[j];
        written[c] = true;
      }
    }
    if (consistent) out.Add(row.data());
  }
  return {vars, out.Build()};
}

VarRelation EqualityRelation(std::size_t var_i, std::size_t var_j,
                             std::size_t domain_size) {
  if (var_i == var_j) {
    RelationBuilder out(1);
    for (std::size_t v = 0; v < domain_size; ++v) {
      Value val = static_cast<Value>(v);
      out.Add(&val);
    }
    return {{var_i}, out.Build()};
  }
  const std::size_t lo = std::min(var_i, var_j);
  const std::size_t hi = std::max(var_i, var_j);
  RelationBuilder out(2);
  for (std::size_t v = 0; v < domain_size; ++v) {
    Value row[2] = {static_cast<Value>(v), static_cast<Value>(v)};
    out.Add(row);
  }
  return {{lo, hi}, out.Build()};
}

Result<Relation> AnswerTuple(const VarRelation& a,
                             const std::vector<std::size_t>& target_vars,
                             std::size_t domain_size) {
  // Variables the answer mentions, extended with domain for ones absent
  // from `a` (the answer cannot depend on them).
  std::vector<std::size_t> needed = target_vars;
  std::sort(needed.begin(), needed.end());
  needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
  std::vector<std::size_t> all = needed;
  for (std::size_t v : a.vars) all.push_back(v);
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  BVQ_ASSIGN_OR_RETURN(VarRelation ext, ExtendTo(a, all, domain_size));
  // Project (with possible repeats) onto target_vars order.
  std::vector<std::size_t> pos(target_vars.size());
  for (std::size_t j = 0; j < target_vars.size(); ++j) {
    pos[j] = static_cast<std::size_t>(
        std::lower_bound(ext.vars.begin(), ext.vars.end(), target_vars[j]) -
        ext.vars.begin());
  }
  RelationBuilder out(target_vars.size());
  std::vector<Value> row(target_vars.size());
  for (std::size_t i = 0; i < ext.rel.size(); ++i) {
    const Value* t = ext.rel.tuple(i);
    for (std::size_t j = 0; j < pos.size(); ++j) row[j] = t[pos[j]];
    out.Add(row.data());
  }
  return out.Build();
}

}  // namespace bvq
