#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "db/assignment_set.h"
#include "db/generators.h"

namespace bvq {
namespace {

TEST(AssignmentSetTest, EmptyAndFull) {
  AssignmentSet e(3, 2);
  EXPECT_TRUE(e.Empty());
  EXPECT_EQ(e.Count(), 0u);
  AssignmentSet f = AssignmentSet::Full(3, 2);
  EXPECT_TRUE(f.IsFull());
  EXPECT_EQ(f.Count(), 9u);
}

TEST(AssignmentSetTest, BooleanOps) {
  AssignmentSet a(2, 2), b(2, 2);
  a.SetAssignment({0, 0});
  a.SetAssignment({1, 1});
  b.SetAssignment({1, 1});
  b.SetAssignment({0, 1});
  AssignmentSet i = a;
  i.AndWith(b);
  EXPECT_EQ(i.Count(), 1u);
  EXPECT_TRUE(i.TestAssignment({1, 1}));
  AssignmentSet u = a;
  u.OrWith(b);
  EXPECT_EQ(u.Count(), 3u);
  AssignmentSet c = a;
  c.Complement();
  EXPECT_EQ(c.Count(), 2u);
  EXPECT_TRUE(c.TestAssignment({1, 0}));
}

TEST(AssignmentSetTest, ExistsVarCylindrifies) {
  // phi(x1,x2) = {(0,1)}; exists x1 . phi == {(*,1)}.
  AssignmentSet a(3, 2);
  a.SetAssignment({0, 1});
  AssignmentSet ex = a.ExistsVar(0);
  EXPECT_EQ(ex.Count(), 3u);
  EXPECT_TRUE(ex.TestAssignment({2, 1}));
  EXPECT_FALSE(ex.TestAssignment({0, 0}));
}

TEST(AssignmentSetTest, ForAllVar) {
  // phi = {(v,1) : all v}; forall x1 . phi == {(*,1)}.
  AssignmentSet a(3, 2);
  for (Value v = 0; v < 3; ++v) a.SetAssignment({v, 1});
  a.SetAssignment({0, 2});
  AssignmentSet fa = a.ForAllVar(0);
  EXPECT_EQ(fa.Count(), 3u);
  EXPECT_TRUE(fa.TestAssignment({1, 1}));
  EXPECT_FALSE(fa.TestAssignment({0, 2}));
}

TEST(AssignmentSetTest, ExistsForAllDuality) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    AssignmentSet a(3, 3);
    for (std::size_t r = 0; r < 27; ++r) {
      if (rng.Bernoulli(0.4)) a.Set(r);
    }
    for (std::size_t var = 0; var < 3; ++var) {
      // forall x . a == !(exists x . !a)
      AssignmentSet lhs = a.ForAllVar(var);
      AssignmentSet rhs = a;
      rhs.Complement();
      rhs = rhs.ExistsVar(var);
      rhs.Complement();
      EXPECT_EQ(lhs, rhs);
    }
  }
}

TEST(AssignmentSetTest, Equality) {
  AssignmentSet eq = AssignmentSet::Equality(3, 2, 0, 1);
  EXPECT_EQ(eq.Count(), 3u);
  EXPECT_TRUE(eq.TestAssignment({2, 2}));
  EXPECT_FALSE(eq.TestAssignment({2, 1}));
  AssignmentSet self = AssignmentSet::Equality(3, 2, 1, 1);
  EXPECT_TRUE(self.IsFull());
}

TEST(AssignmentSetTest, VarEqualsConst) {
  AssignmentSet s = AssignmentSet::VarEqualsConst(3, 2, 1, 2);
  EXPECT_EQ(s.Count(), 3u);
  EXPECT_TRUE(s.TestAssignment({0, 2}));
  EXPECT_FALSE(s.TestAssignment({2, 0}));
}

TEST(AssignmentSetTest, FromAtomBinaryRelation) {
  Relation e = Relation::FromTuples(2, {{0, 1}, {1, 2}});
  // E(x2, x1) over 3 vars.
  AssignmentSet a = AssignmentSet::FromAtom(3, 3, e, {1, 0});
  // Satisfied iff (x2,x1) in E; x3 free.
  EXPECT_EQ(a.Count(), 6u);
  EXPECT_TRUE(a.TestAssignment({1, 0, 0}));
  EXPECT_TRUE(a.TestAssignment({2, 1, 2}));
  EXPECT_FALSE(a.TestAssignment({0, 1, 0}));
}

TEST(AssignmentSetTest, FromAtomRepeatedVariable) {
  Relation r = Relation::FromTuples(2, {{0, 0}, {0, 1}, {2, 2}});
  // R(x1, x1): diagonal selection.
  AssignmentSet a = AssignmentSet::FromAtom(3, 2, r, {0, 0});
  EXPECT_TRUE(a.TestAssignment({0, 0}));
  EXPECT_TRUE(a.TestAssignment({2, 1}));
  EXPECT_FALSE(a.TestAssignment({1, 0}));
}

TEST(AssignmentSetTest, FromAtomZeroArity) {
  AssignmentSet t =
      AssignmentSet::FromAtom(3, 2, Relation::Proposition(true), {});
  EXPECT_TRUE(t.IsFull());
  AssignmentSet f =
      AssignmentSet::FromAtom(3, 2, Relation::Proposition(false), {});
  EXPECT_TRUE(f.Empty());
}

TEST(AssignmentSetTest, RemapReadsThroughSubstitution) {
  // Cube over (x1,x2) domain 3: contains iff x1 == 2.
  AssignmentSet cube = AssignmentSet::VarEqualsConst(3, 2, 0, 2);
  // Remap target x1 <- source x2: result[a] = cube[a with x1 := a.x2],
  // i.e., contains iff a.x2 == 2.
  AssignmentSet out = cube.Remap({0}, {1});
  EXPECT_EQ(out, AssignmentSet::VarEqualsConst(3, 2, 1, 2));
}

TEST(AssignmentSetTest, RemapSwapIsSimultaneous) {
  // Cube contains single point (0, 1). Remap targets (x1,x2) <- (x2,x1)
  // must read both sources from the original assignment: the result
  // contains exactly (1, 0).
  AssignmentSet cube(2, 2);
  cube.SetAssignment({0, 1});
  AssignmentSet out = cube.Remap({0, 1}, {1, 0});
  EXPECT_EQ(out.Count(), 1u);
  EXPECT_TRUE(out.TestAssignment({1, 0}));
}

TEST(AssignmentSetTest, ToRelationProjects) {
  AssignmentSet a(3, 3);
  a.SetAssignment({0, 1, 2});
  a.SetAssignment({0, 1, 1});
  Relation r = a.ToRelation({0, 1});
  EXPECT_EQ(r, Relation::FromTuples(2, {{0, 1}}));
  Relation full = a.ToRelation({2, 0});
  EXPECT_EQ(full, Relation::FromTuples(2, {{1, 0}, {2, 0}}));
}

TEST(AssignmentSetTest, FromAtomToRelationRoundTrip) {
  Rng rng(11);
  Relation r = RandomRelation(4, 2, 0.3, rng);
  AssignmentSet a = AssignmentSet::FromAtom(4, 2, r, {0, 1});
  EXPECT_EQ(a.ToRelation({0, 1}), r);
}

// One row per set bit, then the sorting Build(): ToRelation's old body.
Relation SortedReference(const AssignmentSet& a,
                         const std::vector<std::size_t>& vars) {
  RelationBuilder b(vars.size());
  std::vector<Value> row(vars.size());
  for (std::size_t r = 0; r < a.indexer().NumTuples(); ++r) {
    if (!a.Test(r)) continue;
    for (std::size_t j = 0; j < vars.size(); ++j) {
      row[j] = a.indexer().Digit(r, vars[j]);
    }
    b.Add(row.data());
  }
  return b.Build();
}

// Every answer list over x_1..x_k of length 0..k+1: repeats, permutations
// and lists that drop variables.
std::vector<std::vector<std::size_t>> AllAnswerLists(std::size_t k) {
  std::vector<std::vector<std::size_t>> lists{{}};
  for (std::size_t begin = 0, len = 0; len <= k; ++len) {
    const std::size_t end = lists.size();
    for (std::size_t i = begin; i < end; ++i) {
      for (std::size_t v = 0; v < k; ++v) {
        std::vector<std::size_t> longer = lists[i];
        longer.push_back(v);
        lists.push_back(std::move(longer));
      }
    }
    begin = end;
  }
  return lists;
}

TEST(AssignmentSetTest, ToRelationMatchesSortedReference) {
  Rng rng(23);
  // Domains past 64 give lines of several words at unaligned offsets.
  const std::vector<std::vector<std::size_t>> domains = {
      {1, 2, 5, 64, 67, 130}, {1, 3, 9, 65, 70}, {2, 4, 13}, {2, 3, 5}};
  for (std::size_t k = 1; k <= 4; ++k) {
    const auto lists = AllAnswerLists(k);
    for (std::size_t n : domains[k - 1]) {
      for (double density : {0.0, 0.03, 0.5, 1.0}) {
        AssignmentSet a(n, k);
        for (std::size_t r = 0; r < a.indexer().NumTuples(); ++r) {
          if (density == 1.0 || rng.Bernoulli(density)) a.Set(r);
        }
        for (const auto& vars : lists) {
          const Relation want = SortedReference(a, vars);
          const Relation got = a.ToRelation(vars);
          ASSERT_EQ(got, want) << "k=" << k << " n=" << n
                               << " density=" << density
                               << " vars=" << vars.size();
          EXPECT_EQ(got.fingerprint(), want.fingerprint());
          EXPECT_EQ(a.Project(vars).Count(), want.size());
        }
      }
    }
  }
}

TEST(AssignmentSetTest, ProjectFirstRowsIsAPrefix) {
  Rng rng(29);
  AssignmentSet a(7, 3);
  for (std::size_t r = 0; r < 343; ++r) {
    if (rng.Bernoulli(0.2)) a.Set(r);
  }
  const ProjectedAnswer answer = a.Project({2, 0, 2});
  const Relation all = answer.ToRelation();
  for (std::size_t limit : {0, 1, 5, 1000}) {
    const Relation head = answer.FirstRows(limit);
    ASSERT_EQ(head.size(), std::min(limit, all.size()));
    for (std::size_t i = 0; i < head.size(); ++i) {
      EXPECT_EQ(head.TupleAt(i), all.TupleAt(i));
    }
  }
}

TEST(AssignmentSetTest, ProjectOfNoVariablesIsAProposition) {
  AssignmentSet a(4, 2);
  EXPECT_EQ(a.ToRelation({}), Relation::Proposition(false));
  a.SetAssignment({3, 1});
  EXPECT_EQ(a.ToRelation({}), Relation::Proposition(true));
  EXPECT_EQ(a.Project({}).Count(), 1u);
  // An empty domain has no assignment at all.
  EXPECT_EQ(AssignmentSet(0, 2).ToRelation({}), Relation::Proposition(false));
  EXPECT_EQ(AssignmentSet(0, 2).ToRelation({1, 0}), Relation(2));
  // With no variables the cube is one bit.
  EXPECT_EQ(AssignmentSet::Full(5, 0).ToRelation({}),
            Relation::Proposition(true));
}

TEST(AssignmentSetTest, HashChangesWithContent) {
  AssignmentSet a(3, 2), b(3, 2);
  EXPECT_EQ(a.Hash(), b.Hash());
  b.SetAssignment({1, 1});
  EXPECT_NE(a.Hash(), b.Hash());
}

}  // namespace
}  // namespace bvq
