#include <gtest/gtest.h>

#include "common/rng.h"
#include "db/generators.h"
#include "db/relalg.h"
#include "db/relation.h"

namespace bvq {
namespace {

TEST(RelationTest, FromTuplesSortsAndDedups) {
  Relation r = Relation::FromTuples(2, {{2, 1}, {0, 5}, {2, 1}, {1, 1}});
  EXPECT_EQ(r.size(), 3u);
  EXPECT_EQ(r.TupleAt(0), (Tuple{0, 5}));
  EXPECT_EQ(r.TupleAt(1), (Tuple{1, 1}));
  EXPECT_EQ(r.TupleAt(2), (Tuple{2, 1}));
}

TEST(RelationTest, Contains) {
  Relation r = Relation::FromTuples(2, {{0, 1}, {1, 2}, {3, 0}});
  EXPECT_TRUE(r.Contains(Tuple{1, 2}));
  EXPECT_FALSE(r.Contains(Tuple{2, 1}));
  EXPECT_FALSE(r.Contains(Tuple{1}));  // wrong arity
}

TEST(RelationTest, InsertKeepsInvariant) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 1}));
  EXPECT_TRUE(r.Insert({0, 0}));
  EXPECT_FALSE(r.Insert({1, 1}));
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r.TupleAt(0), (Tuple{0, 0}));
}

TEST(RelationTest, ZeroArityProposition) {
  Relation t = Relation::Proposition(true);
  Relation f = Relation::Proposition(false);
  EXPECT_TRUE(t.AsBool());
  EXPECT_FALSE(f.AsBool());
  EXPECT_EQ(t.arity(), 0u);
  EXPECT_TRUE(t.Contains(Tuple{}));
  EXPECT_FALSE(f.Contains(Tuple{}));
}

TEST(RelationTest, ZeroArityViaBuilder) {
  RelationBuilder b(0);
  b.Add(Tuple{});
  Relation r = b.Build();
  EXPECT_TRUE(r.AsBool());
  RelationBuilder b2(0);
  EXPECT_FALSE(b2.Build().AsBool());
}

TEST(RelationTest, BuildSortedMatchesBuild) {
  Rng rng(31);
  for (std::size_t arity = 0; arity <= 4; ++arity) {
    for (double density : {0.0, 0.1, 0.6}) {
      // Distinct rows in lexicographic order for BuildSorted; the same rows
      // shuffled, each twice, for Build.
      Relation full = Relation::Full(arity, 5).value();
      std::vector<Tuple> rows;
      for (std::size_t i = 0; i < full.size(); ++i) {
        if (rng.Bernoulli(density)) rows.push_back(full.TupleAt(i));
      }
      RelationBuilder sorted(arity);
      for (const Tuple& t : rows) sorted.Add(t);
      std::vector<Tuple> shuffled = rows;
      shuffled.insert(shuffled.end(), rows.begin(), rows.end());
      for (std::size_t i = shuffled.size(); i > 1; --i) {
        std::swap(shuffled[i - 1], shuffled[rng.Below(i)]);
      }
      RelationBuilder unsorted(arity);
      for (const Tuple& t : shuffled) unsorted.Add(t);
      const Relation a = sorted.BuildSorted();
      const Relation b = unsorted.Build();
      EXPECT_EQ(a, b) << "arity " << arity;
      EXPECT_EQ(a.size(), b.size());
      EXPECT_EQ(a.fingerprint(), b.fingerprint());
      // The builder is left empty and reusable.
      EXPECT_TRUE(sorted.BuildSorted().empty());
    }
  }
}

TEST(RelationTest, FullEnumeratesLexicographically) {
  auto r = Relation::Full(2, 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 9u);
  EXPECT_EQ(r->TupleAt(0), (Tuple{0, 0}));
  EXPECT_EQ(r->TupleAt(1), (Tuple{0, 1}));
  EXPECT_EQ(r->TupleAt(8), (Tuple{2, 2}));
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_TRUE(r->Contains(r->TupleAt(i)));
  }
}

TEST(RelationTest, FullRejectsHugeRequests) {
  auto r = Relation::Full(64, 1000);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(RelationTest, MinDomainSize) {
  EXPECT_EQ(Relation::FromTuples(2, {{0, 7}}).MinDomainSize(), 8u);
  EXPECT_EQ(Relation(2).MinDomainSize(), 0u);
}

TEST(RelationTest, ToString) {
  Relation r = Relation::FromTuples(2, {{0, 1}, {1, 2}});
  EXPECT_EQ(r.ToString(), "{(0,1),(1,2)}");
}

// --- relational algebra on VarRelations -----------------------------------

TEST(RelalgTest, JoinOnSharedVariable) {
  // R(x1,x2) join S(x2,x3)
  VarRelation r{{0, 1}, Relation::FromTuples(2, {{0, 1}, {1, 2}})};
  VarRelation s{{1, 2}, Relation::FromTuples(2, {{1, 5}, {2, 6}, {3, 7}})};
  VarRelation j = Join(r, s);
  EXPECT_EQ(j.vars, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(j.rel, Relation::FromTuples(3, {{0, 1, 5}, {1, 2, 6}}));
}

TEST(RelalgTest, JoinDisjointIsCrossProduct) {
  VarRelation r{{0}, Relation::FromTuples(1, {{0}, {1}})};
  VarRelation s{{2}, Relation::FromTuples(1, {{5}, {6}})};
  VarRelation j = Join(r, s);
  EXPECT_EQ(j.rel.size(), 4u);
}

TEST(RelalgTest, SemijoinKeepsMatching) {
  VarRelation r{{0, 1}, Relation::FromTuples(2, {{0, 1}, {1, 2}, {2, 9}})};
  VarRelation s{{1}, Relation::FromTuples(1, {{1}, {9}})};
  VarRelation sj = Semijoin(r, s);
  EXPECT_EQ(sj.vars, r.vars);
  EXPECT_EQ(sj.rel, Relation::FromTuples(2, {{0, 1}, {2, 9}}));
}

TEST(RelalgTest, ExtendToCrossesWithDomain) {
  VarRelation r{{1}, Relation::FromTuples(1, {{0}})};
  VarRelation e = ExtendTo(r, {0, 1}, 3).value();
  EXPECT_EQ(e.vars, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(e.rel.size(), 3u);  // x0 free over 3 values
  EXPECT_TRUE(e.rel.Contains(Tuple{2, 0}));
}

TEST(RelalgTest, UnionAlignsVariables) {
  VarRelation a{{0}, Relation::FromTuples(1, {{0}})};
  VarRelation b{{1}, Relation::FromTuples(1, {{1}})};
  VarRelation u = Union(a, b, 2).value();
  // (x0=0, x1 in {0,1}) union (x0 in {0,1}, x1=1)
  EXPECT_EQ(u.rel.size(), 3u);
  EXPECT_FALSE(u.rel.Contains(Tuple{1, 0}));
}

TEST(RelalgTest, ComplementWithinCube) {
  VarRelation a{{0, 1}, Relation::FromTuples(2, {{0, 0}, {1, 1}})};
  VarRelation c = Complement(a, 2).value();
  EXPECT_EQ(c.rel, Relation::FromTuples(2, {{0, 1}, {1, 0}}));
}

TEST(RelalgTest, ComplementZeroArity) {
  VarRelation t{{}, Relation::Proposition(true)};
  EXPECT_FALSE(Complement(t, 5)->rel.AsBool());
  VarRelation f{{}, Relation::Proposition(false)};
  EXPECT_TRUE(Complement(f, 5)->rel.AsBool());
}

TEST(RelalgTest, ProjectOutRemovesColumn) {
  VarRelation a{{0, 2}, Relation::FromTuples(2, {{0, 5}, {1, 5}, {1, 6}})};
  VarRelation p = ProjectOut(a, 0);
  EXPECT_EQ(p.vars, (std::vector<std::size_t>{2}));
  EXPECT_EQ(p.rel, Relation::FromTuples(1, {{5}, {6}}));
  // Projecting an absent variable is the identity.
  VarRelation q = ProjectOut(a, 7);
  EXPECT_EQ(q.vars, a.vars);
}

TEST(RelalgTest, FromAtomHandlesRepeatedVariables) {
  // R(x2, x1, x1): keep rows where columns 2 and 3 agree.
  Relation r = Relation::FromTuples(3, {{9, 1, 1}, {8, 1, 2}, {7, 0, 0}});
  VarRelation v = FromAtom(r, {1, 0, 0});
  EXPECT_EQ(v.vars, (std::vector<std::size_t>{0, 1}));
  // Satisfying rows: (9,1,1) -> x0=1,x1=9 ; (7,0,0) -> x0=0,x1=7.
  EXPECT_EQ(v.rel, Relation::FromTuples(2, {{0, 7}, {1, 9}}));
}

TEST(RelalgTest, EqualityRelation) {
  VarRelation eq = EqualityRelation(2, 0, 3);
  EXPECT_EQ(eq.vars, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(eq.rel.size(), 3u);
  EXPECT_TRUE(eq.rel.Contains(Tuple{1, 1}));
  VarRelation same = EqualityRelation(1, 1, 3);
  EXPECT_EQ(same.vars, (std::vector<std::size_t>{1}));
  EXPECT_EQ(same.rel.size(), 3u);
}

TEST(RelalgTest, AnswerTupleWithRepeatsAndFreeVars) {
  VarRelation a{{0}, Relation::FromTuples(1, {{1}})};
  // Answer (x1, x1, x2) with x2 unconstrained over domain 2.
  Relation ans = AnswerTuple(a, {0, 0, 1}, 2).value();
  EXPECT_EQ(ans, Relation::FromTuples(3, {{1, 1, 0}, {1, 1, 1}}));
}

TEST(GeneratorsTest, PathGraph) {
  Relation p = PathGraph(4);
  EXPECT_EQ(p.size(), 3u);
  EXPECT_TRUE(p.Contains(Tuple{0, 1}));
  EXPECT_TRUE(p.Contains(Tuple{2, 3}));
  EXPECT_FALSE(p.Contains(Tuple{3, 0}));
}

TEST(GeneratorsTest, CycleGraph) {
  Relation c = CycleGraph(4);
  EXPECT_EQ(c.size(), 4u);
  EXPECT_TRUE(c.Contains(Tuple{3, 0}));
}

TEST(GeneratorsTest, RandomGraphDensity) {
  Rng rng(42);
  Relation g = RandomGraph(20, 0.5, rng);
  // 20*19 candidate edges; expect roughly half, loosely bounded.
  EXPECT_GT(g.size(), 100u);
  EXPECT_LT(g.size(), 280u);
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_NE(g.TupleAt(i)[0], g.TupleAt(i)[1]);  // no self loops
  }
}

TEST(GeneratorsTest, EmployeeDatabaseShape) {
  Rng rng(1);
  Database db = EmployeeDatabase(10, 3, 5, rng);
  EXPECT_EQ(db.domain_size(), 18u);
  ASSERT_TRUE(db.GetRelation("EMP").ok());
  ASSERT_TRUE(db.GetRelation("MGR").ok());
  ASSERT_TRUE(db.GetRelation("SCY").ok());
  ASSERT_TRUE(db.GetRelation("SAL").ok());
  ASSERT_TRUE(db.GetRelation("LT").ok());
  EXPECT_EQ((*db.GetRelation("EMP"))->size(), 10u);
  EXPECT_EQ((*db.GetRelation("MGR"))->size(), 3u);
  EXPECT_EQ((*db.GetRelation("LT"))->size(), 10u);  // 5 choose 2
}

}  // namespace
}  // namespace bvq
