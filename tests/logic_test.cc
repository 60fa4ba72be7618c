#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "db/database.h"
#include "logic/analysis.h"
#include "logic/builder.h"
#include "logic/nnf.h"
#include "logic/parser.h"
#include "logic/random_formula.h"

namespace bvq {
namespace {

TEST(ParserTest, Atom) {
  auto f = ParseFormula("E(x1,x2)");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->kind(), FormulaKind::kAtom);
  const auto& atom = static_cast<const AtomFormula&>(**f);
  EXPECT_EQ(atom.pred(), "E");
  EXPECT_EQ(atom.args(), (std::vector<std::size_t>{0, 1}));
}

TEST(ParserTest, BareZeroAryAtom) {
  auto f = ParseFormula("p & q");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, PrecedenceAndAssociativity) {
  auto f = ParseFormula("a | b & c -> d");
  ASSERT_TRUE(f.ok());
  // -> binds loosest: (a | (b & c)) -> d
  EXPECT_EQ((*f)->kind(), FormulaKind::kImplies);
  const auto& imp = static_cast<const BinaryFormula&>(**f);
  EXPECT_EQ(imp.lhs()->kind(), FormulaKind::kOr);
}

TEST(ParserTest, QuantifierMaximalScope) {
  auto f = ParseFormula("exists x1 . E(x1,x2) & P(x1)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->kind(), FormulaKind::kExists);
  const auto& q = static_cast<const QuantFormula&>(**f);
  EXPECT_EQ(q.body()->kind(), FormulaKind::kAnd);
}

TEST(ParserTest, Equality) {
  auto f = ParseFormula("x1 = x3");
  ASSERT_TRUE(f.ok());
  const auto& eq = static_cast<const EqualsFormula&>(**f);
  EXPECT_EQ(eq.lhs(), 0u);
  EXPECT_EQ(eq.rhs(), 2u);
}

TEST(ParserTest, Fixpoint) {
  auto f = ParseFormula(
      "[lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) & exists x1 . "
      "(x1 = x3 & T(x1,x2)))](x1,x2)");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  EXPECT_EQ((*f)->kind(), FormulaKind::kFixpoint);
  const auto& fp = static_cast<const FixpointFormula&>(**f);
  EXPECT_EQ(fp.op(), FixpointKind::kLeast);
  EXPECT_EQ(fp.rel_var(), "T");
  EXPECT_EQ(fp.bound_vars(), (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(fp.apply_args(), (std::vector<std::size_t>{0, 1}));
}

TEST(ParserTest, SecondOrder) {
  auto f = ParseFormula("exists2 S/2 . forall x1 . S(x1,x1)");
  ASSERT_TRUE(f.ok());
  const auto& so = static_cast<const SoExistsFormula&>(**f);
  EXPECT_EQ(so.rel_var(), "S");
  EXPECT_EQ(so.arity(), 2u);
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(ParseFormula("").ok());
  EXPECT_FALSE(ParseFormula("E(x1").ok());
  EXPECT_FALSE(ParseFormula("x1 =").ok());
  EXPECT_FALSE(ParseFormula("exists y1 . p").ok());  // bad variable
  EXPECT_FALSE(ParseFormula("E(x1,x2) E(x1,x2)").ok());  // trailing
  EXPECT_FALSE(ParseFormula("[xfp T(x1) . p](x1)").ok());
  EXPECT_FALSE(ParseFormula("x0 = x1").ok());  // variables are 1-based
}

TEST(ParserTest, RoundTripThroughPrinter) {
  const char* samples[] = {
      "E(x1,x2)",
      "!(P(x1)) & (x1 = x2 | true)",
      "exists x2 . forall x1 . (E(x1,x2) -> P(x1))",
      "[gfp S(x1) . [lfp T(x2) . T(x2) | E(x2,x1) & S(x2)](x1)](x1)",
      "exists2 S/3 . S(x1,x1,x2) <-> false",
      "[pfp X(x1) . !(X(x1))](x2)",
  };
  for (const char* text : samples) {
    auto f = ParseFormula(text);
    ASSERT_TRUE(f.ok()) << text << ": " << f.status().ToString();
    auto printed = FormulaToString(*f);
    auto again = ParseFormula(printed);
    ASSERT_TRUE(again.ok()) << printed << ": " << again.status().ToString();
    EXPECT_EQ(FormulaToString(*again), printed) << text;
  }
}

TEST(ParserTest, QueryWithExplicitTuple) {
  auto q = ParseQuery("(x2,x1) E(x1,x2)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->answer_vars, (std::vector<std::size_t>{1, 0}));
}

TEST(ParserTest, QueryDefaultsToFreeVars) {
  auto q = ParseQuery("exists x2 . E(x1,x2) & P(x3)");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->answer_vars, (std::vector<std::size_t>{0, 2}));
}

TEST(ParserTest, ParenthesizedFormulaIsNotATuple) {
  auto q = ParseQuery("(x1 = x2)");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->formula->kind(), FormulaKind::kEquals);
  EXPECT_EQ(q->answer_vars.size(), 2u);
}

std::string Repeat(const std::string& s, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out += s;
  return out;
}

// One nesting shape around the atom E(x1,x1), `depth` levels deep: its
// tree height or parser nesting (whichever the shape grows) is `depth`.
std::string Nested(const std::string& shape, std::size_t depth) {
  const std::string atom = "E(x1,x1)";
  if (shape == "!") return Repeat("!", depth) + atom;
  if (shape == "()") return Repeat("(", depth) + atom + Repeat(")", depth);
  if (shape == "exists") return Repeat("exists x1 . ", depth) + atom;
  if (shape == "&") return atom + Repeat(" & " + atom, depth);
  if (shape == "->") return atom + Repeat(" -> " + atom, depth);
  if (shape == "lfp") {
    return Repeat("[lfp T(x1) . ", depth) + atom + Repeat("](x1)", depth);
  }
  // "!&": a negated & chain, whose height only the node check can see.
  return "!(" + atom + Repeat(" & " + atom, depth - 1) + ")";
}

TEST(ParserTest, DepthLimitIsExactForEveryShape) {
  const std::string over_limit =
      StrCat("formula depth ", kMaxFormulaDepth + 1, " exceeds the limit of ",
             kMaxFormulaDepth);
  for (const char* shape : {"!", "()", "exists", "&", "->", "lfp", "!&"}) {
    SCOPED_TRACE(shape);
    auto at_limit = ParseFormula(Nested(shape, kMaxFormulaDepth));
    EXPECT_TRUE(at_limit.ok()) << at_limit.status().ToString();
    auto over = ParseFormula(Nested(shape, kMaxFormulaDepth + 1));
    ASSERT_FALSE(over.ok());
    EXPECT_EQ(over.status().code(), StatusCode::kParseError);
    EXPECT_NE(over.status().message().find(over_limit), std::string::npos)
        << over.status().ToString();
  }
}

TEST(ParserTest, DeepInputIsAParseErrorNotACrash) {
  for (const std::string& text :
       {Nested("!", 10000), Nested("()", 10000), Nested("&", 20000)}) {
    auto q = ParseQuery("(x1) " + text);
    ASSERT_FALSE(q.ok());
    EXPECT_EQ(q.status().code(), StatusCode::kParseError);
  }
}

// --- analysis ---------------------------------------------------------------

TEST(AnalysisTest, FreeVars) {
  auto f = ParseFormula("exists x2 . E(x1,x2) & P(x3)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(FreeVars(*f), (std::set<std::size_t>{0, 2}));
}

TEST(AnalysisTest, FreeVarsOfFixpoint) {
  // Fixpoint parameters and application args are free; bound vars are not.
  auto f = ParseFormula("[lfp T(x1) . E(x1,x3) | T(x1)](x2)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(FreeVars(*f), (std::set<std::size_t>{1, 2}));
}

TEST(AnalysisTest, NumVariables) {
  auto f = ParseFormula("exists x3 . E(x1,x3)");
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(NumVariables(*f), 3u);
}

TEST(AnalysisTest, FreePredicates) {
  auto f = ParseFormula("[lfp T(x1) . E(x1,x1) | T(x1)](x2) & P(x1)");
  ASSERT_TRUE(f.ok());
  auto preds = FreePredicates(*f);
  ASSERT_TRUE(preds.ok());
  EXPECT_EQ(preds->size(), 2u);
  EXPECT_EQ(preds->at("E"), 2u);
  EXPECT_EQ(preds->at("P"), 1u);
}

TEST(AnalysisTest, FreePredicatesArityConflict) {
  auto f = ParseFormula("E(x1) & E(x1,x2)");
  ASSERT_TRUE(f.ok());
  EXPECT_FALSE(FreePredicates(*f).ok());
}

TEST(AnalysisTest, Positivity) {
  auto pos = ParseFormula("E(x1,x1) | !(P(x1)) & T(x1)");
  ASSERT_TRUE(pos.ok());
  EXPECT_TRUE(OccursOnlyPositively(*pos, "T"));
  auto neg = ParseFormula("!(T(x1))");
  ASSERT_TRUE(neg.ok());
  EXPECT_FALSE(OccursOnlyPositively(*neg, "T"));
  auto doubleneg = ParseFormula("!(!(T(x1)))");
  ASSERT_TRUE(doubleneg.ok());
  EXPECT_TRUE(OccursOnlyPositively(*doubleneg, "T"));
  auto imp_lhs = ParseFormula("T(x1) -> P(x1)");
  ASSERT_TRUE(imp_lhs.ok());
  EXPECT_FALSE(OccursOnlyPositively(*imp_lhs, "T"));
  auto iff = ParseFormula("T(x1) <-> P(x1)");
  ASSERT_TRUE(iff.ok());
  EXPECT_FALSE(OccursOnlyPositively(*iff, "T"));
  auto shadow = ParseFormula("[lfp T(x1) . !(T(x1))](x1)");
  ASSERT_TRUE(shadow.ok());
  EXPECT_TRUE(OccursOnlyPositively(*shadow, "T"));  // inner T is bound
}

TEST(AnalysisTest, ClassifyLanguage) {
  auto fo = ParseFormula("exists x1 . E(x1,x2)");
  ASSERT_TRUE(fo.ok());
  EXPECT_TRUE(ClassifyLanguage(*fo).first_order);

  auto fp = ParseFormula("[lfp T(x1) . E(x1,x1) | T(x1)](x1)");
  ASSERT_TRUE(fp.ok());
  LanguageClass cfp = ClassifyLanguage(*fp);
  EXPECT_FALSE(cfp.first_order);
  EXPECT_TRUE(cfp.fixpoint);
  EXPECT_TRUE(cfp.partial_fixpoint);
  EXPECT_FALSE(cfp.eso);

  auto pfp = ParseFormula("[pfp T(x1) . !(T(x1))](x1)");
  ASSERT_TRUE(pfp.ok());
  LanguageClass cpfp = ClassifyLanguage(*pfp);
  EXPECT_FALSE(cpfp.fixpoint);
  EXPECT_TRUE(cpfp.partial_fixpoint);

  auto eso = ParseFormula("exists2 S/1 . forall x1 . S(x1)");
  ASSERT_TRUE(eso.ok());
  LanguageClass ceso = ClassifyLanguage(*eso);
  EXPECT_TRUE(ceso.eso);
  EXPECT_FALSE(ceso.fixpoint);

  // SO-exists below a negation is not ESO.
  auto not_eso = ParseFormula("!(exists2 S/1 . S(x1))");
  ASSERT_TRUE(not_eso.ok());
  EXPECT_FALSE(ClassifyLanguage(*not_eso).eso);
}

TEST(AnalysisTest, AlternationDepth) {
  auto fo = ParseFormula("E(x1,x2)");
  EXPECT_EQ(AlternationDepth(*fo), 0u);
  auto one = ParseFormula("[lfp T(x1) . T(x1) | P(x1)](x1)");
  EXPECT_EQ(AlternationDepth(*one), 1u);
  // lfp inside lfp: still depth 1 (no alternation).
  auto mono = ParseFormula(
      "[lfp T(x1) . [lfp U(x2) . U(x2) | E(x2,x1)](x1) | T(x1)](x1)");
  EXPECT_EQ(AlternationDepth(*mono), 1u);
  // gfp inside lfp: depth 2.
  auto alt = ParseFormula(
      "[lfp T(x1) . [gfp U(x2) . U(x2) & E(x2,x1)](x1) | T(x1)](x1)");
  EXPECT_EQ(AlternationDepth(*alt), 2u);
  // the paper's triple alternation example shape: depth 3.
  auto triple = ParseFormula(
      "[gfp P(x1) . [lfp Q(x2) . [gfp R(x3) . R(x3) & Q(x2) & P(x1) ]"
      "(x2) | Q(x2)](x1) & P(x1)](x1)");
  EXPECT_EQ(AlternationDepth(*triple), 3u);
}

TEST(AnalysisTest, CheckWellFormed) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("E", Relation::FromTuples(2, {{0, 1}})).ok());

  auto good = ParseFormula("exists x2 . E(x1,x2)");
  EXPECT_TRUE(CheckWellFormed(*good, db, 2).ok());
  // unknown predicate
  auto unk = ParseFormula("F(x1)");
  EXPECT_FALSE(CheckWellFormed(*unk, db, 2).ok());
  // arity mismatch
  auto arity = ParseFormula("E(x1)");
  EXPECT_FALSE(CheckWellFormed(*arity, db, 2).ok());
  // variable out of range
  auto range = ParseFormula("E(x1,x3)");
  EXPECT_FALSE(CheckWellFormed(*range, db, 2).ok());
  // negative recursion variable
  auto negrec = ParseFormula("[lfp T(x1) . !(T(x1))](x1)");
  EXPECT_FALSE(CheckWellFormed(*negrec, db, 2).ok());
  // pfp may use its variable negatively
  auto pfp = ParseFormula("[pfp T(x1) . !(T(x1))](x1)");
  EXPECT_TRUE(CheckWellFormed(*pfp, db, 2).ok());
  // repeated bound variables
  auto rep = Lfp("T", {0, 0}, True(), {0, 1});
  EXPECT_FALSE(CheckWellFormed(rep, db, 2).ok());
  // arg count mismatch
  auto mismatch = Lfp("T", {0}, Atom("T", {0}), {0, 1});
  EXPECT_FALSE(CheckWellFormed(mismatch, db, 2).ok());
  // recursion variable arity misuse inside body
  auto misuse = Lfp("T", {0}, Atom("T", {0, 1}), {0});
  EXPECT_FALSE(CheckWellFormed(misuse, db, 2).ok());
}

TEST(BuilderTest, AndAllOrAll) {
  EXPECT_EQ(AndAll({})->kind(), FormulaKind::kTrue);
  EXPECT_EQ(OrAll({})->kind(), FormulaKind::kFalse);
  auto f = AndAll({True(), False(), True()});
  EXPECT_EQ(f->Size(), 5u);
}

TEST(BuilderTest, SubstitutePredicate) {
  // phi(x1) = S(x1) | Q(x1); substitute P(x1) into it at P.
  auto outer = ParseFormula("P(x1) & E(x1,x1)");
  auto repl = ParseFormula("S(x1) | Q(x1)");
  auto sub = SubstitutePredicate(*outer, "P", {0}, *repl);
  ASSERT_NE(sub, nullptr);
  EXPECT_EQ(FormulaToString(sub), "((S(x1) | Q(x1)) & E(x1,x1))");
  // Arguments must match syntactically.
  auto wrong = ParseFormula("P(x2)");
  EXPECT_EQ(SubstitutePredicate(*wrong, "P", {0}, *repl), nullptr);
  // Shadowed occurrences stay.
  auto shadow = ParseFormula("[lfp P(x1) . P(x1)](x1)");
  auto kept = SubstitutePredicate(*shadow, "P", {0}, *repl);
  EXPECT_EQ(kept, *shadow);
}

TEST(FormulaTest, Size) {
  auto f = ParseFormula("!(E(x1,x2)) & exists x1 . true");
  ASSERT_TRUE(f.ok());
  // and(1) + not(1) + atom(1) + exists(1) + true(1) = 5
  EXPECT_EQ((*f)->Size(), 5u);
}

// --- NNF --------------------------------------------------------------------

TEST(NnfTest, PushesNegations) {
  auto f = ParseFormula("!(P(x1) & (x1 = x2 | !(Q(x1))))");
  auto nnf = NegationNormalForm(*f);
  ASSERT_TRUE(nnf.ok());
  EXPECT_TRUE(IsNegationNormalForm(*nnf));
  EXPECT_EQ(FormulaToString(*nnf),
            "(!(P(x1)) | (!(x1 = x2) & Q(x1)))");
}

TEST(NnfTest, DualizesQuantifiers) {
  auto f = ParseFormula("!(exists x1 . P(x1))");
  auto nnf = NegationNormalForm(*f);
  ASSERT_TRUE(nnf.ok());
  EXPECT_EQ(FormulaToString(*nnf), "(forall x1 . !(P(x1)))");
}

TEST(NnfTest, DualizesFixpoints) {
  auto f = ParseFormula("!([lfp T(x1) . P(x1) | T(x1)](x2))");
  auto nnf = NegationNormalForm(*f);
  ASSERT_TRUE(nnf.ok()) << nnf.status().ToString();
  EXPECT_TRUE(IsNegationNormalForm(*nnf));
  ASSERT_EQ((*nnf)->kind(), FormulaKind::kFixpoint);
  const auto& fp = static_cast<const FixpointFormula&>(**nnf);
  EXPECT_EQ(fp.op(), FixpointKind::kGreatest);
  // Body: !(P) & T  (T flipped twice: once by the dualization's outer
  // negation, once by the S := !S substitution).
  EXPECT_TRUE(OccursOnlyPositively(fp.body(), "T"));
  EXPECT_EQ(FormulaToString(*nnf),
            "[gfp T(x1) . (!(P(x1)) & T(x1))](x2)");
}

TEST(NnfTest, ExpandsImpliesAndIff) {
  auto f = ParseFormula("(a -> b) <-> c");
  auto nnf = NegationNormalForm(*f);
  ASSERT_TRUE(nnf.ok());
  EXPECT_TRUE(IsNegationNormalForm(*nnf));
}

TEST(NnfTest, KeepsNegationOnPfp) {
  auto f = ParseFormula("!([pfp X(x1) . !(X(x1))](x1))");
  auto nnf = NegationNormalForm(*f);
  ASSERT_TRUE(nnf.ok());
  EXPECT_TRUE(IsNegationNormalForm(*nnf));
  EXPECT_EQ((*nnf)->kind(), FormulaKind::kNot);
}

TEST(NnfTest, IsNnfRejectsRawForms) {
  EXPECT_FALSE(IsNegationNormalForm(*ParseFormula("!(a & b)")));
  EXPECT_FALSE(IsNegationNormalForm(*ParseFormula("a -> b")));
  EXPECT_TRUE(IsNegationNormalForm(*ParseFormula("!(a) | b")));
}

TEST(RandomFormulaTest, GeneratesWellFormedFormulas) {
  Database db(3);
  ASSERT_TRUE(db.AddRelation("E", Relation::FromTuples(2, {{0, 1}})).ok());
  ASSERT_TRUE(db.AddRelation("P", Relation::FromTuples(1, {{0}})).ok());
  RandomFormulaOptions opts;
  opts.num_vars = 3;
  opts.max_size = 30;
  opts.predicates = {{"E", 2}, {"P", 1}};
  opts.allow_fixpoints = true;
  opts.allow_pfp = true;
  Rng rng(2024);
  for (int i = 0; i < 200; ++i) {
    FormulaPtr f = RandomFormula(opts, rng);
    EXPECT_TRUE(CheckWellFormed(f, db, 3).ok())
        << FormulaToString(f);
    EXPECT_LE(NumVariables(f), 3u);
  }
}

}  // namespace
}  // namespace bvq
