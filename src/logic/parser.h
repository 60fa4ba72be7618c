#ifndef BVQ_LOGIC_PARSER_H_
#define BVQ_LOGIC_PARSER_H_

#include <string>

#include "common/status.h"
#include "logic/formula.h"

namespace bvq {

/// Parses the textual formula syntax:
///
///   phi  := iff
///   iff  := imp ('<->' imp)*
///   imp  := or ('->' or)*            (right associative)
///   or   := and ('|' and)*
///   and  := un  ('&' un)*
///   un   := '!' un
///         | ('exists' | 'forall') var '.' iff       (maximal scope)
///         | 'exists2' IDENT '/' NUM '.' iff         (second-order)
///         | prim
///   prim := 'true' | 'false'
///         | '(' phi ')'
///         | var '=' var
///         | IDENT ['(' var (',' var)* ')']          (atom; bare = 0-ary)
///         | '[' ('lfp'|'gfp'|'pfp') IDENT '(' vars ')' '.' phi ']'
///               '(' vars ')'
///   var  := 'x' NUM                                  (x1 is index 0)
///
/// Formulas nested deeper than kMaxFormulaDepth (logic/analysis.h) are a
/// ParseError, so no client-supplied text can exhaust the stack.
///
/// Examples:
///   "exists x2 . E(x1,x2) & E(x2,x1)"
///   "[lfp T(x1,x2) . E(x1,x2) | exists x3 . (E(x1,x3) &
///       exists x1 . (x1 = x3 & T(x1,x2)))](x1,x2)"
///   "exists2 S/1 . forall x1 . (S(x1) -> P(x1))"
Result<FormulaPtr> ParseFormula(const std::string& text);

/// Parses "(x_i1,...,x_im) phi" as a query; with no leading tuple the
/// formula's free variables in sorted order are used as the answer tuple.
Result<Query> ParseQuery(const std::string& text);

/// Renders a formula back into parseable syntax (inverse of ParseFormula up
/// to parenthesization).
std::string FormulaToString(const FormulaPtr& formula);

/// Renders a query: "(x1,x2) phi".
std::string QueryToString(const Query& query);

}  // namespace bvq

#endif  // BVQ_LOGIC_PARSER_H_
