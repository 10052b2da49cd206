// A predicate "program": a conjunction of flat atoms compiled once from
// an Expr tree, evaluated over whole batches by refining a selection
// vector in place. Interpreting the Expr tree per row costs two Value
// copies and a virtual walk per comparison; the program compiles the
// common shapes — `col <op> literal`, `col <op> :host`,
// `col IS [NOT] NULL` — into atoms that read column slots by reference.
// Anything else falls back to the interpreter per row, so compilation is
// always safe and never changes results.

#pragma once

#include <cstdint>
#include <vector>

#include "expr/expr.h"
#include "types/row.h"

namespace uniqopt {

class PredicateProgram {
 public:
  /// Compiles `predicate` (may be null, meaning "keep everything").
  /// Never fails: unsupported shapes become interpreted atoms.
  static PredicateProgram Compile(ExprPtr predicate);

  /// Refines `sel` in place: keeps index i iff the predicate evaluates
  /// to TRUE on data[i] (UNKNOWN drops the row, matching WHERE).
  void FilterSel(const Row* data, std::vector<uint32_t>* sel,
                 const std::vector<Value>& params) const;

  /// True when every atom took a fast (non-interpreted) form.
  bool fully_compiled() const { return fully_compiled_; }
  size_t num_atoms() const { return atoms_.size(); }

 private:
  enum class AtomKind {
    kColCmpConst,   ///< row[col] <op> literal
    kColCmpParam,   ///< row[col] <op> params[param]
    kColIsNull,     ///< row[col] IS NULL
    kColIsNotNull,  ///< row[col] IS NOT NULL
    kInterpreted,   ///< fallback: Expr::EvaluatePredicate per row
  };
  struct Atom {
    AtomKind kind;
    size_t col = 0;
    CompareOp op = CompareOp::kEq;
    Value constant;
    size_t param = 0;
    ExprPtr fallback;  ///< set for kInterpreted
  };

  /// Appends atoms for `e`; returns false if it had to fall back.
  bool CompileNode(const ExprPtr& e);

  std::vector<Atom> atoms_;
  bool fully_compiled_ = true;
};

}  // namespace uniqopt
