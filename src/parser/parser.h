#ifndef UNIQOPT_PARSER_PARSER_H_
#define UNIQOPT_PARSER_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "parser/ast.h"

namespace uniqopt {

/// Deepest nesting the parser accepts, counting each parenthesised
/// expression, each NOT and each (sub)query level. Deeper input would
/// overflow the stack in the parser or in the passes that recurse over
/// the tree it builds, so it is rejected with a ParseError.
constexpr int kMaxParseNestingDepth = 1000;

/// Parses one SQL statement (query or CREATE TABLE); trailing `;` is
/// accepted, trailing garbage is an error.
Result<StatementPtr> ParseStatement(std::string_view sql);

/// Parses a query expression (SELECT ... [INTERSECT/EXCEPT ...]).
Result<QueryPtr> ParseQuery(std::string_view sql);

/// Parses a scalar/boolean expression in isolation (used for CHECK
/// constraint construction in tests and fixtures).
Result<AstExprPtr> ParseExpression(std::string_view sql);

}  // namespace uniqopt

#endif  // UNIQOPT_PARSER_PARSER_H_
