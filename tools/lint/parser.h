// Lightweight declaration/scope parser for uniserver-race — stage 2 of
// the lint toolchain (docs/STATIC_ANALYSIS.md).
//
// Like the lexer it builds on, this is deliberately not a C++ parser:
// no preprocessor, no templates, no overload resolution. It recovers
// just enough structure from the token stream to answer the questions
// the race rules ask — "which function body contains this token?",
// "what captures does this lambda take?", "what is the declared type of
// this name in the enclosing scope?", "which members does this class
// hold and how are they annotated?" — and it fails open: a statement it
// cannot parse is skipped, never guessed at. That keeps false positives
// near zero at the cost of (documented) blind spots such as writes
// through pointer indirection, which the dynamic TSan leg still covers.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lexer.h"

namespace uniserver::lint {

/// Index one past the punct that matches the opener at `open` (one of
/// `(` `[` `{`), counting all three bracket kinds jointly so mixed
/// nesting like `f({a[1]})` balances. Returns `toks.size()` when
/// unbalanced (fail open: callers treat that as "skip to EOF").
std::size_t match_forward(const std::vector<Token>& toks, std::size_t open);

/// One variable declaration recovered from a statement, a function
/// parameter list, or a range-for header.
struct VarDecl {
  std::string name;
  /// Identifier tokens of the type, template arguments included, e.g.
  /// `std::vector<Rng>` -> {"std", "vector", "Rng"}. cv words
  /// (const/mutable/...) are dropped.
  std::vector<std::string> type;
  bool is_reference{false};
  std::size_t name_tok{0};   ///< token index of the declared name
  std::size_t init_begin{0}; ///< [init_begin, init_end) initializer tokens
  std::size_t init_end{0};   ///< (empty range when there is none)

  bool type_contains(const std::string& ident) const;
};

/// Scope-insensitive declaration harvest over [begin, end): every
/// statement-position declaration, for-init and range-for declarations,
/// and structured bindings. Used to answer "is this name declared
/// somewhere in the enclosing function?" — the race rules only need
/// name -> type, not exact shadowing semantics.
std::vector<VarDecl> collect_declarations(const std::vector<Token>& toks,
                                          std::size_t begin, std::size_t end);

/// Parses the parameter list in (params_begin, params_end) — the token
/// range between a matched `(` `)` pair — into declarations. Unnamed
/// parameters whose only identifier is a builtin type tail (`size_t`,
/// `int`, ...) are dropped rather than misread as names.
std::vector<VarDecl> parse_parameters(const std::vector<Token>& toks,
                                      std::size_t params_begin,
                                      std::size_t params_end);

/// A lambda expression: introducer, captures, parameters, body extent.
struct LambdaExpr {
  bool found{false};
  bool default_ref{false};  ///< `[&]` present
  bool default_copy{false}; ///< `[=]` present
  std::vector<std::string> ref_captures;  ///< `[&x]` explicit by-ref
  std::vector<std::string> copy_captures; ///< `[x]` / `[x = expr]`
  std::vector<VarDecl> params;
  std::size_t intro{0};      ///< index of the `[`
  std::size_t body_begin{0}; ///< index of the body `{`
  std::size_t body_end{0};   ///< one past the matching `}`
  int line{0};
};

/// Parses a lambda whose introducer `[` sits at `i`. `found` is false
/// when the tokens there are not a lambda (array subscript, attribute).
LambdaExpr parse_lambda(const std::vector<Token>& toks, std::size_t i);

/// A function definition's parameter and body extent. Lambdas are not
/// listed here (their bodies nest inside the enclosing function);
/// TEST(...)-style macro bodies are, which is exactly what the race
/// rules want — a scope to collect declarations from.
struct FunctionScope {
  std::size_t params_begin{0};
  std::size_t params_end{0}; ///< one past the `)` of the parameter list
  std::size_t body_begin{0}; ///< index of the body `{`
  std::size_t body_end{0};   ///< one past the matching `}`
};

/// Indexes every function-definition-looking body in the file.
std::vector<FunctionScope> index_functions(const std::vector<Token>& toks);

/// Innermost indexed function whose body contains token `t`, or
/// nullptr when `t` is at namespace scope.
const FunctionScope* enclosing_function(
    const std::vector<FunctionScope>& fns, std::size_t t);

/// A class/struct definition with its members and their concurrency
/// annotations (src/common/annotations.h).
struct ClassInfo {
  struct Member {
    std::string name;
    std::vector<std::string> type; ///< as VarDecl::type
    bool is_function{false};
    int line{0};
    std::string guarded_by;      ///< US_GUARDED_BY(arg), empty if absent
    std::string requires_mutex;  ///< US_REQUIRES(arg), empty if absent
    bool not_guarded{false};     ///< US_NOT_GUARDED(...) present
    std::string not_guarded_rationale;

    bool type_contains(const std::string& ident) const;
  };

  std::string name;
  int line{0};
  std::size_t body_begin{0};
  std::size_t body_end{0};
  std::vector<Member> members;
};

/// Indexes every class/struct definition in the file, nested ones
/// included (each appears as its own entry; a nested class's members
/// are not double-reported on the enclosing class).
std::vector<ClassInfo> index_classes(const std::vector<Token>& toks);

}  // namespace uniserver::lint
