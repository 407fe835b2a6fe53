#include "parser.h"

#include <algorithm>
#include <set>

namespace uniserver::lint {

namespace {

bool is_punct(const std::vector<Token>& toks, std::size_t i, char c) {
  return i < toks.size() && toks[i].kind == TokKind::kPunct &&
         toks[i].text.size() == 1 && toks[i].text[0] == c;
}

bool is_ident(const std::vector<Token>& toks, std::size_t i) {
  return i < toks.size() && toks[i].kind == TokKind::kIdentifier;
}

bool is_ident(const std::vector<Token>& toks, std::size_t i,
              const char* text) {
  return is_ident(toks, i) && toks[i].text == text;
}

/// Qualifier-ish words skipped while parsing a declaration's type.
bool is_cv_word(const std::string& t) {
  static const std::set<std::string> kWords = {
      "const",   "constexpr", "static",       "mutable",  "volatile",
      "inline",  "explicit",  "typename",     "register", "thread_local",
      "virtual", "extern",    "alignas",      "restrict"};
  return kWords.count(t) != 0;
}

/// Statement keywords that can never open a declaration. A statement
/// starting with one of these is skipped rather than misread as
/// `type name`.
bool is_statement_keyword(const std::string& t) {
  static const std::set<std::string> kWords = {
      "return", "if",      "else",    "while",     "for",     "do",
      "switch", "case",    "default", "break",     "continue", "goto",
      "new",    "delete",  "throw",   "sizeof",    "using",   "typedef",
      "template", "namespace", "public", "private", "protected",
      "operator", "static_assert", "co_return", "co_await", "co_yield",
      "true",   "false",   "nullptr", "this",      "enum",    "class",
      "struct", "union",   "friend",  "try",       "catch",   "asm"};
  return kWords.count(t) != 0;
}

/// Type tails that mark a single-identifier parameter as an unnamed
/// builtin type rather than a name (`void f(std::size_t)`).
bool is_builtin_type_tail(const std::string& t) {
  static const std::set<std::string> kWords = {
      "void",     "int",      "unsigned", "signed",   "long",   "short",
      "char",     "bool",     "float",    "double",   "auto",   "size_t",
      "ptrdiff_t", "uintptr_t", "intptr_t", "nullptr_t",
      "uint8_t",  "uint16_t", "uint32_t", "uint64_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t"};
  return kWords.count(t) != 0;
}

/// From `<` at `i`, the index one past the matching `>` — or 0 when the
/// run does not look like template arguments (hits a statement
/// boundary first), which callers treat as "this `<` was a comparison".
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t i) {
  int depth = 0;
  for (std::size_t k = i; k < toks.size() && k < i + 256; ++k) {
    if (toks[k].kind != TokKind::kPunct) continue;
    const char c = toks[k].text[0];
    if (c == '<') ++depth;
    if (c == '>') {
      --depth;
      if (depth == 0) return k + 1;
    }
    if (c == ';' || c == '{' || c == '}') return 0;
  }
  return 0;
}

/// Appends the identifier tokens inside a `<...>` run to `out`.
void collect_template_idents(const std::vector<Token>& toks, std::size_t open,
                             std::size_t close, std::vector<std::string>& out) {
  for (std::size_t k = open + 1; k + 1 < close; ++k) {
    if (toks[k].kind == TokKind::kIdentifier && !is_cv_word(toks[k].text)) {
      out.push_back(toks[k].text);
    }
  }
}

/// One parsed `type name` declarator head starting at `i`. On success
/// `pos` sits on the terminator token (one of `= ; { ( : ,` or
/// whatever stopped the run — the caller validates it).
struct DeclaratorHead {
  bool ok{false};
  std::vector<std::string> type;
  std::string name;
  std::size_t name_tok{0};
  bool is_reference{false};
  std::size_t pos{0};  ///< terminator token index
};

DeclaratorHead parse_declarator_head(const std::vector<Token>& toks,
                                     std::size_t i, std::size_t end) {
  DeclaratorHead out;
  std::string candidate;  // last identifier seen: the name, unless more follow
  std::size_t candidate_tok = 0;
  std::size_t pos = i;
  while (pos < end) {
    const Token& t = toks[pos];
    if (t.kind == TokKind::kIdentifier) {
      if (t.text == "US_GUARDED_BY" || t.text == "US_REQUIRES" ||
          t.text == "US_NOT_GUARDED") {
        break;  // annotation macros terminate the declarator head
      }
      if (is_cv_word(t.text)) {
        ++pos;
        continue;
      }
      if (candidate.empty() && out.type.empty() &&
          is_statement_keyword(t.text)) {
        return out;  // `return x`, `throw y`, ... — not a declaration
      }
      if (!candidate.empty()) out.type.push_back(candidate);
      candidate = t.text;
      candidate_tok = pos;
      ++pos;
      if (is_punct(toks, pos, '<')) {
        const std::size_t after = skip_template_args(toks, pos);
        if (after == 0 || after > end) return out;  // comparison, not args
        out.type.push_back(candidate);
        collect_template_idents(toks, pos, after - 1, out.type);
        candidate.clear();
        pos = after;
      }
      continue;
    }
    if (is_punct(toks, pos, ':') && is_punct(toks, pos + 1, ':')) {
      if (candidate.empty()) return out;
      out.type.push_back(candidate);
      candidate.clear();
      pos += 2;
      if (!is_ident(toks, pos)) return out;
      continue;
    }
    if (is_punct(toks, pos, '&') || is_punct(toks, pos, '*')) {
      if (!candidate.empty()) {
        out.type.push_back(candidate);
        candidate.clear();
      }
      if (toks[pos].text[0] == '&') out.is_reference = true;
      ++pos;
      continue;
    }
    break;  // terminator
  }
  // `pos == end` is fine: a parameter chunk has no terminator token.
  if (candidate.empty() || out.type.empty()) return out;
  out.ok = true;
  out.name = candidate;
  out.name_tok = candidate_tok;
  out.pos = pos;
  return out;
}

/// Scans an initializer forward from `from`: stops before `;` or a
/// top-level `,`, or where bracket depth would go negative (the close
/// of an enclosing paren, e.g. a for-header or range-for).
std::size_t initializer_end(const std::vector<Token>& toks, std::size_t from,
                            std::size_t end) {
  int depth = 0;
  for (std::size_t k = from; k < end; ++k) {
    if (toks[k].kind != TokKind::kPunct) continue;
    const char c = toks[k].text[0];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      if (depth == 0) return k;
      --depth;
    }
    if (depth == 0 && (c == ';' || c == ',')) return k;
  }
  return end;
}

}  // namespace

std::size_t match_forward(const std::vector<Token>& toks, std::size_t open) {
  int depth = 0;
  for (std::size_t k = open; k < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kPunct) continue;
    const char c = toks[k].text[0];
    if (c == '(' || c == '[' || c == '{') ++depth;
    if (c == ')' || c == ']' || c == '}') {
      --depth;
      if (depth == 0) return k + 1;
    }
  }
  return toks.size();
}

bool VarDecl::type_contains(const std::string& ident) const {
  return std::find(type.begin(), type.end(), ident) != type.end();
}

bool ClassInfo::Member::type_contains(const std::string& ident) const {
  return std::find(type.begin(), type.end(), ident) != type.end();
}

std::vector<VarDecl> collect_declarations(const std::vector<Token>& toks,
                                          std::size_t begin, std::size_t end) {
  std::vector<VarDecl> decls;
  const std::size_t n = std::min(end, toks.size());
  for (std::size_t i = begin; i < n; ++i) {
    // Declarations start a statement: after `;` `{` `}` or inside a
    // parenthesized header (for-init, if-init, range-for).
    if (i != begin) {
      const Token& prev = toks[i - 1];
      if (prev.kind != TokKind::kPunct) continue;
      const char c = prev.text[0];
      if (c != ';' && c != '{' && c != '}' && c != '(') continue;
    }
    if (!is_ident(toks, i)) continue;

    // Structured bindings: `auto [a, b] = ...` / `auto& [a, b] : ...`.
    {
      std::size_t j = i;
      while (is_ident(toks, j) && is_cv_word(toks[j].text)) ++j;
      if (is_ident(toks, j, "auto")) {
        std::size_t k = j + 1;
        while (is_punct(toks, k, '&') || is_punct(toks, k, '*')) ++k;
        if (is_punct(toks, k, '[')) {
          const std::size_t close = match_forward(toks, k);
          for (std::size_t b = k + 1; b + 1 < close; ++b) {
            if (!is_ident(toks, b)) continue;
            VarDecl d;
            d.name = toks[b].text;
            d.type = {"auto"};
            d.name_tok = b;
            if (is_punct(toks, close, '=') || is_punct(toks, close, ':')) {
              d.init_begin = close + 1;
              d.init_end = initializer_end(toks, close + 1, n);
            }
            decls.push_back(std::move(d));
          }
          if (close < n) i = close;
          continue;
        }
      }
    }

    DeclaratorHead head = parse_declarator_head(toks, i, n);
    if (!head.ok) continue;
    VarDecl d;
    d.name = head.name;
    d.type = head.type;
    d.is_reference = head.is_reference;
    d.name_tok = head.name_tok;
    const std::size_t term = head.pos;
    if (is_punct(toks, term, '=') && !is_punct(toks, term + 1, '=')) {
      d.init_begin = term + 1;
      d.init_end = initializer_end(toks, term + 1, n);
    } else if (is_punct(toks, term, ':') && !is_punct(toks, term + 1, ':')) {
      d.init_begin = term + 1;  // range-for: `for (T x : expr)`
      d.init_end = initializer_end(toks, term + 1, n);
    } else if (is_punct(toks, term, '{')) {
      const std::size_t close = match_forward(toks, term);
      d.init_begin = term + 1;
      d.init_end = close == 0 ? term + 1 : close - 1;
    } else if (is_punct(toks, term, '(')) {
      // `Rng rng(seed);` — accept only when the call form closes into
      // `;`, so `std::move(x)` in an expression never reads as a decl.
      const std::size_t close = match_forward(toks, term);
      if (!is_punct(toks, close, ';')) continue;
      d.init_begin = term + 1;
      d.init_end = close - 1;
    } else if (!is_punct(toks, term, ';')) {
      continue;
    }
    decls.push_back(std::move(d));
  }
  return decls;
}

std::vector<VarDecl> parse_parameters(const std::vector<Token>& toks,
                                      std::size_t params_begin,
                                      std::size_t params_end) {
  std::vector<VarDecl> out;
  const std::size_t end = std::min(params_end, toks.size());
  std::size_t chunk = params_begin;
  int depth = 0;
  for (std::size_t k = params_begin; k <= end; ++k) {
    const bool at_end = k == end;
    if (!at_end && toks[k].kind == TokKind::kPunct) {
      const char c = toks[k].text[0];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
    }
    if (!at_end && !(toks[k].kind == TokKind::kPunct &&
                     toks[k].text[0] == ',' && depth == 0)) {
      continue;
    }
    if (k > chunk) {
      DeclaratorHead head = parse_declarator_head(toks, chunk, k);
      // A name needs a preceding type; `void f(Rng)` has only a type.
      if (head.ok && !is_builtin_type_tail(head.name) &&
          (is_punct(toks, head.pos, '=') || head.pos == k)) {
        VarDecl d;
        d.name = head.name;
        d.type = head.type;
        d.is_reference = head.is_reference;
        d.name_tok = head.name_tok;
        out.push_back(std::move(d));
      }
    }
    chunk = k + 1;
  }
  return out;
}

LambdaExpr parse_lambda(const std::vector<Token>& toks, std::size_t i) {
  LambdaExpr lam;
  if (!is_punct(toks, i, '[')) return lam;
  if (i > 0) {
    const Token& prev = toks[i - 1];
    if (prev.kind == TokKind::kIdentifier) return lam;  // subscript
    if (prev.kind == TokKind::kPunct &&
        (prev.text[0] == ')' || prev.text[0] == ']')) {
      return lam;  // subscript on a call/subscript result
    }
  }
  if (is_punct(toks, i + 1, '[')) return lam;  // [[attribute]]
  const std::size_t close = match_forward(toks, i);
  if (close >= toks.size()) return lam;

  // Captures: `&`, `=`, `this`, `&name[ = init]`, `name[ = init]`.
  std::size_t k = i + 1;
  while (k + 1 < close) {
    if (is_punct(toks, k, ',')) {
      ++k;
      continue;
    }
    if (is_punct(toks, k, '&')) {
      if (is_ident(toks, k + 1)) {
        lam.ref_captures.push_back(toks[k + 1].text);
        k += 2;
      } else {
        lam.default_ref = true;
        ++k;
      }
    } else if (is_punct(toks, k, '=') && (is_punct(toks, k + 1, ',') ||
                                          k + 1 == close - 1)) {
      lam.default_copy = true;
      ++k;
    } else if (is_ident(toks, k)) {
      if (toks[k].text != "this") lam.copy_captures.push_back(toks[k].text);
      ++k;
    } else {
      ++k;  // `*this` and friends — nothing to record
    }
    // An init-capture's expression runs to the next top-level comma.
    if (is_punct(toks, k, '=')) {
      k = initializer_end(toks, k + 1, close - 1);
    }
  }

  std::size_t pos = close;
  if (is_punct(toks, pos, '(')) {
    const std::size_t pclose = match_forward(toks, pos);
    lam.params = parse_parameters(toks, pos + 1, pclose - 1);
    pos = pclose;
  }
  // Specifiers / trailing return, then the body `{`.
  for (std::size_t guard = 0; guard < 64 && pos < toks.size(); ++guard) {
    if (is_punct(toks, pos, '{')) {
      lam.found = true;
      lam.intro = i;
      lam.line = toks[i].line;
      lam.body_begin = pos;
      lam.body_end = match_forward(toks, pos);
      return lam;
    }
    if (toks[pos].kind == TokKind::kIdentifier) {
      ++pos;
      continue;
    }
    if (toks[pos].kind == TokKind::kPunct) {
      const char c = toks[pos].text[0];
      if (c == '(') {
        pos = match_forward(toks, pos);  // noexcept(...)
        continue;
      }
      if (c == '<') {
        const std::size_t after = skip_template_args(toks, pos);
        if (after == 0) return lam;
        pos = after;
        continue;
      }
      if (c == '-' || c == '>' || c == '&' || c == '*' || c == ':') {
        ++pos;
        continue;
      }
    }
    return lam;  // `;` `)` `,` ... — not a lambda with a body
  }
  return lam;
}

std::vector<FunctionScope> index_functions(const std::vector<Token>& toks) {
  std::vector<FunctionScope> fns;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks, i) || !is_punct(toks, i + 1, '(')) continue;
    const std::string& name = toks[i].text;
    if (is_statement_keyword(name) && name != "operator") continue;
    const std::size_t pclose = match_forward(toks, i + 1);
    if (pclose >= toks.size()) continue;
    std::size_t j = pclose;
    bool is_function = false;
    for (std::size_t guard = 0; guard < 512 && j < toks.size(); ++guard) {
      if (is_ident(toks, j)) {
        const std::string& q = toks[j].text;
        if (q == "const" || q == "noexcept" || q == "override" ||
            q == "final" || q == "mutable" || q == "US_REQUIRES" ||
            q == "US_GUARDED_BY" || q == "US_NOT_GUARDED") {
          ++j;
          if (is_punct(toks, j, '(')) j = match_forward(toks, j);
          continue;
        }
        break;  // two names in a row — an expression, not a signature
      }
      if (is_punct(toks, j, '{')) {
        is_function = true;
        break;
      }
      if (is_punct(toks, j, '-') && is_punct(toks, j + 1, '>')) {
        // Trailing return type: skip its tokens up to `{` or `;`.
        j += 2;
        while (j < toks.size() && !is_punct(toks, j, '{') &&
               !is_punct(toks, j, ';')) {
          if (is_punct(toks, j, '(')) {
            j = match_forward(toks, j);
          } else if (is_punct(toks, j, '<')) {
            const std::size_t after = skip_template_args(toks, j);
            if (after == 0) break;
            j = after;
          } else {
            ++j;
          }
        }
        continue;
      }
      if (is_punct(toks, j, ':') && !is_punct(toks, j + 1, ':')) {
        // Constructor initializer list: `: member(init), member{init} {`.
        ++j;
        while (j < toks.size()) {
          if (!is_ident(toks, j)) break;
          ++j;
          if (is_punct(toks, j, '<')) {
            const std::size_t after = skip_template_args(toks, j);
            if (after == 0) break;
            j = after;
          }
          if (!is_punct(toks, j, '(') && !is_punct(toks, j, '{')) break;
          j = match_forward(toks, j);
          if (is_punct(toks, j, ',')) {
            ++j;
            continue;
          }
          break;
        }
        continue;
      }
      break;  // `;` (declaration), `=`, operators — not a definition
    }
    if (!is_function) continue;
    FunctionScope fn;
    fn.params_begin = i + 2;
    fn.params_end = pclose;
    fn.body_begin = j;
    fn.body_end = match_forward(toks, j);
    fns.push_back(std::move(fn));
  }
  return fns;
}

const FunctionScope* enclosing_function(
    const std::vector<FunctionScope>& fns, std::size_t t) {
  const FunctionScope* best = nullptr;
  for (const FunctionScope& fn : fns) {
    if (fn.body_begin < t && t < fn.body_end) {
      if (best == nullptr ||
          fn.body_end - fn.body_begin < best->body_end - best->body_begin) {
        best = &fn;
      }
    }
  }
  return best;
}

namespace {

/// Parses one annotation macro at `pos` into `m`; returns one past it,
/// or `pos` when the token there is not an annotation.
std::size_t parse_annotation(const std::vector<Token>& toks, std::size_t pos,
                             ClassInfo::Member& m) {
  if (!is_ident(toks, pos)) return pos;
  const std::string& name = toks[pos].text;
  if (name != "US_GUARDED_BY" && name != "US_REQUIRES" &&
      name != "US_NOT_GUARDED") {
    return pos;
  }
  std::size_t arg_begin = pos + 1;
  std::size_t after = pos + 1;
  if (is_punct(toks, pos + 1, '(')) {
    after = match_forward(toks, pos + 1);
    arg_begin = pos + 2;
  }
  if (name == "US_NOT_GUARDED") {
    m.not_guarded = true;
    if (arg_begin < after && toks[arg_begin].kind == TokKind::kString) {
      m.not_guarded_rationale = toks[arg_begin].text;
    }
  } else {
    std::string arg;
    for (std::size_t k = arg_begin; k + 1 < after; ++k) {
      arg += toks[k].text;
    }
    if (name == "US_GUARDED_BY") {
      m.guarded_by = arg;
    } else {
      m.requires_mutex = arg;
    }
  }
  return after;
}

/// Error recovery inside a class body: advance past the current member
/// declaration — the next `;` at this nesting level, hopping over
/// balanced brackets (so a skipped inline function body is one hop).
std::size_t skip_member(const std::vector<Token>& toks, std::size_t pos,
                        std::size_t end) {
  while (pos < end) {
    if (toks[pos].kind == TokKind::kPunct) {
      const char c = toks[pos].text[0];
      if (c == ';') return pos + 1;
      if (c == '(' || c == '[' || c == '{') {
        const std::size_t after = match_forward(toks, pos);
        // An inline function body `{...}` ends the member with no `;`.
        if (c == '{') return after;
        pos = after;
        continue;
      }
      if (c == '}') return pos;  // never step past the class body
    }
    ++pos;
  }
  return end;
}

void parse_members(const std::vector<Token>& toks, ClassInfo& cls) {
  const std::size_t end = cls.body_end > 0 ? cls.body_end - 1 : 0;
  std::size_t pos = cls.body_begin + 1;
  while (pos < end) {
    if (is_punct(toks, pos, ';')) {
      ++pos;
      continue;
    }
    if (is_ident(toks, pos)) {
      const std::string& w = toks[pos].text;
      if ((w == "public" || w == "private" || w == "protected") &&
          is_punct(toks, pos + 1, ':')) {
        pos += 2;
        continue;
      }
      if (w == "using" || w == "typedef" || w == "friend" ||
          w == "static_assert") {
        pos = skip_member(toks, pos, end);
        continue;
      }
      if (w == "template") {
        if (is_punct(toks, pos + 1, '<')) {
          const std::size_t after = skip_template_args(toks, pos + 1);
          pos = after == 0 ? skip_member(toks, pos, end) : after;
        } else {
          ++pos;
        }
        continue;
      }
      if (w == "class" || w == "struct" || w == "enum" || w == "union") {
        // Nested type: indexed separately by index_classes; here we
        // just hop over its definition (and any trailing declarator).
        pos = skip_member(toks, pos, end);
        if (pos < end && !is_punct(toks, pos - 1, ';')) {
          // `struct X { ... } name_;` — consume through the `;`.
          while (pos < end && !is_punct(toks, pos, ';')) ++pos;
          if (pos < end) ++pos;
        }
        continue;
      }
      if (w == "operator") {
        pos = skip_member(toks, pos, end);
        continue;
      }
    }
    if (is_punct(toks, pos, '~')) {  // destructor
      pos = skip_member(toks, pos, end);
      continue;
    }

    // Constructor: `ClassName(...)` — a single identifier equal to the
    // class name followed by `(` (cv words like `explicit` already
    // stripped by the declarator parser's cv skip below).
    {
      std::size_t j = pos;
      while (is_ident(toks, j) && is_cv_word(toks[j].text)) ++j;
      if (is_ident(toks, j, cls.name.c_str()) && is_punct(toks, j + 1, '(')) {
        pos = skip_member(toks, j, end);
        continue;
      }
    }

    DeclaratorHead head = parse_declarator_head(toks, pos, end);
    if (!head.ok || head.name == "operator") {
      // `Type& operator=(...)` parses as a declarator named `operator`
      // — an operator overload, never a data member.
      pos = skip_member(toks, pos, end);
      continue;
    }

    ClassInfo::Member m;
    m.name = head.name;
    m.type = head.type;
    m.line = toks[head.name_tok].line;
    std::size_t j = head.pos;

    // Annotations directly after the name (data members).
    for (;;) {
      const std::size_t after = parse_annotation(toks, j, m);
      if (after == j) break;
      j = after;
    }

    if (is_punct(toks, j, '(')) {
      // Member function: params, qualifiers (annotations included),
      // then body / `;` / `= default`.
      m.is_function = true;
      j = match_forward(toks, j);
      for (std::size_t guard = 0; guard < 64 && j < end; ++guard) {
        const std::size_t after = parse_annotation(toks, j, m);
        if (after != j) {
          j = after;
          continue;
        }
        if (is_ident(toks, j)) {
          const std::string& q = toks[j].text;
          if (q == "const" || q == "noexcept" || q == "override" ||
              q == "final") {
            ++j;
            if (is_punct(toks, j, '(')) j = match_forward(toks, j);
            continue;
          }
        }
        break;
      }
      cls.members.push_back(std::move(m));
      pos = skip_member(toks, j > pos ? j - 1 : pos, end);
      if (pos <= head.name_tok) pos = head.name_tok + 1;
      continue;
    }

    // Data member: `;` / `= init;` / `{init};` (annotations may also
    // sit between the initializer forms — already consumed above).
    cls.members.push_back(std::move(m));
    pos = skip_member(toks, j, end);
    if (pos <= head.name_tok) pos = head.name_tok + 1;
  }
}

}  // namespace

std::vector<ClassInfo> index_classes(const std::vector<Token>& toks) {
  std::vector<ClassInfo> classes;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks, i)) continue;
    const std::string& kw = toks[i].text;
    if (kw != "class" && kw != "struct") continue;
    if (i > 0 && is_ident(toks, i - 1, "enum")) continue;  // enum class
    std::size_t j = i + 1;
    if (!is_ident(toks, j)) continue;  // anonymous / template parameter
    const std::string name = toks[j].text;
    if (is_cv_word(name) || is_statement_keyword(name)) continue;
    ++j;
    if (is_ident(toks, j, "final")) ++j;
    if (is_punct(toks, j, ':') && !is_punct(toks, j + 1, ':')) {
      // Base-clause: scan forward to the opening `{`, giving up at a
      // statement boundary (which means this was `case x:` etc.).
      std::size_t k = j + 1;
      bool found = false;
      for (std::size_t guard = 0; guard < 128 && k < toks.size(); ++guard) {
        if (is_punct(toks, k, '{')) {
          found = true;
          break;
        }
        if (is_punct(toks, k, ';') || is_punct(toks, k, '}')) break;
        if (is_punct(toks, k, '<')) {
          const std::size_t after = skip_template_args(toks, k);
          if (after == 0) break;
          k = after;
          continue;
        }
        ++k;
      }
      if (!found) continue;
      j = k;
    }
    if (!is_punct(toks, j, '{')) continue;
    ClassInfo cls;
    cls.name = name;
    cls.line = toks[i].line;
    cls.body_begin = j;
    cls.body_end = match_forward(toks, j);
    parse_members(toks, cls);
    classes.push_back(std::move(cls));
  }
  return classes;
}

}  // namespace uniserver::lint
