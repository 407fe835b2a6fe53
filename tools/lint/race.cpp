#include "race.h"

#include <algorithm>
#include <map>
#include <set>
#include <string>

#include "parser.h"

namespace uniserver::lint {

namespace {

bool is_punct(const std::vector<Token>& toks, std::size_t i, char c) {
  return i < toks.size() && toks[i].kind == TokKind::kPunct &&
         toks[i].text.size() == 1 && toks[i].text[0] == c;
}

bool is_ident(const std::vector<Token>& toks, std::size_t i) {
  return i < toks.size() && toks[i].kind == TokKind::kIdentifier;
}

/// Methods that are safe to call on shared state inside a parallel
/// body: std::atomic operations, telemetry handle operations (Counter
/// add, Gauge set, Histogram record are all atomic by design), and
/// lock/notify primitives.
bool is_safe_method(const std::string& m) {
  static const std::set<std::string> kSafe = {
      "add",        "set",        "record",      "store",
      "load",       "fetch_add",  "fetch_sub",   "fetch_or",
      "fetch_and",  "fetch_xor",  "exchange",    "compare_exchange_weak",
      "compare_exchange_strong",  "notify_one",  "notify_all",
      "count_down", "lock",       "unlock",      "try_lock",
      "wait"};
  return kSafe.count(m) != 0;
}

/// Methods that mutate their object. Everything else is assumed
/// read-only (fail open — TSan still covers mutating methods we miss).
bool is_mutating_method(const std::string& m) {
  static const std::set<std::string> kMut = {
      "push_back", "emplace_back", "push_front", "emplace_front",
      "emplace",   "insert",       "erase",      "clear",
      "resize",    "reserve",      "assign",     "pop_back",
      "pop_front", "push",         "pop",        "swap",
      "reset",     "shrink_to_fit", "merge",     "extract",
      "splice",    "sort",         "remove",     "remove_if",
      "unique",    "reverse",      "append",     "operator="};
  return kMut.count(m) != 0;
}

/// The uniserver::Rng drawing/forking interface (src/common/rng.h).
bool is_rng_method(const std::string& m) {
  static const std::set<std::string> kRng = {
      "next",        "fork",      "uniform",  "uniform_u64",
      "uniform_int", "bernoulli", "normal",   "lognormal",
      "exponential", "poisson",   "binomial", "weighted_pick",
      "shuffle"};
  return kRng.count(m) != 0;
}

/// An lvalue access path resolved by walking backwards over
/// `base.member[sub]->field` chains from the token before a write.
struct Lvalue {
  bool resolved{false};
  std::string base;               ///< leftmost identifier of the chain
  std::string leaf;               ///< rightmost identifier: what is written
  std::size_t base_tok{0};
  std::vector<std::size_t> subscript_tokens;  ///< every token inside []
};

Lvalue walk_lvalue(const std::vector<Token>& toks, std::size_t end_idx,
                   std::size_t lo) {
  Lvalue out;
  std::size_t i = end_idx;
  for (std::size_t guard = 0; guard < 64; ++guard) {
    if (i < lo || i >= toks.size()) return out;
    if (is_punct(toks, i, ']')) {
      int depth = 0;
      std::size_t open = i;
      while (open > lo) {
        if (is_punct(toks, open, ']')) ++depth;
        if (is_punct(toks, open, '[')) {
          --depth;
          if (depth == 0) break;
        }
        --open;
      }
      if (!is_punct(toks, open, '[')) return out;
      for (std::size_t k = open + 1; k < i; ++k) {
        out.subscript_tokens.push_back(k);
      }
      if (open == lo) return out;
      i = open - 1;
      continue;
    }
    if (is_ident(toks, i)) {
      if (out.leaf.empty()) out.leaf = toks[i].text;
      if (i > lo && is_punct(toks, i - 1, '.')) {
        i -= 2;
        continue;
      }
      if (i > lo + 1 && is_punct(toks, i - 1, '>') &&
          is_punct(toks, i - 2, '-')) {
        i -= 3;
        continue;
      }
      if (i > lo + 1 && is_punct(toks, i - 1, ':') &&
          is_punct(toks, i - 2, ':')) {
        i -= 3;  // qualified name — keep walking to the leftmost part
        continue;
      }
      out.resolved = true;
      out.base = toks[i].text;
      out.base_tok = i;
      return out;
    }
    return out;  // parens, literals, `*p` — fail open
  }
  return out;
}

/// Forward walk for a prefix `++x.y[z]`: base is the first identifier,
/// subscripts are collected along the member chain.
Lvalue walk_lvalue_forward(const std::vector<Token>& toks, std::size_t start,
                           std::size_t hi) {
  Lvalue out;
  if (!is_ident(toks, start)) return out;
  out.resolved = true;
  out.base = toks[start].text;
  out.leaf = out.base;
  out.base_tok = start;
  std::size_t i = start + 1;
  for (std::size_t guard = 0; guard < 64 && i < hi; ++guard) {
    if (is_punct(toks, i, '[')) {
      const std::size_t close = match_forward(toks, i);
      for (std::size_t k = i + 1; k + 1 < close; ++k) {
        out.subscript_tokens.push_back(k);
      }
      i = close;
      continue;
    }
    if (is_punct(toks, i, '.') && is_ident(toks, i + 1)) {
      out.leaf = toks[i + 1].text;
      i += 2;
      continue;
    }
    if (is_punct(toks, i, '-') && is_punct(toks, i + 1, '>') &&
        is_ident(toks, i + 2)) {
      out.leaf = toks[i + 2].text;
      i += 3;
      continue;
    }
    break;
  }
  return out;
}

/// One write site discovered inside a token range.
struct WriteSite {
  Lvalue lv;
  std::size_t at{0};        ///< token index used for the finding line
  std::string method;       ///< non-empty for mutating member calls
  const char* kind{""};     ///< "assignment" / "increment" / ...
};

/// Scans (begin, end) for assignments, increments/decrements, and
/// mutating member calls. Writes through safe (atomic/telemetry/lock)
/// methods are not reported here — they are filtered by the caller so
/// the same scan serves both the parallel and message rules.
std::vector<WriteSite> collect_writes(const std::vector<Token>& toks,
                                      std::size_t begin, std::size_t end) {
  std::vector<WriteSite> out;
  for (std::size_t k = begin; k < end && k < toks.size(); ++k) {
    if (toks[k].kind != TokKind::kPunct) continue;
    const char c = toks[k].text[0];

    if (c == '=') {
      if (is_punct(toks, k + 1, '=')) continue;       // ==
      if (k == 0) continue;
      std::size_t lv_end = k - 1;
      if (toks[k - 1].kind == TokKind::kPunct) {
        const char p = toks[k - 1].text[0];
        if (p == '=' || p == '!') continue;           // ==, !=
        if (p == '<' || p == '>') {
          // <= and >= are comparisons; <<= and >>= are compound writes.
          if (!is_punct(toks, k - 2, p)) continue;
          lv_end = k - 3;
        } else if (p == '+' || p == '-' || p == '*' || p == '/' ||
                   p == '%' || p == '&' || p == '|' || p == '^') {
          lv_end = k - 2;
        } else if (p == ']') {
          lv_end = k - 1;  // subscripted store: `x[i] = v`
        } else {
          continue;  // `(=`, `{=`, `,=` — init-capture or default arg
        }
      }
      WriteSite w;
      w.lv = walk_lvalue(toks, lv_end, begin);
      w.at = k;
      w.kind = "assignment";
      if (w.lv.resolved) out.push_back(std::move(w));
      continue;
    }

    if ((c == '+' || c == '-') && is_punct(toks, k + 1, c)) {
      WriteSite w;
      w.at = k;
      w.kind = c == '+' ? "increment" : "decrement";
      const bool postfix =
          k > begin && (is_ident(toks, k - 1) || is_punct(toks, k - 1, ']') ||
                        is_punct(toks, k - 1, ')'));
      if (postfix) {
        w.lv = walk_lvalue(toks, k - 1, begin);
      } else if (is_ident(toks, k + 2)) {
        w.lv = walk_lvalue_forward(toks, k + 2, end);
      }
      if (w.lv.resolved) out.push_back(std::move(w));
      ++k;  // don't re-match the second + / -
      continue;
    }

    // Member calls: `.name(` and `->name(`.
    bool member_call = false;
    std::size_t name_idx = 0;
    if (c == '.' && is_ident(toks, k + 1) && is_punct(toks, k + 2, '(')) {
      member_call = true;
      name_idx = k + 1;
    } else if (c == '-' && is_punct(toks, k + 1, '>') &&
               is_ident(toks, k + 2) && is_punct(toks, k + 3, '(')) {
      member_call = true;
      name_idx = k + 2;
    }
    if (member_call) {
      WriteSite w;
      w.method = toks[name_idx].text;
      w.at = name_idx;
      w.kind = "mutating call";
      w.lv = walk_lvalue(toks, k - 1, begin);
      out.push_back(std::move(w));  // caller filters by method class
    }
  }
  return out;
}

/// One parallel region: the call site plus the analyzed (map) lambda.
struct ParallelRegion {
  std::string callee;
  LambdaExpr lam;
  std::size_t call_tok{0};
};

std::vector<ParallelRegion> find_parallel_regions(
    const std::vector<Token>& toks) {
  std::vector<ParallelRegion> out;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks, i)) continue;
    const std::string& name = toks[i].text;
    if (name != "parallel_for_each" && name != "parallel_map" &&
        name != "parallel_reduce") {
      continue;
    }
    std::size_t j = i + 1;
    if (is_punct(toks, j, '<')) {
      // Explicit template arguments: `parallel_map<double>(...)`.
      int depth = 0;
      std::size_t k = j;
      for (; k < toks.size() && k < j + 64; ++k) {
        if (is_punct(toks, k, '<')) ++depth;
        if (is_punct(toks, k, '>')) {
          --depth;
          if (depth == 0) break;
        }
        if (is_punct(toks, k, ';') || is_punct(toks, k, '{')) break;
      }
      if (!is_punct(toks, k, '>')) continue;
      j = k + 1;
    }
    if (!is_punct(toks, j, '(')) continue;
    const std::size_t close = match_forward(toks, j);

    // Top-level lambdas among the arguments. parallel_reduce's fold
    // lambda runs serially in submission order (src/common/parallel.h)
    // and must not be analyzed — only the first (map) lambda is.
    int depth = 0;
    for (std::size_t k = j + 1; k + 1 < close; ++k) {
      if (toks[k].kind == TokKind::kPunct) {
        const char c = toks[k].text[0];
        if (depth == 0 && c == '[') {
          LambdaExpr lam = parse_lambda(toks, k);
          if (lam.found) {
            out.push_back({name, lam, i});
            if (name == "parallel_reduce") break;  // skip the fold lambda
            k = lam.body_end - 1;
            continue;
          }
        }
        if (c == '(' || c == '[' || c == '{') ++depth;
        if (c == ')' || c == ']' || c == '}') --depth;
      }
    }
  }
  return out;
}

/// Lock-protected token ranges: from each lock_guard/unique_lock/
/// scoped_lock declaration to the end of its enclosing brace block.
std::vector<std::pair<std::size_t, std::size_t>> lock_ranges(
    const std::vector<Token>& toks, std::size_t body_begin,
    std::size_t body_end, const std::vector<VarDecl>& body_decls) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const VarDecl& d : body_decls) {
    if (!d.type_contains("lock_guard") && !d.type_contains("unique_lock") &&
        !d.type_contains("scoped_lock")) {
      continue;
    }
    // Innermost open brace at the declaration.
    std::size_t open = body_begin;
    std::vector<std::size_t> stack;
    for (std::size_t k = body_begin; k < d.name_tok && k < body_end; ++k) {
      if (is_punct(toks, k, '{')) stack.push_back(k);
      if (is_punct(toks, k, '}') && !stack.empty()) stack.pop_back();
    }
    if (!stack.empty()) open = stack.back();
    out.emplace_back(d.name_tok, match_forward(toks, open));
  }
  return out;
}

bool in_ranges(const std::vector<std::pair<std::size_t, std::size_t>>& ranges,
               std::size_t t) {
  for (const auto& r : ranges) {
    if (r.first <= t && t < r.second) return true;
  }
  return false;
}

}  // namespace

void check_parallel_regions(const FileInput& file, bool rule_parallel,
                            bool rule_rng, std::vector<Finding>& findings) {
  const std::vector<Token>& toks = file.tokens;
  const std::vector<ParallelRegion> regions = find_parallel_regions(toks);
  if (regions.empty()) return;
  const std::vector<FunctionScope> fns = index_functions(toks);

  for (const ParallelRegion& region : regions) {
    const LambdaExpr& lam = region.lam;

    // Names private to one body invocation: parameters (the loop
    // index), body declarations, nested lambda parameters, and
    // by-copy captures (each worker invocation sees its own copy of
    // the closure only if the lambda is per-item, which par:: bodies
    // are not — but copy captures are at worst a stale read, never a
    // cross-item write).
    std::set<std::string> locals;
    std::set<std::string> index_names;  // sanction subscripts
    for (const VarDecl& p : lam.params) {
      locals.insert(p.name);
      index_names.insert(p.name);
    }
    for (const std::string& c : lam.copy_captures) locals.insert(c);
    const std::vector<VarDecl> body_decls =
        collect_declarations(toks, lam.body_begin + 1, lam.body_end - 1);
    std::map<std::string, const VarDecl*> body_by_name;
    for (const VarDecl& d : body_decls) {
      locals.insert(d.name);
      index_names.insert(d.name);  // body-locals are per-invocation
      body_by_name.emplace(d.name, &d);
    }
    for (std::size_t k = lam.body_begin + 1; k + 1 < lam.body_end; ++k) {
      if (is_punct(toks, k, '[')) {
        LambdaExpr nested = parse_lambda(toks, k);
        if (nested.found) {
          for (const VarDecl& p : nested.params) {
            locals.insert(p.name);
            index_names.insert(p.name);
          }
        }
      }
    }

    // Declarations visible in the enclosing function (captured state).
    std::map<std::string, const VarDecl*> enclosing;
    std::vector<VarDecl> enclosing_decls;
    const FunctionScope* fn = enclosing_function(fns, region.call_tok);
    if (fn != nullptr) {
      enclosing_decls =
          collect_declarations(toks, fn->body_begin + 1, fn->body_end - 1);
      // The harvest covers the whole function body, lambda included —
      // drop the lambda's own declarations or its locals would read as
      // enclosing (shared) state.
      enclosing_decls.erase(
          std::remove_if(enclosing_decls.begin(), enclosing_decls.end(),
                         [&](const VarDecl& d) {
                           return d.name_tok > lam.body_begin &&
                                  d.name_tok < lam.body_end;
                         }),
          enclosing_decls.end());
      const std::vector<VarDecl> params =
          parse_parameters(toks, fn->params_begin, fn->params_end);
      enclosing_decls.insert(enclosing_decls.end(), params.begin(),
                             params.end());
      for (const VarDecl& d : enclosing_decls) {
        enclosing.emplace(d.name, &d);
      }
    }

    const auto locks =
        lock_ranges(toks, lam.body_begin, lam.body_end, body_decls);

    if (rule_parallel) {
      for (const WriteSite& w :
           collect_writes(toks, lam.body_begin + 1, lam.body_end - 1)) {
        if (!w.method.empty()) {
          if (is_safe_method(w.method)) continue;     // atomic/telemetry
          if (!is_mutating_method(w.method)) continue;  // assumed read
        }
        if (!w.lv.resolved) continue;                  // fail open
        if (locals.count(w.lv.base) != 0) continue;    // body-local
        bool indexed = false;
        for (std::size_t s : w.lv.subscript_tokens) {
          if (is_ident(toks, s) && index_names.count(toks[s].text) != 0) {
            indexed = true;
            break;
          }
        }
        if (indexed) continue;                         // per-item slot
        auto it = enclosing.find(w.lv.base);
        if (it != enclosing.end() && it->second->type_contains("atomic")) {
          continue;
        }
        if (in_ranges(locks, w.at)) continue;          // lock-protected
        findings.push_back(
            {file.path, toks[w.at].line, "parallel",
             "parallel body passed to " + region.callee + " writes shared '" +
                 w.lv.base + "' (" + w.kind +
                 ") without per-item indexing, an atomic, or a held lock; "
                 "the pool contract requires bodies safe for distinct "
                 "indices (src/common/parallel.h)"});
      }
    }

    if (rule_rng) {
      // Shared coordinator streams and sanctioned substream vectors,
      // from the enclosing scope.
      std::set<std::string> shared_rng;
      std::set<std::string> stream_vecs;
      for (const VarDecl& d : enclosing_decls) {
        const bool has_rng = d.type_contains("Rng");
        const bool is_container = d.type_contains("vector") ||
                                  d.type_contains("array") ||
                                  d.type_contains("deque");
        bool forked = false;
        for (std::size_t k = d.init_begin; k < d.init_end && k < toks.size();
             ++k) {
          if (is_ident(toks, k) && toks[k].text == "fork_streams") {
            forked = true;
            break;
          }
        }
        if ((has_rng && is_container) || forked) {
          stream_vecs.insert(d.name);
        } else if (has_rng) {
          shared_rng.insert(d.name);
        }
      }
      // Body-local Rng declarations: `Rng& s = streams[i]` and fresh
      // per-item engines are sanctioned; `Rng& s = rng` aliases the
      // coordinator and is treated as shared.
      std::set<std::string> local_shared_alias;
      for (const VarDecl& d : body_decls) {
        if (!d.type_contains("Rng") || d.type_contains("vector")) continue;
        for (std::size_t k = d.init_begin; k < d.init_end && k < toks.size();
             ++k) {
          if (is_ident(toks, k) && shared_rng.count(toks[k].text) != 0) {
            local_shared_alias.insert(d.name);
            break;
          }
        }
      }

      std::set<std::string> reported;
      for (std::size_t k = lam.body_begin + 1; k + 1 < lam.body_end; ++k) {
        if (!is_ident(toks, k)) continue;
        const std::string& name = toks[k].text;
        if ((shared_rng.count(name) != 0 ||
             local_shared_alias.count(name) != 0) &&
            reported.insert(name).second) {
          findings.push_back(
              {file.path, toks[k].line, "rng",
               "shared Rng '" + name + "' reaches the parallel body passed "
               "to " + region.callee + "; fork per-item substreams with "
               "par::fork_streams before the region (src/common/parallel.h)"});
          continue;
        }
        // Draws on a substream vector need a per-item subscript:
        // `streams[i].uniform()` is the contract, `streams[0]` is a
        // coordinator stream in disguise.
        if (stream_vecs.count(name) == 0) continue;
        std::size_t j = k + 1;
        std::vector<std::size_t> subs;
        while (is_punct(toks, j, '[')) {
          const std::size_t close = match_forward(toks, j);
          for (std::size_t s = j + 1; s + 1 < close; ++s) subs.push_back(s);
          j = close;
        }
        if (!is_punct(toks, j, '.') || !is_ident(toks, j + 1) ||
            !is_rng_method(toks[j + 1].text)) {
          continue;
        }
        bool indexed = false;
        for (std::size_t s : subs) {
          if (is_ident(toks, s) && index_names.count(toks[s].text) != 0) {
            indexed = true;
            break;
          }
        }
        if (!indexed && reported.insert(name + "[]").second) {
          findings.push_back(
              {file.path, toks[k].line, "rng",
               "parallel body draws from substream vector '" + name +
                   "' without a per-item index; each item must use its own "
                   "fork_streams substream (src/common/parallel.h)"});
        }
      }
    }
  }
}

void check_message_plane(const FileInput& file,
                         std::vector<Finding>& findings) {
  if (!file.message_plane) return;
  const std::vector<Token>& toks = file.tokens;
  const std::vector<FunctionScope> fns = index_functions(toks);

  // Simulated-time names whose mutation bypasses the message heap, and
  // monotone counters that must never rewind.
  static const std::set<std::string> kTimeNames = {"now", "now_",
                                                   "sim_time_", "clock_"};
  static const std::set<std::string> kSeqNames = {"next_seq_", "submit_seq_"};

  for (const WriteSite& w : collect_writes(toks, 0, toks.size())) {
    if (!w.lv.resolved) continue;
    const FunctionScope* fn = enclosing_function(fns, w.at);
    const std::string fn_name = fn != nullptr ? fn->name : "";

    if (w.method.empty() && kTimeNames.count(w.lv.base) != 0 &&
        std::string(w.kind) == "assignment" && fn_name != "advance") {
      findings.push_back(
          {file.path, toks[w.at].line, "message",
           "direct mutation of simulated time '" + w.lv.base +
               "'; time only moves forward through the (time, seq) message "
               "heap in advance() (docs/MIGRATION.md)"});
      continue;
    }
    if (w.method.empty() && kSeqNames.count(w.lv.base) != 0 &&
        (std::string(w.kind) == "assignment" ||
         std::string(w.kind) == "decrement")) {
      findings.push_back(
          {file.path, toks[w.at].line, "message",
           "sequence counter '" + w.lv.base + "' rewound; the (time, seq) "
           "total order requires monotone sequence numbers "
           "(docs/MIGRATION.md)"});
      continue;
    }
    if (w.lv.base == "generation_") {
      const bool reset =
          (w.method.empty() && std::string(w.kind) == "assignment") ||
          w.method == "erase" || w.method == "clear";
      if (reset) {
        findings.push_back(
            {file.path, toks[w.at].line, "message",
             "per-VM generation counter reset; generations must grow "
             "monotonically so stale in-flight messages stay poisoned "
             "(docs/STATIC_ANALYSIS.md)"});
        continue;
      }
    }
    if (w.method.empty() && w.lv.leaf == "timer_seq" &&
        fn_name != "schedule") {
      findings.push_back(
          {file.path, toks[w.at].line, "message",
           "ticket timer_seq written outside schedule(); it must name the "
           "message schedule() pushed last, or a stale timer could fire "
           "(docs/MIGRATION.md)"});
      continue;
    }
    if ((w.method == "push" || w.method == "emplace") &&
        w.lv.base == "messages_" && fn_name != "schedule") {
      findings.push_back(
          {file.path, toks[w.at].line, "message",
           "messages_ heap push outside schedule(); every message must go "
           "through schedule() to get (time, seq) ordering and become its "
           "ticket's live timer (docs/MIGRATION.md)"});
      continue;
    }
  }

  // schedule() with a negative delay: a literal negative offset or a
  // `now.value - x` argument schedules into the past.
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (!is_ident(toks, i) || toks[i].text != "schedule" ||
        !is_punct(toks, i + 1, '(')) {
      continue;
    }
    const std::size_t close = match_forward(toks, i + 1);
    for (std::size_t k = i + 2; k + 1 < close; ++k) {
      if (!is_punct(toks, k, '-')) continue;
      if (is_punct(toks, k + 1, '>') || is_punct(toks, k + 1, '-')) continue;
      const bool unary_neg =
          toks[k + 1].kind == TokKind::kNumber &&
          (toks[k - 1].kind == TokKind::kPunct &&
           (toks[k - 1].text[0] == '{' || toks[k - 1].text[0] == '(' ||
            toks[k - 1].text[0] == ','));
      const bool past_of_now =
          k >= 3 && is_ident(toks, k - 1) && toks[k - 1].text == "value" &&
          is_punct(toks, k - 2, '.') && is_ident(toks, k - 3) &&
          kTimeNames.count(toks[k - 3].text) != 0;
      if (unary_neg || past_of_now) {
        findings.push_back(
            {file.path, toks[k].line, "message",
             "schedule() with a negative delay; messages must land at or "
             "after the current simulated time (docs/MIGRATION.md)"});
        break;
      }
    }
  }
}

void check_guarded(const FileInput& file, std::vector<Finding>& findings) {
  static const std::set<std::string> kExemptTypes = {
      "mutex", "shared_mutex", "recursive_mutex", "condition_variable",
      "condition_variable_any", "atomic", "atomic_flag", "once_flag"};

  for (const ClassInfo& cls : index_classes(file.tokens)) {
    std::set<std::string> mutexes;
    for (const ClassInfo::Member& m : cls.members) {
      if (m.is_function) continue;
      if (m.type_contains("mutex") && !m.type_contains("lock_guard") &&
          !m.type_contains("unique_lock") && !m.type_contains("scoped_lock")) {
        mutexes.insert(m.name);
      }
    }

    for (const ClassInfo::Member& m : cls.members) {
      if (!m.guarded_by.empty() && mutexes.count(m.guarded_by) == 0) {
        findings.push_back(
            {file.path, m.line, "guarded",
             "US_GUARDED_BY(" + m.guarded_by + ") on '" + m.name +
                 "' names no mutex member of class '" + cls.name + "'"});
      }
      if (!m.requires_mutex.empty() && mutexes.count(m.requires_mutex) == 0) {
        findings.push_back(
            {file.path, m.line, "guarded",
             "US_REQUIRES(" + m.requires_mutex + ") on '" + m.name +
                 "' names no mutex member of class '" + cls.name + "'"});
      }
      if (m.not_guarded && m.not_guarded_rationale.empty()) {
        findings.push_back(
            {file.path, m.line, "guarded",
             "US_NOT_GUARDED on '" + m.name +
                 "' needs a non-empty rationale string"});
      }
      if (m.is_function || mutexes.empty()) continue;
      if (mutexes.count(m.name) != 0) continue;
      bool exempt = false;
      for (const std::string& t : m.type) {
        if (kExemptTypes.count(t) != 0) {
          exempt = true;
          break;
        }
      }
      if (exempt || !m.guarded_by.empty() || m.not_guarded) continue;
      findings.push_back(
          {file.path, m.line, "guarded",
           "member '" + m.name + "' of class '" + cls.name +
               "' shares an object with mutex '" + *mutexes.begin() +
               "' but declares no protection; annotate US_GUARDED_BY(" +
               *mutexes.begin() + ") or US_NOT_GUARDED(\"why\"), or make "
               "it atomic (src/common/annotations.h)"});
    }
  }
}

}  // namespace uniserver::lint
