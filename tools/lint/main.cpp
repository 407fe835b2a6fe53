// uniserver-lint / uniserver-race — project-invariant static analysis
// for the UniServer tree. Token-level, no libclang, fast enough to
// gate every build. One source, two binaries:
//
//   uniserver-lint --root .   # stage 1: determinism, telemetry, units
//   uniserver-race --root .   # stage 2: parallel, rng, guarded
//   uniserver-lint file.cpp   # explicit-path mode (fixture tests)
//
// Either binary runs any rule via --rules. Full-tree mode scans src/
// bench/ examples/ tests/ under the root; the determinism, parallel
// and rng rules apply everywhere, and telemetry + units + guarded apply
// to src/ only. Explicit-path mode applies every requested rule to
// every named file, which is what the fixture tests use. --changed-only
// (tree mode) restricts the scan to files reported by git as modified
// or untracked, keeping the pre-commit path in milliseconds;
// --format=github emits findings as workflow error annotations. Exit
// codes: 0 clean, 1 findings, 2 usage or I/O error.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "catalog.h"
#include "lexer.h"
#include "race.h"
#include "rules.h"

namespace fs = std::filesystem;
using namespace uniserver::lint;

namespace {

#ifdef UNISERVER_RACE_TOOL
const char* kToolName = "uniserver-race";
const std::set<std::string> kDefaultRules = {"parallel", "rng", "guarded"};
#else
const char* kToolName = "uniserver-lint";
const std::set<std::string> kDefaultRules = {"determinism", "telemetry",
                                             "units"};
#endif

const std::set<std::string> kAllRules = {"determinism", "telemetry", "units",
                                         "parallel",    "rng",       "guarded"};

struct Options {
  std::string root;
  std::string catalog_path;
  std::set<std::string> rules = kDefaultRules;
  bool use_allowlist = true;
  bool changed_only = false;
  bool github_format = false;
  std::vector<std::string> paths;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--root DIR | PATH...] [--catalog FILE] [--rules r1,r2]"
         " [--changed-only] [--format=plain|github]"
         " [--no-default-allowlist] [--print-allowlist]\n"
         "rules: determinism, telemetry, units (stage 1); parallel, rng,"
         " guarded (stage 2)\n"
      << "default for " << kToolName << ": ";
  bool first = true;
  for (const std::string& r : kDefaultRules) {
    std::cerr << (first ? "" : ", ") << r;
    first = false;
  }
  std::cerr << "\n";
  return 2;
}

bool has_source_extension(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".hpp" || ext == ".cpp" || ext == ".cc";
}

/// Directory-walk skip list: fixture snippets are deliberate
/// violations (tests/test_lint.cpp feeds them back through
/// explicit-path mode, which does not skip), and build trees hold
/// generated TUs.
bool skip_directory(const fs::path& dir) {
  const std::string name = dir.filename().string();
  return name == "lint_fixtures" || name.rfind("build", 0) == 0;
}

void collect_tree(const fs::path& dir, std::vector<fs::path>& out) {
  if (!fs::exists(dir)) return;
  for (fs::recursive_directory_iterator it(dir), end; it != end; ++it) {
    if (it->is_directory() && skip_directory(it->path())) {
      it.disable_recursion_pending();
      continue;
    }
    if (it->is_regular_file() && has_source_extension(it->path())) {
      out.push_back(it->path());
    }
  }
}

std::string slashify(std::string s) {
  std::replace(s.begin(), s.end(), '\\', '/');
  return s;
}

bool read_file(const fs::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// `git diff --name-only HEAD` + untracked files, as repo-relative
/// paths. Returns false when git is unavailable (caller falls back to
/// the full scan rather than silently linting nothing).
bool git_changed_files(const std::string& root, std::set<std::string>& out) {
  const std::string base = "git -C '" + root + "' ";
  for (const char* sub :
       {"diff --name-only HEAD", "ls-files --others --exclude-standard"}) {
    const std::string cmd = base + sub + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return false;
    std::string text;
    char buf[4096];
    while (fgets(buf, sizeof buf, pipe) != nullptr) text += buf;
    if (pclose(pipe) != 0) return false;
    std::stringstream ss(text);
    std::string line;
    while (std::getline(ss, line)) {
      if (!line.empty()) out.insert(slashify(line));
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--root" && i + 1 < argc) {
      opt.root = argv[++i];
    } else if (arg == "--catalog" && i + 1 < argc) {
      opt.catalog_path = argv[++i];
    } else if (arg == "--rules" && i + 1 < argc) {
      opt.rules.clear();
      std::stringstream ss(argv[++i]);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        if (kAllRules.count(rule) == 0) {
          std::cerr << "unknown rule: " << rule << "\n";
          return usage(argv[0]);
        }
        opt.rules.insert(rule);
      }
    } else if (arg == "--changed-only") {
      opt.changed_only = true;
    } else if (arg == "--format" && i + 1 < argc) {
      const std::string fmt = argv[++i];
      if (fmt != "plain" && fmt != "github") return usage(argv[0]);
      opt.github_format = fmt == "github";
    } else if (starts_with(arg, "--format=")) {
      const std::string fmt = arg.substr(9);
      if (fmt != "plain" && fmt != "github") return usage(argv[0]);
      opt.github_format = fmt == "github";
    } else if (arg == "--no-default-allowlist") {
      opt.use_allowlist = false;
    } else if (arg == "--print-allowlist") {
      for (const AllowEntry& entry : determinism_allowlist()) {
        std::cout << entry.prefix << "\t" << entry.rationale << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      opt.paths.push_back(arg);
    }
  }
  if (opt.root.empty() && opt.paths.empty()) return usage(argv[0]);
  if (!opt.root.empty() && !opt.paths.empty()) {
    std::cerr << "--root and explicit paths are mutually exclusive\n";
    return usage(argv[0]);
  }
  if (opt.changed_only && opt.root.empty()) {
    std::cerr << "--changed-only needs --root (a git work tree)\n";
    return usage(argv[0]);
  }

  const bool tree_mode = !opt.root.empty();
  std::vector<fs::path> files;
  fs::path root;
  if (tree_mode) {
    root = fs::path(opt.root);
    if (!fs::is_directory(root)) {
      std::cerr << "not a directory: " << opt.root << "\n";
      return 2;
    }
    for (const char* sub : {"src", "bench", "examples", "tests"}) {
      collect_tree(root / sub, files);
    }
    if (opt.catalog_path.empty()) {
      opt.catalog_path = (root / "docs" / "OBSERVABILITY.md").string();
    }
  } else {
    for (const std::string& p : opt.paths) {
      const fs::path path(p);
      if (fs::is_directory(path)) {
        for (fs::recursive_directory_iterator it(path), end; it != end; ++it) {
          if (it->is_regular_file() && has_source_extension(it->path())) {
            files.push_back(it->path());
          }
        }
      } else if (fs::is_regular_file(path)) {
        files.push_back(path);
      } else {
        std::cerr << "no such file: " << p << "\n";
        return 2;
      }
    }
  }
  std::sort(files.begin(), files.end());

  // --changed-only: intersect the scan list with git's view of what
  // moved. A subset scan cannot prove catalog rows orphaned, so that
  // telemetry direction is skipped.
  bool subset_scan = false;
  if (opt.changed_only) {
    std::set<std::string> changed;
    if (git_changed_files(opt.root, changed)) {
      std::vector<fs::path> kept;
      for (const fs::path& path : files) {
        const std::string rel = slashify(fs::relative(path, root).string());
        if (changed.count(rel) != 0) kept.push_back(path);
      }
      files.swap(kept);
      subset_scan = true;
      std::cout << kToolName << ": changed-only, " << files.size()
                << " file" << (files.size() == 1 ? "" : "s") << " of "
                << changed.size() << " changed\n";
    } else {
      std::cerr << kToolName
                << ": git unavailable, falling back to full scan\n";
    }
  }

  const bool want_telemetry = opt.rules.count("telemetry") != 0;
  Catalog catalog;
  if (want_telemetry) {
    if (opt.catalog_path.empty()) {
      std::cerr << "telemetry rule needs --catalog (or --root with "
                   "docs/OBSERVABILITY.md)\n";
      return 2;
    }
    std::string error;
    if (!parse_catalog(opt.catalog_path, catalog, error)) {
      std::cerr << error << "\n";
      return 2;
    }
  }

  std::vector<Finding> findings;
  TelemetryUsage usage_sites;
  std::map<std::string, std::string> rel_of;  // path -> rel, for github
  for (const fs::path& path : files) {
    FileInput input;
    input.path = slashify(path.string());
    if (tree_mode) {
      input.rel = slashify(fs::relative(path, root).string());
      input.in_src = input.rel.rfind("src/", 0) == 0;
    } else {
      input.rel = input.path;
      input.in_src = true;
    }
    rel_of[input.path] = input.rel;

    std::string content;
    if (!read_file(path, content)) {
      std::cerr << "cannot read: " << input.path << "\n";
      return 2;
    }
    input.tokens = lex(content);

    if (opt.rules.count("determinism") != 0) {
      check_determinism(input, opt.use_allowlist, findings);
    }
    const bool want_parallel = opt.rules.count("parallel") != 0;
    const bool want_rng = opt.rules.count("rng") != 0;
    if (want_parallel || want_rng) {
      check_parallel_regions(input, want_parallel, want_rng, findings);
    }
    if (input.in_src) {
      if (opt.rules.count("units") != 0) check_units(input, findings);
      if (opt.rules.count("guarded") != 0) check_guarded(input, findings);
      if (want_telemetry) collect_telemetry(input, usage_sites, findings);
    }
  }
  if (want_telemetry) {
    check_telemetry(usage_sites, catalog, slashify(opt.catalog_path),
                    /*check_orphans=*/!subset_scan, findings);
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.message < b.message;
            });
  for (const Finding& f : findings) {
    if (opt.github_format) {
      const auto it = rel_of.find(f.file);
      const std::string& where = it != rel_of.end() ? it->second : f.file;
      // Workflow command: renders as an inline annotation on the PR.
      std::cout << "::error file=" << where << ",line=" << f.line
                << ",title=" << kToolName << " [" << f.rule
                << "]::" << f.message << "\n";
    } else {
      std::cout << f.file << ":" << f.line << ": [" << f.rule << "] "
                << f.message << "\n";
    }
  }
  if (!findings.empty()) {
    std::cout << findings.size() << " finding"
              << (findings.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  std::cout << kToolName << ": " << files.size() << " files clean\n";
  return 0;
}
