// Deterministic parallel campaign execution.
//
// Every headline experiment is an embarrassingly-parallel campaign —
// per-core V-F shmoo grids, per-object fault injections, DRAM BER
// sweeps, TCO design-space exploration. This engine runs those loops
// on a fixed-size thread pool while keeping the reproduction's core
// contract: results are bit-identical for ANY worker count, including
// one. The rule that makes this work (docs/API.md, "Threading model &
// determinism"): the coordinator forks one private Rng substream per
// work item, in index order, BEFORE any item runs; workers consume
// only their own stream, so the schedule cannot reach the randomness.
//
// Worker count is a process-wide knob (`set_default_jobs`, the CLI
// `--jobs N` flag); jobs <= 1 runs every loop inline on the calling
// thread — the exact serial semantics, with zero thread overhead.
// Nested parallel regions (a campaign over workloads whose per-chip
// step is itself parallel) run inline on the worker they land on,
// never deadlocking the pool. Pool health is observable through the
// `exec.pool.*` metrics (docs/OBSERVABILITY.md).
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "common/rng.h"

namespace uniserver::par {

/// Detected hardware parallelism, never less than 1.
unsigned hardware_jobs();

/// Process-wide worker count used by `parallel_for_each` and the
/// campaign loops. Starts at `hardware_jobs()`; `--jobs N` sets it.
unsigned default_jobs();

/// Largest worker count `--jobs` and `set_default_jobs` accept. The
/// pool spawns `jobs - 1` threads, so the bound keeps a stray value
/// from asking the OS for thousands of them.
inline constexpr unsigned kMaxJobs = 256;

/// Parses a `--jobs` value: decimal digits only, at most kMaxJobs (0
/// means `hardware_jobs()`). Signs, spaces, other text and larger
/// values give nullopt.
std::optional<unsigned> parse_jobs(const char* text);

/// Sets the default worker count; 0 means `hardware_jobs()`. The
/// shared pool is resized on the next parallel call. A count above
/// kMaxJobs throws std::invalid_argument. Calling it while any
/// parallel region is active throws std::logic_error — set it at
/// startup or between campaigns, as the CLI and benches do. (The
/// static analyzer additionally flags shared-state hazards in region
/// bodies; see docs/STATIC_ANALYSIS.md stage 2.)
void set_default_jobs(unsigned jobs);

/// Derives `n` private substreams from `rng`, one fork per item in
/// index order. Forking happens serially on the calling thread, so
/// the streams — and everything computed from them — are identical no
/// matter how many workers later consume them.
std::vector<Rng> fork_streams(Rng& rng, std::size_t n);

/// Runs `body(i)` for every i in [0, n) across the shared pool's
/// workers. Blocks until all items finish; rethrows the first
/// exception a body threw (remaining items may be skipped). `body`
/// must be safe to call concurrently for distinct indices. Called
/// from inside a pool worker, runs inline (nested regions serialize
/// on their worker instead of deadlocking the queue).
void parallel_for_each(std::size_t n,
                       const std::function<void(std::size_t)>& body);

/// Indexed map: evaluates `fn(i)` for i in [0, n) in parallel and
/// returns the results ordered by index. R must be default- and
/// move-constructible.
template <class R>
std::vector<R> parallel_map(std::size_t n,
                            const std::function<R(std::size_t)>& fn) {
  std::vector<R> results(n);
  parallel_for_each(n, [&](std::size_t i) { results[i] = fn(i); });
  return results;
}

/// Indexed map-reduce: maps in parallel, then folds the results into
/// `init` serially in index order — so the reduction is deterministic
/// even for non-associative folds (floating-point sums).
template <class Acc, class R>
Acc parallel_reduce(std::size_t n, Acc init,
                    const std::function<R(std::size_t)>& map,
                    const std::function<void(Acc&, const R&)>& fold) {
  const std::vector<R> mapped = parallel_map<R>(n, map);
  for (const R& r : mapped) fold(init, r);
  return init;
}

}  // namespace uniserver::par
