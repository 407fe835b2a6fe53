// uniserver-race — stage 2 of the lint toolchain: flow-aware
// determinism and shared-state rules built on the declaration/scope
// parser (parser.h). Rationale and rule-by-rule grammar live in
// docs/STATIC_ANALYSIS.md.
//
//   parallel — classifies every write inside a lambda passed to
//     par::parallel_for_each/parallel_map/parallel_reduce as body-local,
//     per-item-indexed, atomic, telemetry, or lock-protected; anything
//     else is a flagged shared write (the static analogue of a race
//     detector, specialized to the pool's distinct-index contract).
//     parallel_reduce's fold lambda runs serially and is not analyzed.
//   rng — a shared Rng reaching a parallel body without going through
//     par::fork_streams is an error, as is drawing from a substream
//     vector without a per-item index.
//   guarded — every data member of a class that holds a std::mutex
//     must declare its protection: US_GUARDED_BY(that_mutex),
//     US_NOT_GUARDED("rationale"), or an exempt type (atomic, mutex,
//     condition_variable). US_GUARDED_BY/US_REQUIRES naming a
//     non-existent mutex member is an error anywhere.
#pragma once

#include <vector>

#include "rules.h"

namespace uniserver::lint {

/// The `parallel` and `rng` rules share one pass over the parallel
/// call sites; each is emitted only when its flag is set.
void check_parallel_regions(const FileInput& file, bool rule_parallel,
                            bool rule_rng, std::vector<Finding>& findings);

/// The `guarded` annotation rule (src-only in tree mode, like units).
void check_guarded(const FileInput& file, std::vector<Finding>& findings);

}  // namespace uniserver::lint
