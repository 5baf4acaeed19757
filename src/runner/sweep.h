// Sweep executor: evaluate a plan of units concurrently and return results
// in deterministic input order.
//
// The experiment grid (benchmark x skeleton size x sharing scenario x
// repetition) decomposes into isolated deterministic simulations, so a
// sweep parallelizes trivially: every unit writes into its own preallocated
// slot and the output order is the input order regardless of how the
// workers schedule the work.  A unit may name successors -- units that read
// its slot -- and each unit starts only once all of its inputs finished,
// so construction (trace -> skeleton) and measurement (skeleton -> runs)
// form one plan with no barrier between them.  `--jobs=1` degenerates to a
// plain serial loop on the calling thread.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "obs/phase.h"
#include "runner/pool.h"

namespace psk::runner {

struct SweepOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = serial inline.
  int jobs = 0;
  /// Optional wall-clock phase profiler: the whole sweep charges its time
  /// to the "sweep" phase (per-cell work is simulated time, not phases).
  obs::PhaseProfiler* profiler = nullptr;
};

/// Runs body(i) for every i in [0, count), concurrently when options allow.
/// successors[i] lists the units that need unit i, one list per unit; each
/// must have a larger index, so index order is a valid serial order.  A
/// unit starts only after all of its inputs finished, and ready units start
/// lowest index first.  The dependents of a unit that throws are skipped;
/// the lowest-index exception is rethrown, like a serial loop would report
/// it.
void sweep(std::size_t count,
           const std::vector<std::vector<std::size_t>>& successors,
           const std::function<void(std::size_t)>& body,
           const SweepOptions& options = {});

/// A sweep of independent units.
void sweep(std::size_t count, const std::function<void(std::size_t)>& body,
           const SweepOptions& options = {});

/// Maps `fn` over `items`; results[i] == fn(items[i]) for every i, in input
/// order, regardless of scheduling.  `fn` must be safe to call concurrently.
template <typename Item, typename Fn>
auto sweep_map(const std::vector<Item>& items, Fn fn,
               const SweepOptions& options = {})
    -> std::vector<decltype(fn(std::declval<const Item&>()))> {
  std::vector<decltype(fn(std::declval<const Item&>()))> results(
      items.size());
  sweep(
      items.size(), [&](std::size_t i) { results[i] = fn(items[i]); },
      options);
  return results;
}

}  // namespace psk::runner
