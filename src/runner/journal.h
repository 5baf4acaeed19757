// Crash-safe journaled sweeps.
//
// journaled_sweep() evaluates one string payload per named cell,
// concurrently, appending every completed cell to an append-only journal
// file the moment it finishes (one escaped line per cell, flushed under a
// mutex).  If the process dies mid-sweep -- crash, OOM kill, ^C -- a rerun
// with resume=true replays the journal's payloads verbatim and re-runs only
// the missing cells, so the returned vector is byte-identical to what an
// uninterrupted run would have produced (cell bodies are deterministic
// simulations and results are returned in input order either way).
//
// A cell body that throws fails only that cell: the exception text is
// captured into the result (TimeoutError becomes kTimeout -- the per-sim
// deadline watchdog and MPI wait timeouts land here), other in-flight cells
// finish, and the failure is journaled too, so a resume does not retry a
// deterministic failure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "runner/sweep.h"

namespace psk::cache {
class BlobStore;
using ResultCache = BlobStore;
}
namespace psk::obs {
class MetricsRegistry;
}

namespace psk::runner {

struct CellResult {
  enum class Status { kOk, kFailed, kTimeout };
  Status status = Status::kOk;
  /// The body's return value (kOk); replayed byte-for-byte on resume.
  std::string payload;
  /// The captured exception text (kFailed / kTimeout).
  std::string detail;

  friend bool operator==(const CellResult&, const CellResult&) = default;
};

/// "ok" / "failed" / "timeout" (the journal's status column).
std::string status_name(CellResult::Status status);

/// What a resume found in the journal.  A torn tail (the process died
/// mid-append) and unparsable/unknown-key lines are dropped, not errors:
/// the sweep re-runs those cells.  Exposed so --resume callers can tell the
/// user how much work the journal actually saved.
struct JournalReplayStats {
  std::uint64_t replayed = 0;             // lines accepted (cells skipped)
  std::uint64_t dropped_unparsable = 0;   // lines that failed to parse
  std::uint64_t dropped_unknown = 0;      // parsed, but not a cell of this grid
  std::uint64_t torn_tail = 0;            // 1 when the final line had no newline

  std::uint64_t dropped() const {
    return dropped_unparsable + dropped_unknown + torn_tail;
  }
  /// One-line summary, e.g. "replayed 12 cell(s), dropped 2 line(s) (1
  /// unparsable, 0 unknown-key, 1 torn tail)".
  std::string render() const;
  /// Publishes journal.replayed / journal.dropped / journal.torn counters.
  void publish(obs::MetricsRegistry& metrics) const;
};

struct JournaledSweepOptions {
  /// Worker threads: 0 = one per hardware thread, 1 = serial inline.
  int jobs = 0;
  /// Journal file; empty disables journaling (the sweep still captures
  /// per-cell failures).
  std::string journal_path;
  /// Replay an existing journal and run only the cells it is missing.
  /// Without resume, an existing journal is truncated and the sweep starts
  /// fresh.
  bool resume = false;
  /// Namespace for the journal's cell hashes and the shared result cache.
  /// Encode everything that versions the payload format here (sweep name,
  /// grid config fingerprint): cells only match across runs/journals when
  /// both the domain and the cell key agree.
  std::string domain;
  /// Optional content-addressed cache consulted before running a cell body
  /// and filled with every ok payload -- lets a sweep reuse cells computed
  /// by *other* journals/runs sharing the cache directory.  Not owned; may
  /// be null.  Failed/timeout cells are journaled but never cached.
  cache::ResultCache* cache = nullptr;
  /// When set, filled with what the resume replay found (zeroes when not
  /// resuming).  Not owned; may be null.
  JournalReplayStats* replay_stats = nullptr;
};

/// Runs body(i) for every key, returning one CellResult per key in input
/// order.  Keys name cells in the journal and must be unique and free of
/// unescapable content only in spirit -- any bytes work, they are escaped.
/// `body` must be safe to call concurrently and deterministic per key if
/// resumed runs are to be identical to fresh ones.
std::vector<CellResult> journaled_sweep(
    const std::vector<std::string>& keys,
    const std::function<std::string(std::size_t)>& body,
    const JournaledSweepOptions& options = {});

}  // namespace psk::runner
