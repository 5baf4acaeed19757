// Trace -> execution signature compression (paper section 3.2).
//
// Two stages per rank: similarity clustering of events into symbols, then
// recursive identification of repeating substrings folded into loop nests
// (alpha beta beta gamma beta beta gamma beta beta gamma kappa alpha alpha
//  ->  alpha [ (beta)2 gamma ]3 kappa (alpha)2).
//
// The similarity threshold is found iteratively: "Initially the similarity
// threshold is set to 0 ... if the degree of compression is less than the
// desired ratio Q, the similarity threshold is increased gradually until the
// desired compression of Q (or higher) is achieved", with an upper bound so
// that very different events are never combined (the paper observed <= 0.20
// sufficed across the NAS suite).
#pragma once

#include <cstddef>

#include "obs/phase.h"
#include "sig/cluster.h"
#include "sig/signature.h"
#include "trace/event.h"

namespace psk::sig {

struct CompressOptions {
  /// Desired compression ratio Q = (folded trace events) / (signature
  /// leaves).  The skeleton layer passes Q = K/2.
  double target_ratio = 1.0;
  /// Hard cap on the similarity threshold.
  double max_threshold = 0.25;
  /// Search step for the threshold.
  double threshold_step = 0.01;
  /// Longest loop body considered by the tandem-repeat folder.
  std::size_t max_period = 512;
  /// Dimension weights forwarded to clustering (see ClusterOptions).
  double bytes_weight = 1.0;
  double compute_weight = 0.0;
  /// Anchored folding: never fold repeats across collective operations.
  /// Collectives are global synchronization points that occur at identical
  /// structural positions on every rank, so anchoring eliminates the
  /// rotation ambiguity that can make independently folded ranks scale to
  /// mismatched message counts (e.g. LU, whose residual-norm Allreduce
  /// otherwise lets different ranks absorb different step counts into the
  /// outer loop).  Off by default; the framework's consistency-retry ladder
  /// enables it when needed.
  bool anchor_at_collectives = false;
  /// Optional wall-clock phase profiler: clustering and loop folding charge
  /// their time to the "cluster" / "compress" phases.  Null = no profiling.
  obs::PhaseProfiler* profiler = nullptr;
};

/// Named options for the tandem-repeat folders (replaces the positional
/// max_period tail).
struct FoldOptions {
  /// Longest loop body considered by the folder.
  std::size_t max_period = 512;
};

/// Variant of fold_loops that folds each run between collectives
/// independently (see CompressOptions::anchor_at_collectives).
SigSeq fold_anchored(SigSeq seq, const FoldOptions& options = {});

/// Folds maximal tandem repeats into loop nodes, largest period first,
/// iterating to a fixpoint (each collapse can expose further repeats).
/// Exposed for unit testing.
SigSeq fold_loops(SigSeq seq, const FoldOptions& options = {});

/// Compresses a *folded* trace (see trace::fold_nonblocking) into an
/// execution signature.  Throws ConfigError when the trace still contains
/// raw nonblocking events.  The same threshold is applied to all ranks so
/// that SPMD-symmetric ranks compress symmetrically.
Signature compress(const trace::Trace& folded_trace,
                   const CompressOptions& options = {});

/// Named options for the fixed-threshold single pass (replaces the
/// positional threshold tail).
struct ThresholdCompressOptions {
  /// The similarity threshold applied to every rank (no search).
  double threshold = 0.0;
  CompressOptions compress;
};

/// One clustering+folding pass at a fixed threshold (no search).
Signature compress_at_threshold(const trace::Trace& folded_trace,
                                const ThresholdCompressOptions& options);

}  // namespace psk::sig
