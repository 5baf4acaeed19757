// Tests for event clustering, loop folding and signature compression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "apps/nas.h"
#include "mpi/world.h"
#include "sig/cluster.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "sim/machine.h"
#include "trace/fold.h"
#include "trace/recorder.h"
#include "util/error.h"

namespace psk::sig {
namespace {

using mpi::CallType;

trace::TraceEvent send_event(int peer, mpi::Bytes bytes, double pre = 0.0,
                             int tag = 0) {
  trace::TraceEvent event;
  event.type = CallType::kSend;
  event.peer = peer;
  event.bytes = bytes;
  event.tag = tag;
  event.pre_compute = pre;
  event.t_start = 0;
  event.t_end = 0.001;
  return event;
}

// -------------------------------------------------------------- clustering

TEST(Cluster, IdenticalEventsShareACluster) {
  std::vector<trace::TraceEvent> events = {send_event(1, 1000),
                                           send_event(1, 1000)};
  const ClusterResult result = cluster_events(events, ClusterOptions{});
  EXPECT_EQ(result.cluster_count(), 1u);
  EXPECT_EQ(result.symbols, (std::vector<int>{0, 0}));
  EXPECT_EQ(result.counts[0], 2u);
}

TEST(Cluster, DifferentTypesNeverCluster) {
  std::vector<trace::TraceEvent> events = {send_event(1, 1000),
                                           send_event(1, 1000)};
  events[1].type = CallType::kRecv;
  ClusterOptions loose;
  loose.threshold = 1.0;
  const ClusterResult result = cluster_events(events, loose);
  EXPECT_EQ(result.cluster_count(), 2u);
}

TEST(Cluster, DifferentPeersNeverCluster) {
  std::vector<trace::TraceEvent> events = {send_event(1, 1000),
                                           send_event(2, 1000)};
  ClusterOptions loose;
  loose.threshold = 1.0;
  const ClusterResult result = cluster_events(events, loose);
  EXPECT_EQ(result.cluster_count(), 2u);
}

TEST(Cluster, PaperExampleAveragesSizes) {
  // MPI_Send(Node 3, 2000) + MPI_Send(Node 3, 1800) -> Send(Node 3, 1900).
  std::vector<trace::TraceEvent> events = {send_event(3, 2000),
                                           send_event(3, 1800)};
  ClusterOptions options;
  options.threshold = 0.2;  // |2000-1800|/2000 = 0.1 <= 0.2
  const ClusterResult result = cluster_events(events, options);
  ASSERT_EQ(result.cluster_count(), 1u);
  EXPECT_DOUBLE_EQ(result.prototypes[0].bytes, 1900.0);
}

TEST(Cluster, ThresholdZeroKeepsDifferentSizesApart) {
  std::vector<trace::TraceEvent> events = {send_event(3, 2000),
                                           send_event(3, 1800)};
  const ClusterResult result = cluster_events(events, ClusterOptions{});
  EXPECT_EQ(result.cluster_count(), 2u);
}

TEST(Cluster, ThresholdControlsSizeDifferenceLinearly) {
  std::vector<trace::TraceEvent> events = {send_event(3, 1000),
                                           send_event(3, 850)};
  ClusterOptions tight;
  tight.threshold = 0.10;  // rel diff = 0.15 > 0.10
  EXPECT_EQ(cluster_events(events, tight).cluster_count(), 2u);
  ClusterOptions loose;
  loose.threshold = 0.16;
  EXPECT_EQ(cluster_events(events, loose).cluster_count(), 1u);
}

TEST(Cluster, ComputeVariationRespectsThreshold) {
  std::vector<trace::TraceEvent> events = {send_event(1, 1000, /*pre=*/1.0),
                                           send_event(1, 1000, /*pre=*/1.3)};
  ClusterOptions tight;
  tight.compute_weight = 1.0;  // duration-sensitive clustering
  tight.threshold = 0.1;
  EXPECT_EQ(cluster_events(events, tight).cluster_count(), 2u);
  ClusterOptions loose;
  loose.compute_weight = 1.0;
  loose.threshold = 0.25;
  const ClusterResult merged = cluster_events(events, loose);
  ASSERT_EQ(merged.cluster_count(), 1u);
  EXPECT_NEAR(merged.prototypes[0].pre_compute, 1.15, 1e-12);
}

TEST(Cluster, ComputeWeightZeroMergesComputeFreely) {
  // The default: wildly different compute gaps merge with averaging.
  std::vector<trace::TraceEvent> events = {send_event(1, 1000, 1.0),
                                           send_event(1, 1000, 9.0)};
  ClusterOptions options;
  const ClusterResult result = cluster_events(events, options);
  ASSERT_EQ(result.cluster_count(), 1u);
  EXPECT_NEAR(result.prototypes[0].pre_compute, 5.0, 1e-12);
}

TEST(Cluster, TinyGapsBelowFloorIgnored) {
  // Sub-millisecond scheduling noise must not split clusters.
  std::vector<trace::TraceEvent> events = {send_event(1, 1000, 1e-7),
                                           send_event(1, 1000, 9e-7)};
  const ClusterResult result = cluster_events(events, ClusterOptions{});
  EXPECT_EQ(result.cluster_count(), 1u);
}

TEST(Cluster, RunningMeanTracksMembers) {
  std::vector<trace::TraceEvent> events = {
      send_event(1, 1000), send_event(1, 1100), send_event(1, 900)};
  ClusterOptions options;
  options.threshold = 0.15;
  const ClusterResult result = cluster_events(events, options);
  ASSERT_EQ(result.cluster_count(), 1u);
  EXPECT_NEAR(result.prototypes[0].bytes, 1000.0, 1e-9);
}

TEST(Cluster, SumPreservedUnderMerging) {
  // count * mean == sum of members, for every cluster.
  std::vector<trace::TraceEvent> events;
  double total_bytes = 0;
  for (int i = 0; i < 50; ++i) {
    const mpi::Bytes b = 1000 + 10 * (i % 7);
    events.push_back(send_event(1, b, 0.01 * (i % 5)));
    total_bytes += static_cast<double>(b);
  }
  ClusterOptions options;
  options.threshold = 0.2;
  const ClusterResult result = cluster_events(events, options);
  double reconstructed = 0;
  for (std::size_t c = 0; c < result.cluster_count(); ++c) {
    reconstructed +=
        result.prototypes[c].bytes * static_cast<double>(result.counts[c]);
  }
  EXPECT_NEAR(reconstructed, total_bytes, total_bytes * 1e-9);
}

// ------------------------------------------------------------ loop folding

SigSeq seq_from_ids(const std::vector<int>& ids) {
  SigSeq seq;
  for (int id : ids) {
    SigEvent event;
    event.cluster_id = id;
    seq.push_back(SigNode::leaf(event));
  }
  return seq;
}

TEST(Fold, PaperExample) {
  // alpha beta beta gamma beta beta gamma beta beta gamma kappa alpha alpha
  //   -> alpha [ (beta)2 gamma ]3 kappa (alpha)2
  const SigSeq folded =
      fold_loops(seq_from_ids({0, 1, 1, 2, 1, 1, 2, 1, 1, 2, 3, 0, 0}));
  ASSERT_EQ(folded.size(), 4u);

  EXPECT_EQ(folded[0].kind, SigNode::Kind::kLeaf);
  EXPECT_EQ(folded[0].event.cluster_id, 0);

  const SigNode& main_loop = folded[1];
  ASSERT_EQ(main_loop.kind, SigNode::Kind::kLoop);
  EXPECT_EQ(main_loop.iterations, 3u);
  ASSERT_EQ(main_loop.body.size(), 2u);
  ASSERT_EQ(main_loop.body[0].kind, SigNode::Kind::kLoop);
  EXPECT_EQ(main_loop.body[0].iterations, 2u);
  EXPECT_EQ(main_loop.body[0].body[0].event.cluster_id, 1);
  EXPECT_EQ(main_loop.body[1].event.cluster_id, 2);

  EXPECT_EQ(folded[2].kind, SigNode::Kind::kLeaf);
  EXPECT_EQ(folded[2].event.cluster_id, 3);

  ASSERT_EQ(folded[3].kind, SigNode::Kind::kLoop);
  EXPECT_EQ(folded[3].iterations, 2u);
  EXPECT_EQ(folded[3].body[0].event.cluster_id, 0);

  EXPECT_EQ(leaf_count(folded), 5u);
  EXPECT_EQ(expanded_count(folded), 13u);
}

TEST(Fold, NoRepetitionNoChange) {
  const SigSeq folded = fold_loops(seq_from_ids({0, 1, 2, 3}));
  EXPECT_EQ(folded.size(), 4u);
  EXPECT_EQ(leaf_count(folded), 4u);
}

TEST(Fold, SingleLongRun) {
  const SigSeq folded = fold_loops(seq_from_ids(std::vector<int>(100, 7)));
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].iterations, 100u);
  EXPECT_EQ(expanded_count(folded), 100u);
}

TEST(Fold, AlternatingPair) {
  const SigSeq folded = fold_loops(seq_from_ids({0, 1, 0, 1, 0, 1}));
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].iterations, 3u);
  EXPECT_EQ(folded[0].body.size(), 2u);
}

TEST(Fold, NestedThreeLevels) {
  // ((a a) b)2 c, twice -> [[ (a)2 b ]2 c]2
  std::vector<int> ids;
  for (int outer = 0; outer < 2; ++outer) {
    for (int mid = 0; mid < 2; ++mid) {
      ids.insert(ids.end(), {0, 0, 1});
    }
    ids.push_back(2);
  }
  const SigSeq folded = fold_loops(seq_from_ids(ids));
  ASSERT_EQ(folded.size(), 1u);
  EXPECT_EQ(folded[0].iterations, 2u);
  EXPECT_EQ(expanded_count(folded), 14u);
  EXPECT_EQ(leaf_count(folded), 3u);
}

TEST(Fold, ExpansionPreservesOrder) {
  const std::vector<int> ids = {0, 1, 1, 2, 1, 1, 2, 3};
  const SigSeq folded = fold_loops(seq_from_ids(ids));
  const std::vector<SigEvent> expanded = expand(folded);
  ASSERT_EQ(expanded.size(), ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(expanded[i].cluster_id, ids[i]) << "position " << i;
  }
}

TEST(Fold, PeriodicWithTailKeepsRemainder) {
  // a b a b a -- trailing 'a' must survive outside the loop.
  const SigSeq folded = fold_loops(seq_from_ids({0, 1, 0, 1, 0}));
  EXPECT_EQ(expanded_count(folded), 5u);
  const std::vector<SigEvent> expanded = expand(folded);
  EXPECT_EQ(expanded.back().cluster_id, 0);
}

TEST(Fold, MaxPeriodRespected) {
  // Period-3 repetition but max_period = 2: only shorter folds allowed.
  const SigSeq folded =
      fold_loops(seq_from_ids({0, 1, 2, 0, 1, 2}), FoldOptions{2});
  EXPECT_EQ(leaf_count(folded), 6u);  // nothing folded
}

TEST(Fold, ToStringShowsStructure) {
  const SigSeq folded = fold_loops(seq_from_ids({1, 1, 1}));
  const std::string text = to_string(folded);
  EXPECT_NE(text.find("]3"), std::string::npos);
}

// ------------------------------------------------- folding, differential

/// The folder as it stood before collapse_period learned to leave a
/// sequence without a repeat untouched: every pass moves each node into a
/// fresh vector, match or not.  The reference for FoldDifferential below.
namespace copy_every_pass {

bool block_equal(const SigSeq& seq, std::size_t i, std::size_t j,
                 std::size_t p) {
  for (std::size_t k = 0; k < p; ++k) {
    if (!(seq[i + k] == seq[j + k])) return false;
  }
  return true;
}

std::size_t primitive_period(const SigSeq& seq, std::size_t i, std::size_t p) {
  for (std::size_t q = 1; q <= p / 2; ++q) {
    if (p % q != 0) continue;
    bool periodic = true;
    for (std::size_t offset = q; offset < p && periodic; offset += q) {
      periodic = block_equal(seq, i, i + offset, q);
    }
    if (periodic) return q;
  }
  return p;
}

SigSeq fold_loops(SigSeq seq, std::size_t max_period);

bool collapse_period(SigSeq& seq, std::size_t p, std::size_t max_period) {
  if (seq.size() < 2 * p) return false;
  bool changed = false;
  SigSeq out;
  out.reserve(seq.size());
  std::size_t i = 0;
  while (i < seq.size()) {
    if (i + 2 * p <= seq.size() && block_equal(seq, i, i + p, p)) {
      const std::size_t q = primitive_period(seq, i, p);
      std::uint64_t repeats = 1;
      while (i + (repeats + 1) * q <= seq.size() &&
             block_equal(seq, i, i + static_cast<std::size_t>(repeats) * q,
                         q)) {
        ++repeats;
      }
      SigSeq body(seq.begin() + static_cast<std::ptrdiff_t>(i),
                  seq.begin() + static_cast<std::ptrdiff_t>(i + q));
      out.push_back(
          SigNode::loop(repeats, fold_loops(std::move(body), max_period)));
      i += static_cast<std::size_t>(repeats) * q;
      changed = true;
    } else {
      out.push_back(std::move(seq[i]));
      ++i;
    }
  }
  seq = std::move(out);
  return changed;
}

SigSeq fold_loops(SigSeq seq, std::size_t max_period) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t p = std::min(max_period, seq.size() / 2); p >= 1; --p) {
      changed = collapse_period(seq, p, max_period) || changed;
      if (seq.size() < 2) break;
    }
  }
  return seq;
}

}  // namespace copy_every_pass

/// Cluster ids with planted structure: runs of random symbols from a small
/// alphabet (accidental repeats) mixed with tandem repeats of sub-sequences
/// that are themselves generated this way (nested repeats).
void planted_ids(std::mt19937& rng, int depth, std::vector<int>& out) {
  std::uniform_int_distribution<int> pieces(1, 5);
  std::uniform_int_distribution<int> symbol(0, 5);
  std::uniform_int_distribution<int> repeats(2, 5);
  std::uniform_int_distribution<int> kind(0, 2);
  const int count = pieces(rng);
  for (int piece = 0; piece < count; ++piece) {
    if (depth == 0 || kind(rng) == 0) {
      out.push_back(symbol(rng));
      continue;
    }
    std::vector<int> body;
    planted_ids(rng, depth - 1, body);
    for (int r = repeats(rng); r > 0; --r) {
      out.insert(out.end(), body.begin(), body.end());
    }
  }
}

/// Empty when the two nests agree node for node on kind, cluster id,
/// iterations and structural hash; otherwise where they first differ.
std::string first_difference(const SigSeq& a, const SigSeq& b,
                             const std::string& path = "") {
  if (a.size() != b.size()) {
    return path + ": " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size()) + " nodes";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const std::string at = path + "/" + std::to_string(i);
    if (a[i].kind != b[i].kind || a[i].hash != b[i].hash ||
        a[i].iterations != b[i].iterations ||
        a[i].event.cluster_id != b[i].event.cluster_id) {
      return at + ": nodes differ";
    }
    const std::string inner = first_difference(a[i].body, b[i].body, at);
    if (!inner.empty()) return inner;
  }
  return "";
}

TEST(FoldDifferential, MatchesCopyEveryPassFolderOnPlantedRepeats) {
  for (std::uint32_t seed = 1; seed <= 300; ++seed) {
    std::mt19937 rng(seed);
    std::vector<int> ids;
    planted_ids(rng, static_cast<int>(seed % 4), ids);
    for (const std::size_t max_period : {std::size_t{3}, std::size_t{512}}) {
      const SigSeq expect =
          copy_every_pass::fold_loops(seq_from_ids(ids), max_period);
      const SigSeq got =
          fold_loops(seq_from_ids(ids), FoldOptions{max_period});
      const std::string difference = first_difference(got, expect);
      ASSERT_TRUE(difference.empty())
          << "seed " << seed << ", max_period " << max_period << ", "
          << ids.size() << " ids: " << difference << "\n  got    "
          << to_string(got) << "\n  expect " << to_string(expect);
      ASSERT_EQ(expanded_count(got), ids.size());
    }
  }
}

// ------------------------------------------------------------- compression

trace::Trace traced_app(const char* name, apps::NasClass cls) {
  sim::Machine machine(sim::ClusterConfig::paper_testbed());
  mpi::World world(machine, 4);
  trace::Trace trace = trace::record_run(
      world, apps::find_benchmark(name).make(cls), name);
  trace::fold_nonblocking(trace);
  return trace;
}

TEST(Compress, RequiresFoldedTrace) {
  trace::Trace trace;
  trace::RankTrace rank;
  trace::TraceEvent raw;
  raw.type = CallType::kIsend;
  raw.request = 1;
  rank.events.push_back(raw);
  trace.ranks.push_back(rank);
  EXPECT_THROW(compress(trace), psk::ConfigError);
}

TEST(Compress, EventCountPreserved) {
  const trace::Trace trace = traced_app("MG", apps::NasClass::kS);
  const Signature signature = compress(trace, CompressOptions{});
  for (int r = 0; r < trace.rank_count(); ++r) {
    EXPECT_EQ(expanded_count(signature.ranks[static_cast<std::size_t>(r)].roots),
              trace.ranks[static_cast<std::size_t>(r)].events.size());
  }
}

TEST(Compress, TimePreservedUnderClusteringAndFolding) {
  // Averaging preserves totals: expanded signature time ~= traced time.
  const trace::Trace trace = traced_app("CG", apps::NasClass::kS);
  CompressOptions options;
  options.target_ratio = 20.0;
  const Signature signature = compress(trace, options);
  for (int r = 0; r < trace.rank_count(); ++r) {
    const auto& rank_sig = signature.ranks[static_cast<std::size_t>(r)];
    const double represented =
        expanded_time(rank_sig.roots) + rank_sig.final_compute;
    EXPECT_NEAR(represented, trace.ranks[static_cast<std::size_t>(r)].total_time,
                trace.ranks[static_cast<std::size_t>(r)].total_time * 0.02)
        << "rank " << r;
  }
}

TEST(Compress, AchievesUsefulRatioOnRepetitiveApps) {
  // Upper bound on the ratio is roughly the iteration count, so class S MG
  // (4 V-cycles) can only reach ~4x while the timestep codes reach 10x+.
  const std::vector<std::pair<const char*, double>> expectations = {
      {"BT", 10.0}, {"SP", 10.0}, {"LU", 10.0}, {"MG", 3.0}};
  for (const auto& [name, target] : expectations) {
    const trace::Trace trace = traced_app(name, apps::NasClass::kS);
    CompressOptions options;
    options.target_ratio = target;
    const Signature signature = compress(trace, options);
    EXPECT_GE(signature.compression_ratio, target) << name;
  }
}

TEST(Compress, ThresholdStaysInPaperRange) {
  // "The maximum similarity threshold required across the NAS benchmarks ...
  // was always less than .20".
  for (const auto& def : apps::suite()) {
    const trace::Trace trace = traced_app(def.name, apps::NasClass::kS);
    CompressOptions options;
    options.target_ratio = 25.0;
    const Signature signature = compress(trace, options);
    EXPECT_LT(signature.threshold, 0.20) << def.name;
  }
}

TEST(Compress, HigherTargetNeedsEqualOrHigherThreshold) {
  const trace::Trace trace = traced_app("IS", apps::NasClass::kS);
  CompressOptions low;
  low.target_ratio = 2.0;
  CompressOptions high;
  high.target_ratio = 8.0;
  EXPECT_LE(compress(trace, low).threshold,
            compress(trace, high).threshold);
}

TEST(Compress, SymmetricRanksCompressSymmetrically) {
  const trace::Trace trace = traced_app("SP", apps::NasClass::kS);
  CompressOptions options;
  options.target_ratio = 20.0;
  const Signature signature = compress(trace, options);
  const std::size_t leaves0 = leaf_count(signature.ranks[0].roots);
  for (const RankSignature& rank : signature.ranks) {
    EXPECT_EQ(leaf_count(rank.roots), leaves0);
  }
}

TEST(Compress, FixedThresholdVariantReportsRatio) {
  const trace::Trace trace = traced_app("MG", apps::NasClass::kS);
  const Signature loose =
      compress_at_threshold(trace, ThresholdCompressOptions{0.1, {}});
  const Signature tight =
      compress_at_threshold(trace, ThresholdCompressOptions{0.0, {}});
  EXPECT_GE(loose.compression_ratio, tight.compression_ratio);
  EXPECT_DOUBLE_EQ(loose.threshold, 0.1);
}

TEST(Compress, RejectsNonPositiveThresholdStep) {
  // Regression: the threshold search used to loop forever when the step
  // was zero or negative (the accumulator never advanced).
  const trace::Trace trace = traced_app("MG", apps::NasClass::kS);
  CompressOptions zero;
  zero.threshold_step = 0.0;
  zero.target_ratio = 1e9;
  EXPECT_THROW(compress(trace, zero), psk::ConfigError);
  CompressOptions negative;
  negative.threshold_step = -0.01;
  negative.target_ratio = 1e9;
  EXPECT_THROW(compress(trace, negative), psk::ConfigError);
}

TEST(Compress, ThresholdScheduleIsExactMultipleOfStep) {
  // The schedule is driven by an integer step index, so the selected
  // threshold sits exactly on a multiple of the step -- a floating-point
  // accumulator would drift off the grid after repeated additions.
  const trace::Trace trace = traced_app("IS", apps::NasClass::kS);
  CompressOptions options;
  options.target_ratio = 1e9;  // unreachable: walks the whole schedule
  const Signature signature = compress(trace, options);
  const double steps = signature.threshold / options.threshold_step;
  EXPECT_NEAR(steps, std::round(steps), 1e-9);
  EXPECT_LE(signature.threshold, options.max_threshold + 1e-12);
}

// ---------------------------------------------------------------- SoA view

TEST(Soa, FingerprintIsPureOverStructuralFields) {
  const trace::TraceEvent a = send_event(3, 2000);
  trace::TraceEvent b = send_event(3, 1800);  // bytes differ: compatible
  EXPECT_EQ(trace::compat_fingerprint(a), trace::compat_fingerprint(b));
  b.pre_compute = 42.0;  // compute is not structural either
  EXPECT_EQ(trace::compat_fingerprint(a), trace::compat_fingerprint(b));

  trace::TraceEvent other_peer = send_event(4, 2000);
  trace::TraceEvent other_tag = send_event(3, 2000, 0.0, 9);
  trace::TraceEvent other_type = send_event(3, 2000);
  other_type.type = CallType::kRecv;
  EXPECT_NE(trace::compat_fingerprint(a),
            trace::compat_fingerprint(other_peer));
  EXPECT_NE(trace::compat_fingerprint(a),
            trace::compat_fingerprint(other_tag));
  EXPECT_NE(trace::compat_fingerprint(a),
            trace::compat_fingerprint(other_type));

  // Parts structure (peer/direction/tag, not bytes) is part of the key.
  trace::TraceEvent ex1 = send_event(1, 0);
  ex1.type = CallType::kExchange;
  ex1.parts = {mpi::PeerBytes{2, 100, true, 0}};
  trace::TraceEvent ex2 = ex1;
  ex2.parts[0].bytes = 900;
  trace::TraceEvent ex3 = ex1;
  ex3.parts[0].outgoing = false;
  EXPECT_EQ(trace::compat_fingerprint(ex1), trace::compat_fingerprint(ex2));
  EXPECT_NE(trace::compat_fingerprint(ex1), trace::compat_fingerprint(ex3));
}

TEST(Soa, ColumnsMirrorTheEventStream) {
  const trace::Trace trace = traced_app("CG", apps::NasClass::kS);
  const std::vector<trace::TraceEvent>& events = trace.ranks[0].events;
  const trace::EventColumns columns = trace::make_columns(events);
  ASSERT_EQ(columns.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(columns.compat[i], trace::compat_fingerprint(events[i]));
    EXPECT_EQ(columns.type[i], static_cast<std::uint8_t>(events[i].type));
    EXPECT_DOUBLE_EQ(columns.bytes[i],
                     static_cast<double>(events[i].bytes));
    EXPECT_DOUBLE_EQ(columns.pre_compute[i], events[i].pre_compute);
    EXPECT_DOUBLE_EQ(columns.interior_compute[i],
                     events[i].interior_compute);
  }
}

TEST(Soa, FingerprintPrefilterDoesNotChangeClustering) {
  // Zeroing the fingerprint column disables the prefilter (equal
  // fingerprints always fall through to the exact comparison), recovering
  // the pre-SoA scan-everything behavior.  Both paths must agree exactly on
  // a real folded trace (P2P + collectives + Exchange regions with parts).
  const trace::Trace trace = traced_app("CG", apps::NasClass::kS);
  for (const double threshold : {0.0, 0.05, 0.2}) {
    ClusterOptions options;
    options.threshold = threshold;
    for (const trace::RankTrace& rank : trace.ranks) {
      const trace::EventColumns columns = trace::make_columns(rank.events);
      trace::EventColumns unfiltered = columns;
      std::fill(unfiltered.compat.begin(), unfiltered.compat.end(), 0u);

      const ClusterResult fast =
          cluster_events(rank.events, columns, options);
      const ClusterResult unfiltered_scan =
          cluster_events(rank.events, unfiltered, options);
      const ClusterResult aos = cluster_events(rank.events, options);

      for (const ClusterResult* reference : {&unfiltered_scan, &aos}) {
        EXPECT_EQ(fast.symbols, reference->symbols);
        EXPECT_EQ(fast.counts, reference->counts);
        ASSERT_EQ(fast.prototypes.size(), reference->prototypes.size());
        for (std::size_t c = 0; c < fast.prototypes.size(); ++c) {
          EXPECT_EQ(fast.prototypes[c].cluster_id,
                    reference->prototypes[c].cluster_id);
          EXPECT_DOUBLE_EQ(fast.prototypes[c].bytes,
                           reference->prototypes[c].bytes);
          EXPECT_DOUBLE_EQ(fast.prototypes[c].pre_compute,
                           reference->prototypes[c].pre_compute);
        }
      }
    }
  }
}

TEST(Soa, MismatchedColumnsAreRejected) {
  std::vector<trace::TraceEvent> events = {send_event(1, 1000)};
  const trace::EventColumns empty;
  EXPECT_THROW(cluster_events(events, empty, ClusterOptions{}),
               ConfigError);
}

}  // namespace
}  // namespace psk::sig
