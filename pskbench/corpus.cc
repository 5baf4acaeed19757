#include <stdexcept>

#include "archive/archive.h"
#include "archive/codec.h"
#include "archive/wire.h"
#include "bench.h"
#include "core/experiment.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace pskbench {

std::string canonical_bytes(const psk::skeleton::Skeleton& skeleton) {
  std::string payload;
  psk::archive::encode(payload, skeleton);
  std::string canonical;
  psk::archive::write_frame(canonical, psk::archive::PayloadKind::kSkeleton,
                            psk::archive::kSkeletonVersion, payload);
  return canonical;
}

const std::vector<std::string>& corpus_scenarios() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out{psk::scenario::dedicated().name};
    for (const psk::scenario::Scenario& scenario :
         psk::scenario::paper_scenarios()) {
      out.emplace_back(scenario.name);
    }
    return out;
  }();
  return names;
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view stream) {
  std::uint64_t state = seed ^ psk::archive::fingerprint64(stream);
  return psk::util::splitmix64(state);
}

std::vector<CorpusEntry> build_corpus() {
  // The paper's defaults: class B, BT CG IS LU MG SP, sizes 10 5 2 1 0.5 s,
  // constructed in parallel (jobs = hardware threads) by the warm phase.
  psk::core::ExperimentDriver driver;
  std::vector<psk::core::GridCell> cells;
  for (const std::string& app : driver.config().benchmarks) {
    for (const double size : driver.config().skeleton_sizes) {
      cells.push_back({app, size, &psk::scenario::dedicated()});
    }
  }
  driver.warm(cells);

  std::vector<CorpusEntry> corpus;
  for (const psk::core::GridCell& cell : cells) {
    CorpusEntry entry;
    entry.canonical =
        canonical_bytes(driver.skeleton_for_size(cell.app, cell.size_seconds));
    entry.hash = psk::archive::fingerprint64(entry.canonical);
    // Decode the canonical bytes back, as pskd does for a predict by hash,
    // so in-process references replay exactly what the daemon replays.
    psk::archive::Frame frame =
        psk::archive::read_frame(entry.canonical).or_throw();
    entry.skeleton =
        psk::archive::decode_skeleton(frame.payload, frame.payload_version)
            .or_throw();
    corpus.push_back(std::move(entry));
  }
  return corpus;
}

}  // namespace pskbench
