// Seeded deterministic fault injection for the pskd service stack.
//
// `psk::fault` injects failures into the *simulated* cluster; this layer
// injects them into the service itself -- the socket transport, the
// per-connection sessions, the skeleton store's disk tier and the worker
// pool -- so the recovery machinery around them (supervisor watchdog,
// quarantine, retry/replay clients) is exercised by tests and the
// `ext_chaos` soak instead of waiting for production to find the gaps.
// It depends on nothing but the standard library, so it sits in psk_util
// where the bottom-layer blob store (cache/store.h) can consult it too.
//
// Determinism contract: every injection site draws from its own seeded
// counter stream (splitmix64 over (seed, site, n)), so the n-th
// consultation of a given site always makes the same decision for a given
// seed, independent of how threads interleave *across* sites.  A failing
// soak is replayable from its (seed, profile) pair alone.
//
// Overhead contract: components hold a raw `ChaosSchedule*` that is null
// in production (the `psk::obs` idiom).  Disabled chaos costs exactly one
// null check per site -- no locks, no RNG draws, no allocation -- and the
// code path taken is bit-identical to a build without the hooks.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

namespace psk::util {

/// Injection sites threaded through the service stack.  Each has its own
/// deterministic decision stream and its own injected/consulted counters.
enum class ChaosSite : std::uint8_t {
  kSessionReadDelay = 0,  // delay + fragment an inbound socket read
  kSessionShortWrite,     // cap one outbound send() to a few bytes
  kSessionDisconnect,     // kill the connection mid-response-write
  kStoreWriteFail,        // ENOSPC/EIO on a disk-tier store write
  kStoreCorrupt,          // flip a byte in a disk-tier entry as written
  kWorkerStall,           // stall a worker mid-request (hung-worker shape)
};

inline constexpr std::size_t kChaosSiteCount = 6;
const char* chaos_site_name(ChaosSite site);

/// Rate knobs in [0, 1] per site, plus magnitudes for the timed faults.
/// All rates default to 0: a default profile injects nothing.
struct ChaosProfile {
  double read_delay_rate = 0;
  double read_delay_ms = 2.0;
  double short_write_rate = 0;
  /// Largest chunk a short-write-limited send() may move at once.
  std::size_t short_write_bytes = 7;
  double disconnect_rate = 0;
  double store_write_fail_rate = 0;
  double store_corrupt_rate = 0;
  double worker_stall_rate = 0;
  double worker_stall_ms = 50.0;
};

/// Parses a --chaos-profile value: a named preset (`light`, `heavy`,
/// `disk`, `network`) or a comma list of `knob=value` pairs using the
/// field names above (e.g. "worker_stall_rate=0.2,worker_stall_ms=80").
/// Throws ConfigError listing the presets and knobs on anything else.
ChaosProfile parse_chaos_profile(const std::string& text);

/// One line per site: consulted vs injected counts since construction.
struct ChaosStats {
  std::array<std::uint64_t, kChaosSiteCount> consulted = {};
  std::array<std::uint64_t, kChaosSiteCount> injected = {};
};

class ChaosSchedule {
 public:
  ChaosSchedule(std::uint64_t seed, ChaosProfile profile)
      : seed_(seed), profile_(profile) {}

  ChaosSchedule(const ChaosSchedule&) = delete;
  ChaosSchedule& operator=(const ChaosSchedule&) = delete;

  const ChaosProfile& profile() const { return profile_; }
  std::uint64_t seed() const { return seed_; }

  /// True when the next consultation of `site` should inject (site rate
  /// looked up from the profile).  Thread-safe; each site's decision
  /// sequence depends only on (seed, site, consultation index).
  bool fire(ChaosSite site);

  /// Milliseconds of read delay / worker stall for a fired timed site.
  /// Deterministic per site like fire(), jittered in [0.5x, 1.5x] of the
  /// profile magnitude so stalls are not all identical.
  double read_delay_ms();
  double worker_stall_ms();

  ChaosStats stats() const;

 private:
  double rate_for(ChaosSite site) const;
  /// The n-th draw of `site`, mapped to [0, 1).
  double unit_draw(ChaosSite site, std::uint64_t n) const;

  const std::uint64_t seed_;
  const ChaosProfile profile_;
  std::array<std::atomic<std::uint64_t>, kChaosSiteCount> consulted_ = {};
  std::array<std::atomic<std::uint64_t>, kChaosSiteCount> injected_ = {};
  /// Separate draw streams for fault magnitudes, so a magnitude draw never
  /// shifts a later fire() decision.
  std::array<std::atomic<std::uint64_t>, kChaosSiteCount> magnitude_n_ = {};
};

}  // namespace psk::util
