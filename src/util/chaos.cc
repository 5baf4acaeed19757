#include "util/chaos.h"

#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace psk::util {

namespace {

/// splitmix64 finalizer: a full-avalanche mix of one 64-bit word.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double parse_knob_value(const std::string& knob, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  // NaN/inf parse but defeat every range check below (NaN compares false
  // against anything), so finiteness is part of "is a number" here.
  if (end != text.c_str() + text.size() || text.empty() ||
      !std::isfinite(value)) {
    throw ConfigError("--chaos-profile: " + knob + "=" + text +
                      " is not a number");
  }
  return value;
}

constexpr const char* kProfileHelp =
    "a preset (light|heavy|disk|network) or knob=value pairs from: "
    "read_delay_rate, read_delay_ms, short_write_rate, short_write_bytes, "
    "disconnect_rate, store_write_fail_rate, store_corrupt_rate, "
    "worker_stall_rate, worker_stall_ms";

ChaosProfile preset(const std::string& name) {
  ChaosProfile profile;
  if (name == "light") {
    profile.read_delay_rate = 0.02;
    profile.short_write_rate = 0.05;
    profile.store_write_fail_rate = 0.02;
    profile.worker_stall_rate = 0.01;
    profile.worker_stall_ms = 20.0;
  } else if (name == "heavy") {
    profile.read_delay_rate = 0.10;
    profile.short_write_rate = 0.25;
    profile.disconnect_rate = 0.02;
    profile.store_write_fail_rate = 0.10;
    profile.store_corrupt_rate = 0.05;
    profile.worker_stall_rate = 0.05;
    profile.worker_stall_ms = 60.0;
  } else if (name == "disk") {
    profile.store_write_fail_rate = 0.25;
    profile.store_corrupt_rate = 0.15;
  } else if (name == "network") {
    profile.read_delay_rate = 0.15;
    profile.short_write_rate = 0.50;
    profile.disconnect_rate = 0.03;
  } else {
    throw ConfigError("--chaos-profile: unknown preset '" + name + "'; want " +
                      std::string(kProfileHelp));
  }
  return profile;
}

}  // namespace

const char* chaos_site_name(ChaosSite site) {
  switch (site) {
    case ChaosSite::kSessionReadDelay: return "session_read_delay";
    case ChaosSite::kSessionShortWrite: return "session_short_write";
    case ChaosSite::kSessionDisconnect: return "session_disconnect";
    case ChaosSite::kStoreWriteFail: return "store_write_fail";
    case ChaosSite::kStoreCorrupt: return "store_corrupt";
    case ChaosSite::kWorkerStall: return "worker_stall";
  }
  return "unknown";
}

ChaosProfile parse_chaos_profile(const std::string& text) {
  if (text.find('=') == std::string::npos) return preset(text);
  ChaosProfile profile;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t comma = text.find(',', start);
    const std::string pair =
        text.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    start = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (pair.empty()) continue;
    const std::size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      throw ConfigError("--chaos-profile: '" + pair + "' is not knob=value; "
                        "want " + std::string(kProfileHelp));
    }
    const std::string knob = pair.substr(0, eq);
    const double value = parse_knob_value(knob, pair.substr(eq + 1));
    const bool is_rate = knob.size() > 5 &&
                         knob.compare(knob.size() - 5, 5, "_rate") == 0;
    if (is_rate && (value < 0 || value > 1)) {
      throw ConfigError("--chaos-profile: " + knob + " must be in [0, 1]");
    }
    if (!is_rate && value < 0) {
      throw ConfigError("--chaos-profile: " + knob + " must be >= 0");
    }
    if (knob == "read_delay_rate") profile.read_delay_rate = value;
    else if (knob == "read_delay_ms") profile.read_delay_ms = value;
    else if (knob == "short_write_rate") profile.short_write_rate = value;
    else if (knob == "short_write_bytes") {
      profile.short_write_bytes = value < 1 ? 1 : static_cast<std::size_t>(value);
    } else if (knob == "disconnect_rate") profile.disconnect_rate = value;
    else if (knob == "store_write_fail_rate") {
      profile.store_write_fail_rate = value;
    } else if (knob == "store_corrupt_rate") profile.store_corrupt_rate = value;
    else if (knob == "worker_stall_rate") profile.worker_stall_rate = value;
    else if (knob == "worker_stall_ms") profile.worker_stall_ms = value;
    else {
      throw ConfigError("--chaos-profile: unknown knob '" + knob + "'; want " +
                        std::string(kProfileHelp));
    }
  }
  return profile;
}

double ChaosSchedule::rate_for(ChaosSite site) const {
  switch (site) {
    case ChaosSite::kSessionReadDelay: return profile_.read_delay_rate;
    case ChaosSite::kSessionShortWrite: return profile_.short_write_rate;
    case ChaosSite::kSessionDisconnect: return profile_.disconnect_rate;
    case ChaosSite::kStoreWriteFail: return profile_.store_write_fail_rate;
    case ChaosSite::kStoreCorrupt: return profile_.store_corrupt_rate;
    case ChaosSite::kWorkerStall: return profile_.worker_stall_rate;
  }
  return 0;
}

double ChaosSchedule::unit_draw(ChaosSite site, std::uint64_t n) const {
  const std::uint64_t word =
      mix64(seed_ ^ mix64(static_cast<std::uint64_t>(site) << 32 ^ n));
  // 53 high bits -> [0, 1) exactly representable in a double.
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

bool ChaosSchedule::fire(ChaosSite site) {
  const double rate = rate_for(site);
  if (rate <= 0) return false;
  const auto index = static_cast<std::size_t>(site);
  const std::uint64_t n =
      consulted_[index].fetch_add(1, std::memory_order_relaxed);
  if (unit_draw(site, n) >= rate) return false;
  injected_[index].fetch_add(1, std::memory_order_relaxed);
  return true;
}

double ChaosSchedule::read_delay_ms() {
  const auto index = static_cast<std::size_t>(ChaosSite::kSessionReadDelay);
  const std::uint64_t n =
      magnitude_n_[index].fetch_add(1, std::memory_order_relaxed);
  return profile_.read_delay_ms *
         (0.5 + unit_draw(ChaosSite::kSessionReadDelay, ~n));
}

double ChaosSchedule::worker_stall_ms() {
  const auto index = static_cast<std::size_t>(ChaosSite::kWorkerStall);
  const std::uint64_t n =
      magnitude_n_[index].fetch_add(1, std::memory_order_relaxed);
  return profile_.worker_stall_ms *
         (0.5 + unit_draw(ChaosSite::kWorkerStall, ~n));
}

ChaosStats ChaosSchedule::stats() const {
  ChaosStats stats;
  for (std::size_t i = 0; i < kChaosSiteCount; ++i) {
    stats.consulted[i] = consulted_[i].load(std::memory_order_relaxed);
    stats.injected[i] = injected_[i].load(std::memory_order_relaxed);
  }
  return stats;
}

}  // namespace psk::util
