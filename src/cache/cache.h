// Content-addressed result cache for simulation measurements.
//
// Every measurement in this repo is a seeded, deterministic simulation: the
// same (signature, scaling, scenario, sim config, seed) cell always computes
// the same doubles, bit for bit.  That makes results safe to memoize by
// *content*: a cache key is the canonical little-endian serialization of
// everything that determines the measurement (see cache/keys.h for the
// domain builders), addressed by its 64-bit FNV-1a fingerprint.
//
// The cache is the content-addressed blob store (cache/store.h) used with
// keyed entries: both tiers echo the full key next to the value and verify
// it on every lookup, so a 64-bit hash collision degrades to a miss
// (counted in verify_failures), never to a wrong result.
//
// Values are opaque byte strings; encode_values()/decode_values() provide
// the standard codec for the common double-vector payload.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/store.h"

namespace psk::cache {

/// Builds a CacheKey from typed fields.  The domain tag (e.g. "app-run/1")
/// namespaces key families and carries their layout version: bump it
/// whenever the field sequence changes and stale entries silently miss.
class KeyBuilder {
 public:
  explicit KeyBuilder(std::string_view domain);

  KeyBuilder& f64(double value);
  KeyBuilder& u64(std::uint64_t value);
  KeyBuilder& i64(std::int64_t value);
  KeyBuilder& flag(bool value);
  /// Length-prefixed text field.
  KeyBuilder& text(std::string_view value);
  /// Appends pre-encoded canonical bytes (archive::encode output),
  /// length-prefixed so adjacent fields cannot alias.
  KeyBuilder& raw(std::string_view canonical_bytes);

  CacheKey finish() &&;

 private:
  std::string bytes_;
};

/// The result cache is the blob store; the names stay for its callers.
using ResultCache = BlobStore;
using CacheStats = StoreStats;

/// Deterministic key=value rendering of the stats (the obs counter dump),
/// suitable for a --cache-stats artifact file.
std::string stats_kv(const CacheStats& stats);

// ----------------------------------------------------------- value codec

/// Canonical encoding of a double-vector payload (count + IEEE-754 bits).
std::string encode_values(const std::vector<double>& values);
/// Decodes; nullopt when `bytes` is not a well-formed value payload.
std::optional<std::vector<double>> decode_values(std::string_view bytes);

// ------------------------------------------------------------ sweep cells

/// Canonical key for a free-form sweep cell under a caller-chosen domain
/// string.  The domain keeps unrelated sweeps (or incompatible versions of
/// the same sweep) from colliding in a shared cache; journaled_sweep keys
/// its journal lines by the hash of this key.
CacheKey sweep_cell_key(std::string_view domain, std::string_view cell);
std::uint64_t sweep_cell_hash(std::string_view domain, std::string_view cell);

/// Get-or-compute for the ubiquitous single-double measurement.  A null
/// cache degenerates to calling `compute` directly, so call sites stay
/// branch-free.  `Fn` is any callable returning double.
template <typename Fn>
double memoize_scalar(ResultCache* cache, const CacheKey& key, Fn&& compute) {
  if (cache != nullptr) {
    if (std::optional<std::string> hit = cache->lookup(key)) {
      if (std::optional<std::vector<double>> values = decode_values(*hit);
          values && values->size() == 1) {
        return (*values)[0];
      }
    }
  }
  const double value = compute();
  if (cache != nullptr) cache->store(key, encode_values({value}));
  return value;
}

}  // namespace psk::cache
