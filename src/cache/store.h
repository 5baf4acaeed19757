// The content-addressed blob store behind both memoisation layers: replay
// results (cache::ResultCache) and retained skeletons (svc::SkeletonStore).
//
// Every entry is a (key bytes, value bytes) pair filed under
// archive::fingerprint64(key).  A result entry's key is its canonical
// CacheKey bytes and a lookup compares the echoed key, so a 64-bit
// collision is a counted miss, never a wrong result.  A skeleton entry's
// key *is* its canonical PSKARCH1 container and its value is empty, so
// "hash == fingerprint64(payload)" is the rule that files every entry.
//
// Memory: one thread-safe LRU capped by entries and by key+value bytes (an
// entry larger than the byte cap skips it).  Disk (optional): one
// `<hash-hex>.pskb` file per entry (docs/FORMATS.md "Store entry"), written
// through a temp file and a rename and capped by bytes, oldest-written
// first.  A store indexes the directory by file name when it opens it, and
// a file another process writes later when a lookup first finds it.
//
// A disk entry is verified before a byte is served.  A torn entry, a
// checksum failure or a key that does not hash to the file's name is
// renamed to `<name>.quar`, counted once and never served.  A failed disk
// write is counted, warned about once per store, and leaves that entry
// memory-only until it is put again.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "archive/wire.h"

namespace psk::obs {
class MetricsRegistry;
}

namespace psk::util {
class ChaosSchedule;
class Cli;
}

namespace psk::cache {

/// A content address: canonical key bytes and their 64-bit fingerprint.
struct CacheKey {
  std::uint64_t hash = 0;
  std::string bytes;
};

inline constexpr std::size_t kDefaultMemoryBytes = std::size_t{256} << 20;
inline constexpr std::size_t kDefaultDiskBytes = std::size_t{1024} << 20;

struct StoreOptions {
  /// Memory-tier caps; 0 entries disables the memory tier (the disk tier,
  /// when configured, still serves).
  std::size_t memory_entries = 4096;
  std::size_t memory_bytes = kDefaultMemoryBytes;
  /// Disk-tier directory, created if missing; empty = memory-only.  One
  /// that cannot be created warns once and leaves the store memory-only.
  std::string disk_dir;
  std::size_t disk_bytes = kDefaultDiskBytes;
  /// Fault injection at the disk write (null in production).
  util::ChaosSchedule* chaos = nullptr;
};

/// Counters of one store; publish() names each `<prefix>.<comment name>`.
struct StoreStats {
  std::uint64_t lookups = 0;          // lookup
  std::uint64_t hits = 0;             // hit: served from memory
  std::uint64_t disk_hits = 0;        // disk_hit: served from disk
  std::uint64_t misses = 0;           // miss
  std::uint64_t stores = 0;           // store: puts
  std::uint64_t evictions = 0;        // evict: memory-tier LRU evictions
  std::uint64_t verify_failures = 0;  // verify_fail: damage or collision
  std::uint64_t quarantined = 0;      // quarantined: damaged disk entries
  std::uint64_t disk_write_failures = 0;  // disk_write_fail
  std::uint64_t disk_evictions = 0;   // disk_evict: removed for the cap
  std::uint64_t restored = 0;         // restored: indexed when opened
  std::size_t entries = 0;            // entries: in memory now
  std::size_t bytes = 0;              // bytes: in memory now
  std::size_t disk_entries = 0;       // disk_entries: on disk now
  std::size_t disk_bytes = 0;         // disk_bytes: on disk now

  double hit_rate() const {  // hit_rate
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits + disk_hits) /
                              static_cast<double>(lookups);
  }
  void publish(obs::MetricsRegistry& metrics, std::string_view prefix) const;
};

// -------------------------------------------------------------- entry codec

inline constexpr std::string_view kEntryMagic = "PSKBLOB1";
inline constexpr std::string_view kEntryExtension = ".pskb";

struct Blob {
  std::string key;
  std::string value;
};

/// Magic, u32 key size, key, u32 value size, value, then an FNV-1a
/// fingerprint of everything before it.
std::string encode_entry(std::string_view key, std::string_view value);
/// Verifies framing, declared sizes against the bytes present (before any
/// allocation) and the checksum.  decode then encode reproduces the input.
archive::Result<Blob> decode_entry(std::string_view bytes);

// -------------------------------------------------------------------- store

class BlobStore {
 public:
  explicit BlobStore(StoreOptions options = {});
  /// Memory-only store with the given caps.
  BlobStore(std::size_t memory_entries, std::size_t memory_bytes);

  /// Keyed use: the value filed under key.hash, if that entry echoes
  /// key.bytes.  Thread-safe, like every member.
  std::optional<std::string> lookup(const CacheKey& key);
  void store(CacheKey key, std::string_view value);

  /// Content-addressed use: files `content` as the key of an entry with an
  /// empty value and returns fingerprint64(content); get() returns it.
  std::uint64_t put(std::string content);
  std::optional<std::string> get(std::uint64_t hash);

  StoreStats stats() const;
  const StoreOptions& options() const { return options_; }
  /// Where the entry for `hash` lives on disk; empty without a disk tier.
  std::string entry_path(std::uint64_t hash) const;

 private:
  struct Entry {
    std::uint64_t hash = 0;
    std::string key;
    std::string value;
  };
  using LruList = std::list<Entry>;
  using DiskList = std::list<std::pair<std::uint64_t, std::size_t>>;

  /// The `serve` field of the entry under `hash` (memory, then disk); with
  /// `key`, the entry must echo it.
  std::optional<std::string> find(std::uint64_t hash, const std::string* key,
                                  std::string Entry::*serve);
  void insert_locked(Entry entry);
  void spill_locked(const Entry& entry);
  std::optional<Entry> read_disk_locked(std::uint64_t hash);
  void index_disk_locked(std::uint64_t hash, std::size_t bytes);
  void drop_disk_locked(std::uint64_t hash);

  StoreOptions options_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> index_;
  DiskList disk_order_;  // (hash, file bytes), front = oldest written
  std::unordered_map<std::uint64_t, DiskList::iterator> disk_index_;
  StoreStats stats_;
};

/// The result cache --cache-mem=N (memory entries, default 4096),
/// --cache-dir=D and --no-cache describe; null under --no-cache.  Throws
/// ConfigError on a negative --cache-mem.
std::shared_ptr<BlobStore> cache_from_cli(const util::Cli& cli);

}  // namespace psk::cache
