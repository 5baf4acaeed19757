#include "cache/store.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "util/chaos.h"
#include "util/cli.h"
#include "util/error.h"
#include "util/log.h"

namespace psk::cache {

namespace {

using archive::Error;
using archive::ErrorCode;

constexpr std::size_t kChecksumSize = 8;

}  // namespace

// --------------------------------------------------------------- counters

void StoreStats::publish(obs::MetricsRegistry& metrics,
                         std::string_view prefix) const {
  const std::string p = std::string(prefix) + ".";
  const auto put = [&](const char* name, std::uint64_t value) {
    metrics.counter(p + name).add(static_cast<double>(value));
  };
  put("lookup", lookups);
  put("hit", hits);
  put("disk_hit", disk_hits);
  put("miss", misses);
  put("store", stores);
  put("evict", evictions);
  put("verify_fail", verify_failures);
  put("quarantined", quarantined);
  put("disk_write_fail", disk_write_failures);
  put("disk_evict", disk_evictions);
  put("restored", restored);
  put("entries", entries);
  put("bytes", bytes);
  put("disk_entries", disk_entries);
  put("disk_bytes", disk_bytes);
  metrics.counter(p + "hit_rate").add(hit_rate());
}

// ------------------------------------------------------------ entry codec

std::string encode_entry(std::string_view key, std::string_view value) {
  std::string out;
  out.reserve(kEntryMagic.size() + 8 + key.size() + value.size() +
              kChecksumSize);
  out.append(kEntryMagic);
  archive::put_string(out, key);
  archive::put_string(out, value);
  archive::put_u64(out, archive::fingerprint64(out));
  return out;
}

archive::Result<Blob> decode_entry(std::string_view bytes) {
  if (bytes.substr(0, kEntryMagic.size()) != kEntryMagic) {
    return Error{ErrorCode::kBadMagic, "not a PSKBLOB1 store entry"};
  }
  // Cursor::string checks a declared size against the bytes present before
  // it allocates.
  archive::Cursor in(bytes.substr(kEntryMagic.size()));
  Blob blob{in.string(), in.string()};
  const std::uint64_t checksum = in.u64();
  if (!in.ok()) return in.error();
  if (!in.at_end()) {
    return Error{ErrorCode::kCorrupt, "store entry has trailing bytes"};
  }
  if (checksum != archive::fingerprint64(
                      bytes.substr(0, bytes.size() - kChecksumSize))) {
    return Error{ErrorCode::kCorrupt, "store entry checksum mismatch"};
  }
  return blob;
}

// ------------------------------------------------------------------ store

BlobStore::BlobStore(StoreOptions options) : options_(std::move(options)) {
  if (options_.disk_dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(options_.disk_dir, ec);
  if (ec) {
    util::log_warn() << "store: cannot create disk tier at "
                     << options_.disk_dir << " (" << ec.message()
                     << "); running memory-only";
    options_.disk_dir.clear();
    return;
  }
  // Sorted, so the index (and disk-eviction) order ignores readdir order.
  std::map<std::filesystem::path, std::uint64_t> files;
  for (const auto& file :
       std::filesystem::directory_iterator(options_.disk_dir, ec)) {
    const std::string stem = file.path().stem().string();
    const std::uint64_t hash = std::strtoull(stem.c_str(), nullptr, 16);
    if (file.path().extension() == kEntryExtension &&
        archive::fingerprint_hex(hash) == stem) {
      files.emplace(file.path(), hash);
    }
  }
  for (const auto& [path, hash] : files) {
    // Indexed by name alone; the entry is verified when it is first read.
    const auto size = std::filesystem::file_size(path, ec);
    if (ec) continue;
    index_disk_locked(hash, static_cast<std::size_t>(size));
    ++stats_.restored;
  }
}

BlobStore::BlobStore(std::size_t memory_entries, std::size_t memory_bytes) {
  options_.memory_entries = memory_entries;
  options_.memory_bytes = memory_bytes;
}

std::string BlobStore::entry_path(std::uint64_t hash) const {
  if (options_.disk_dir.empty()) return "";
  return options_.disk_dir + "/" + archive::fingerprint_hex(hash) +
         std::string(kEntryExtension);
}

std::optional<std::string> BlobStore::lookup(const CacheKey& key) {
  return find(key.hash, &key.bytes, &Entry::value);
}

std::optional<std::string> BlobStore::get(std::uint64_t hash) {
  return find(hash, nullptr, &Entry::key);
}

void BlobStore::store(CacheKey key, std::string_view value) {
  Entry entry{key.hash, std::move(key.bytes), std::string(value)};
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.stores;
  spill_locked(entry);
  insert_locked(std::move(entry));
}

std::uint64_t BlobStore::put(std::string content) {
  const std::uint64_t hash = archive::fingerprint64(content);
  store(CacheKey{hash, std::move(content)}, {});
  return hash;
}

std::optional<std::string> BlobStore::find(std::uint64_t hash,
                                           const std::string* key,
                                           std::string Entry::*serve) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.lookups;
  // A memory entry is the whole truth for its hash: the disk holds the
  // same entry.
  const auto it = index_.find(hash);
  std::optional<Entry> loaded;
  if (it == index_.end()) loaded = read_disk_locked(hash);
  const Entry* entry = it != index_.end() ? &*it->second
                       : loaded           ? &*loaded
                                          : nullptr;
  if (entry != nullptr && key != nullptr && entry->key != *key) {
    ++stats_.verify_failures;  // a valid entry for a colliding key
    entry = nullptr;
  }
  if (entry == nullptr) {
    ++stats_.misses;
    return std::nullopt;
  }
  std::string served = entry->*serve;
  if (loaded) {
    ++stats_.disk_hits;
    insert_locked(std::move(*loaded));  // promote for the next lookup
  } else {
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second);
  }
  return served;
}

void BlobStore::insert_locked(Entry entry) {
  if (const auto it = index_.find(entry.hash); it != index_.end()) {
    stats_.bytes -= it->second->key.size() + it->second->value.size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  const std::size_t size = entry.key.size() + entry.value.size();
  if (options_.memory_entries == 0 || size > options_.memory_bytes) return;
  const std::uint64_t hash = entry.hash;
  lru_.push_front(std::move(entry));
  index_.emplace(hash, lru_.begin());
  stats_.bytes += size;
  while (lru_.size() > options_.memory_entries ||
         stats_.bytes > options_.memory_bytes) {
    const Entry& victim = lru_.back();
    stats_.bytes -= victim.key.size() + victim.value.size();
    index_.erase(victim.hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void BlobStore::spill_locked(const Entry& entry) {
  if (options_.disk_dir.empty() || disk_index_.count(entry.hash) != 0) return;
  util::ChaosSchedule* const chaos = options_.chaos;
  archive::Status written = Error{ErrorCode::kIo, "injected write failure"};
  if (!chaos || !chaos->fire(util::ChaosSite::kStoreWriteFail)) {
    std::string bytes = encode_entry(entry.key, entry.value);
    if (chaos && chaos->fire(util::ChaosSite::kStoreCorrupt)) {
      bytes[bytes.size() / 2] ^= 0x40;  // lands damaged; caught on read
    }
    written = archive::write_file_atomic(entry_path(entry.hash), bytes);
    if (written.ok()) index_disk_locked(entry.hash, bytes.size());
  }
  if (!written.ok() && ++stats_.disk_write_failures == 1) {
    util::log_warn() << "store: disk write to " << options_.disk_dir
                     << " failed (" << written.error().message
                     << "); the entry stays memory-only";
  }
  while (stats_.disk_bytes > options_.disk_bytes) {
    const std::uint64_t victim = disk_order_.front().first;
    std::remove(entry_path(victim).c_str());
    drop_disk_locked(victim);
    ++stats_.disk_evictions;
  }
}

std::optional<BlobStore::Entry> BlobStore::read_disk_locked(
    std::uint64_t hash) {
  if (options_.disk_dir.empty()) return std::nullopt;
  const std::string path = entry_path(hash);
  const archive::Result<std::string> bytes = archive::read_file(path);
  if (!bytes.ok()) {
    drop_disk_locked(hash);  // never written, or removed under us
    return std::nullopt;
  }
  // A file another process wrote since this store opened the directory.
  if (disk_index_.count(hash) == 0) index_disk_locked(hash, bytes.value().size());
  archive::Result<Blob> blob = decode_entry(bytes.value());
  const std::string damage =
      !blob.ok() ? blob.error().render()
      : archive::fingerprint64(blob.value().key) != hash
          ? "entry filed under the wrong hash"
          : "";
  if (damage.empty()) {
    return Entry{hash, std::move(blob.value().key),
                 std::move(blob.value().value)};
  }
  // Keep the damaged bytes for triage under a name the index skips; if even
  // the rename fails, remove the file so it cannot be read again.
  if (std::rename(path.c_str(), (path + ".quar").c_str()) != 0) {
    std::remove(path.c_str());
  }
  drop_disk_locked(hash);
  ++stats_.verify_failures;
  ++stats_.quarantined;
  util::log_warn() << "store: quarantined corrupt entry "
                   << archive::fingerprint_hex(hash) << " (" << damage << ")";
  return std::nullopt;
}

void BlobStore::index_disk_locked(std::uint64_t hash, std::size_t bytes) {
  disk_order_.emplace_back(hash, bytes);
  disk_index_.emplace(hash, std::prev(disk_order_.end()));
  stats_.disk_bytes += bytes;
}

void BlobStore::drop_disk_locked(std::uint64_t hash) {
  const auto it = disk_index_.find(hash);
  if (it == disk_index_.end()) return;
  stats_.disk_bytes -= it->second->second;
  disk_order_.erase(it->second);
  disk_index_.erase(it);
}

StoreStats BlobStore::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  StoreStats stats = stats_;
  stats.entries = lru_.size();
  stats.disk_entries = disk_index_.size();
  return stats;
}

std::shared_ptr<BlobStore> cache_from_cli(const util::Cli& cli) {
  if (cli.get_bool("no-cache", false)) return nullptr;
  const std::int64_t entries = cli.get_int("cache-mem", 4096);
  util::require(entries >= 0, "--cache-mem must be >= 0");
  StoreOptions options;
  options.memory_entries = static_cast<std::size_t>(entries);
  options.disk_dir = cli.get("cache-dir", "");
  return std::make_shared<BlobStore>(std::move(options));
}

}  // namespace psk::cache
