// Differential test of the two uses of the content-addressed blob store:
// the result cache (cache::ResultCache, keyed entries) and the hot-skeleton
// store (svc::SkeletonStore, entries named by their content).  One scripted
// sequence of put/get/evict/damage/restart steps runs against both, and
// each run renders a transcript: what every get serves and from which tier,
// counter snapshots, and the state of damaged files.  Both transcripts must
// equal one expectation; the only lines that differ are those of the
// forged-key lookup, which a content-addressed store cannot express.
//
// Items are named by a letter.  For the result cache an item is the key
// "item-<letter>" with a value of `size` copies of the letter; for the
// skeleton store it is the content "item-<letter>:" followed by the same
// value bytes.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "archive/wire.h"
#include "cache/cache.h"
#include "svc/store.h"

namespace psk {
namespace {

namespace fs = std::filesystem;

/// Store shape under test.  `bytes` is the memory byte cap.
struct Config {
  std::size_t entries = 16;
  std::size_t bytes = 1u << 20;
  std::string dir;  // empty = memory-only
  std::size_t disk_bytes = cache::kDefaultDiskBytes;
};

struct Counters {
  std::uint64_t hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t damaged = 0;  // verify failures: damage or collision
  std::uint64_t write_fail = 0;
  std::uint64_t restored = 0;
};

Counters counters_of(const cache::StoreStats& stats) {
  Counters counters;
  counters.hits = stats.hits;
  counters.disk_hits = stats.disk_hits;
  counters.misses = stats.misses;
  counters.evictions = stats.evictions;
  counters.damaged = stats.verify_failures;
  counters.write_fail = stats.disk_write_failures;
  counters.restored = stats.restored;
  return counters;
}

cache::StoreOptions options_of(const Config& config) {
  cache::StoreOptions options;
  options.memory_entries = config.entries;
  options.memory_bytes = config.bytes;
  options.disk_dir = config.dir;
  options.disk_bytes = config.disk_bytes;
  return options;
}

/// One store behind the operations the script uses.
class Subject {
 public:
  virtual ~Subject() = default;
  virtual void put(char item, std::size_t size) = 0;
  /// The item served (identified by its first value byte) and its tier.
  virtual std::string get(char item) = 0;
  /// A lookup of `item`'s address by some other key (a 64-bit collision);
  /// empty when the store has no keys to collide.
  virtual std::string get_colliding(char item) = 0;
  virtual Counters counters() const = 0;
  virtual std::string path(char item) const = 0;
};

/// Value bytes per item unless a step says otherwise.
constexpr std::size_t kItemSize = 600;

std::string item_name(char item) { return std::string("item-") + item; }
std::string item_value(char item, std::size_t size) {
  return std::string(size, item);
}

class CacheSubject : public Subject {
 public:
  explicit CacheSubject(const Config& config)
      : cache_(std::make_unique<cache::ResultCache>(options_of(config))) {}

  static cache::CacheKey key(char item) {
    cache::KeyBuilder builder("store-diff/1");
    builder.text(item_name(item));
    return std::move(builder).finish();
  }

  void put(char item, std::size_t size) override {
    cache_->store(key(item), item_value(item, size));
  }

  std::string get(char item) override { return serve(key(item)); }

  std::string get_colliding(char item) override {
    cache::CacheKey forged = key('?');
    forged.hash = key(item).hash;
    return serve(forged);
  }

  Counters counters() const override { return counters_of(cache_->stats()); }

  std::string path(char item) const override {
    return cache_->entry_path(key(item).hash);
  }

 private:
  std::string serve(const cache::CacheKey& key) {
    const cache::CacheStats before = cache_->stats();
    const std::optional<std::string> value = cache_->lookup(key);
    if (!value) return "miss";
    const char tier =
        cache_->stats().disk_hits != before.disk_hits ? 'D' : 'M';
    return std::string(1, value->empty() ? '-' : value->front()) + " " +
           (tier == 'D' ? "disk" : "memory");
  }

  std::unique_ptr<cache::ResultCache> cache_;
};

class StoreSubject : public Subject {
 public:
  explicit StoreSubject(const Config& config)
      : store_(std::make_unique<svc::SkeletonStore>(options_of(config))) {}

  static std::string content(char item, std::size_t size) {
    return item_name(item) + ":" + item_value(item, size);
  }

  void put(char item, std::size_t size) override {
    sizes_[item] = size;
    store_->put(content(item, size));
  }

  std::string get(char item) override {
    const cache::StoreStats before = store_->stats();
    const std::optional<std::string> bytes = store_->get(hash(item));
    if (!bytes) return "miss";
    const bool disk = store_->stats().disk_hits != before.disk_hits;
    const std::size_t colon = bytes->find(':');
    const char served =
        colon + 1 < bytes->size() ? (*bytes)[colon + 1] : '-';
    return std::string(1, served) + " " + (disk ? "disk" : "memory");
  }

  std::string get_colliding(char) override { return "n/a"; }

  Counters counters() const override { return counters_of(store_->stats()); }

  std::string path(char item) const override {
    return store_->entry_path(hash(item));
  }

 private:
  /// An item's address; items not put by this incarnation (read back
  /// after a restart) have the default size.
  std::uint64_t hash(char item) const {
    const auto it = sizes_.find(item);
    return archive::fingerprint64(
        content(item, it == sizes_.end() ? kItemSize : it->second));
  }

  std::map<char, std::size_t> sizes_;
  std::unique_ptr<svc::SkeletonStore> store_;
};

using Factory = std::function<std::unique_ptr<Subject>(const Config&)>;

/// Runs the script against one store kind and returns its transcript.
class Script {
 public:
  Script(Factory factory, std::string tag)
      : factory_(std::move(factory)), tag_(std::move(tag)) {}

  std::vector<std::string> run() {
    section("lru", Config{2, 1u << 20, ""});
    put('a');
    put('b');
    get('a');
    put('c');  // evicts b, the least recently used
    get('a');
    get('b');
    get('c');
    counters();

    section("bytes", Config{16, 1000, ""});
    put('a');  // 600 of 1000 bytes
    put('b');  // evicts a to fit
    get('a');
    get('b');
    put('d', 1200);  // larger than the whole cap
    get('d');
    get('b');
    counters();

    section("zero-memory", Config{0, 1u << 20, ""});
    put('a');
    get('a');
    counters();

    section("zero-disk", Config{0, 1u << 20, dir("zero")});
    put('a');
    get('a');
    restart();
    get('a');
    counters();

    section("torn", Config{16, 1u << 20, dir("torn")});
    put('a');
    restart();
    damage('a', [](std::string& bytes) { bytes.resize(bytes.size() / 2); });
    get('a');
    get('a');  // the damage is counted once
    counters();
    file('a');
    put('a');  // a put repairs the entry
    get('a');
    restart();
    get('a');

    section("bitflip", Config{16, 1u << 20, dir("flip")});
    put('a');
    restart();
    damage('a', [](std::string& bytes) { bytes[bytes.size() / 2] ^= 0x40; });
    get('a');
    get('a');
    counters();
    file('a');

    section("collision", Config{16, 1u << 20, dir("collide")});
    put('a');
    put('b');
    line("get-colliding a -> " + subject_->get_colliding('a'));
    get('a');
    restart();
    line("get-colliding a -> " + subject_->get_colliding('a'));
    misfile('b', 'a');  // b's valid entry under a's address
    get('a');
    counters();
    file('a');

    section("write-fail", Config{16, 1u << 20, dir("wfail")});
    block('a');
    put('a');
    get('a');
    counters();
    put('b');  // after a failure: does the next write still happen?
    counters();
    unblock('a');
    put('a');  // re-put once the fault is gone
    restart();
    counters();
    get('a');
    get('b');

    section("disk-cap", Config{16, 1u << 20, dir("dcap"), 1500});
    put('a');  // each entry file is about 640 bytes
    put('b');
    put('c');  // removes a, the oldest written
    restart();
    counters();
    file('a');
    get('b');
    get('c');

    section("restart", Config{16, 1u << 20, dir("restart")});
    put('a');
    put('b');
    restart();
    counters();
    get('a');
    get('a');
    get('c');
    counters();

    subject_.reset();
    return transcript_;
  }

 private:
  std::string dir(const std::string& name) const {
    const std::string path = testing::TempDir() + "/store_diff_" + tag_ +
                             "_" + name + "_" + std::to_string(::getpid());
    fs::remove_all(path);
    return path;
  }

  void section(const std::string& name, const Config& config) {
    config_ = config;
    subject_.reset();
    subject_ = factory_(config_);
    line("# " + name);
  }
  void line(const std::string& text) { transcript_.push_back(text); }
  void put(char item, std::size_t size = kItemSize) {
    subject_->put(item, size);
  }
  void get(char item) {
    line(std::string("get ") + item + " -> " + subject_->get(item));
  }
  void restart() {
    subject_.reset();
    subject_ = factory_(config_);
    line("restart");
  }
  void counters() {
    const Counters c = subject_->counters();
    line("counters hits=" + std::to_string(c.hits) +
         " disk_hits=" + std::to_string(c.disk_hits) +
         " misses=" + std::to_string(c.misses) +
         " evictions=" + std::to_string(c.evictions) +
         " damaged=" + std::to_string(c.damaged) +
         " write_fail=" + std::to_string(c.write_fail) +
         " restored=" + std::to_string(c.restored));
  }
  void damage(char item, const std::function<void(std::string&)>& edit) {
    const std::string path = subject_->path(item);
    std::string bytes;
    {
      std::ifstream in(path, std::ios::binary);
      bytes.assign((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
    }
    ASSERT_GT(bytes.size(), 16u) << path;
    edit(bytes);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  void misfile(char from, char to) {
    fs::copy_file(subject_->path(from), subject_->path(to),
                  fs::copy_options::overwrite_existing);
  }
  void file(char item) {
    const std::string path = subject_->path(item);
    line(std::string("file ") + item + ": " +
         (fs::exists(path)            ? "present"
          : fs::exists(path + ".quar") ? "quarantined"
                                       : "absent"));
  }
  /// A directory at the entry's temp path makes its write fail.
  void block(char item) { fs::create_directories(subject_->path(item) + ".tmp"); }
  void unblock(char item) { fs::remove_all(subject_->path(item) + ".tmp"); }

  Factory factory_;
  std::string tag_;
  Config config_;
  std::unique_ptr<Subject> subject_;
  std::vector<std::string> transcript_;
};

/// The transcript both stores produce.  The comments name the store rule
/// each section pins.
std::vector<std::string> expected(bool skeleton_store) {
  const auto pick = [&](const char* cache, const char* store) {
    return std::string(skeleton_store ? store : cache);
  };
  return {
      "# lru",
      "get a -> a memory",
      "get a -> a memory",
      "get b -> miss",
      "get c -> c memory",
      "counters hits=3 disk_hits=0 misses=1 evictions=1 damaged=0 "
      "write_fail=0 restored=0",
      "# bytes",
      // Memory is capped by bytes as well as entries.
      "get a -> miss",
      "get b -> b memory",
      "get d -> miss",
      "get b -> b memory",
      "counters hits=2 disk_hits=0 misses=2 evictions=1 damaged=0 "
      "write_fail=0 restored=0",
      "# zero-memory",
      "get a -> miss",
      "counters hits=0 disk_hits=0 misses=1 evictions=0 damaged=0 "
      "write_fail=0 restored=0",
      "# zero-disk",
      // Zero memory entries disables only the memory tier.
      "get a -> a disk",
      "restart",
      "get a -> a disk",
      "counters hits=0 disk_hits=1 misses=0 evictions=0 damaged=0 "
      "write_fail=0 restored=1",
      "# torn",
      "restart",
      "get a -> miss",
      "get a -> miss",
      // Damage is quarantined and counted once.
      "counters hits=0 disk_hits=0 misses=2 evictions=0 damaged=1 "
      "write_fail=0 restored=1",
      "file a: quarantined",
      "get a -> a memory",
      "restart",
      "get a -> a disk",
      "# bitflip",
      "restart",
      "get a -> miss",
      "get a -> miss",
      "counters hits=0 disk_hits=0 misses=2 evictions=0 damaged=1 "
      "write_fail=0 restored=1",
      "file a: quarantined",
      "# collision",
      pick("get-colliding a -> miss", "get-colliding a -> n/a"),
      "get a -> a memory",
      "restart",
      pick("get-colliding a -> miss", "get-colliding a -> n/a"),
      // An entry under the wrong address is damage.
      "get a -> miss",
      pick("counters hits=0 disk_hits=0 misses=2 evictions=0 damaged=2 "
           "write_fail=0 restored=2",
           "counters hits=0 disk_hits=0 misses=1 evictions=0 damaged=1 "
           "write_fail=0 restored=2"),
      "file a: quarantined",
      "# write-fail",
      "get a -> a memory",
      "counters hits=1 disk_hits=0 misses=0 evictions=0 damaged=0 "
      "write_fail=1 restored=0",
      // A failed write leaves only that entry memory-only.
      "counters hits=1 disk_hits=0 misses=0 evictions=0 damaged=0 "
      "write_fail=1 restored=0",
      "restart",
      "counters hits=0 disk_hits=0 misses=0 evictions=0 damaged=0 "
      "write_fail=0 restored=2",
      // Putting the entry again retries the failed write.
      "get a -> a disk",
      "get b -> b disk",
      "# disk-cap",
      // The disk tier is capped by bytes, oldest-written first.
      "restart",
      "counters hits=0 disk_hits=0 misses=0 evictions=0 damaged=0 "
      "write_fail=0 restored=2",
      "file a: absent",
      "get b -> b disk",
      "get c -> c disk",
      "# restart",
      "restart",
      "counters hits=0 disk_hits=0 misses=0 evictions=0 damaged=0 "
      "write_fail=0 restored=2",
      "get a -> a disk",
      "get a -> a memory",
      "get c -> miss",
      "counters hits=1 disk_hits=1 misses=1 evictions=0 damaged=0 "
      "write_fail=0 restored=2",
  };
}

void expect_transcript(const std::vector<std::string>& actual,
                       const std::vector<std::string>& want) {
  for (std::size_t i = 0; i < std::max(actual.size(), want.size()); ++i) {
    EXPECT_EQ(i < actual.size() ? actual[i] : "<none>",
              i < want.size() ? want[i] : "<none>")
        << "transcript line " << i;
  }
}

TEST(StoreDiff, ResultCacheFollowsScript) {
  Script script(
      [](const Config& c) { return std::make_unique<CacheSubject>(c); },
      "cache");
  expect_transcript(script.run(), expected(false));
}

TEST(StoreDiff, SkeletonStoreFollowsScript) {
  Script script(
      [](const Config& c) { return std::make_unique<StoreSubject>(c); },
      "store");
  expect_transcript(script.run(), expected(true));
}

}  // namespace
}  // namespace psk
