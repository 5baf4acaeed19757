// Tests for the psk archive (psk::archive): wire primitives, container
// framing, round-trips for all three payload kinds, the refusal of the
// pre-archive formats, and corruption detection.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <fstream>
#include <string>

#include "apps/nas.h"
#include "archive/archive.h"
#include "archive/codec.h"
#include "archive/wire.h"
#include "core/framework.h"
#include "sig/compress.h"
#include "sig/signature.h"
#include "skeleton/skeleton.h"

namespace psk {
namespace {

trace::Trace sample_trace(const char* app = "MG") {
  core::SkeletonFramework framework;
  return framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
}

sig::Signature sample_signature(const char* app = "MG") {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
  return framework.make_signature(trace, 10.0);
}

skeleton::Skeleton sample_skeleton(const char* app = "MG") {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark(app).make(apps::NasClass::kS), app);
  return framework.make_skeleton(framework.make_signature(trace, 10.0), 10.0);
}

std::string temp_path(const char* name) {
  return testing::TempDir() + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------------- wire

TEST(Wire, PrimitivesRoundTrip) {
  std::string bytes;
  archive::put_u8(bytes, 0xAB);
  archive::put_u16(bytes, 0xBEEF);
  archive::put_u32(bytes, 0xDEADBEEFu);
  archive::put_u64(bytes, 0x0123456789ABCDEFull);
  archive::put_i32(bytes, -12345);
  archive::put_i64(bytes, -9876543210LL);
  archive::put_f64(bytes, -0.1);
  archive::put_bool(bytes, true);
  archive::put_string(bytes, "hello\0world");

  archive::Cursor in(bytes);
  EXPECT_EQ(in.u8(), 0xAB);
  EXPECT_EQ(in.u16(), 0xBEEF);
  EXPECT_EQ(in.u32(), 0xDEADBEEFu);
  EXPECT_EQ(in.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(in.i32(), -12345);
  EXPECT_EQ(in.i64(), -9876543210LL);
  EXPECT_EQ(in.f64(), -0.1);  // exact: bit-pattern round-trip
  EXPECT_TRUE(in.boolean());
  EXPECT_EQ(in.string(), std::string("hello"));  // literal truncates at NUL
  EXPECT_TRUE(in.ok());
  EXPECT_TRUE(in.at_end());
}

TEST(Wire, CursorFailsStickilyOnTruncation) {
  std::string bytes;
  archive::put_u32(bytes, 7);
  archive::Cursor in(bytes.substr(0, 2));
  EXPECT_EQ(in.u32(), 0u);
  EXPECT_FALSE(in.ok());
  // Every later read keeps failing instead of reading garbage.
  EXPECT_EQ(in.u64(), 0u);
  EXPECT_EQ(in.string(), "");
  EXPECT_FALSE(in.ok());
}

TEST(Wire, FingerprintIsStableAndHexFixedWidth) {
  // FNV-1a is stable by contract: pin a known vector so an accidental
  // algorithm change (which would orphan every cache entry) fails loudly.
  EXPECT_EQ(archive::fingerprint64(""), 14695981039346656037ull);
  EXPECT_EQ(archive::fingerprint_hex(0x1ull).size(), 16u);
  EXPECT_EQ(archive::fingerprint_hex(0xABCDull),
            std::string("000000000000abcd"));
}

// ------------------------------------------------------------------ frame

TEST(Archive, FrameRoundTrip) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kSignature, 3, "payload");
  const auto frame = archive::read_frame(bytes);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().kind, archive::PayloadKind::kSignature);
  EXPECT_EQ(frame.value().payload_version, 3u);
  EXPECT_EQ(frame.value().payload, "payload");
  EXPECT_TRUE(archive::looks_like_archive(bytes));
  EXPECT_FALSE(archive::looks_like_archive("PSKTRB01..."));
}

TEST(Archive, FutureContainerVersionRejected) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "p");
  bytes[8] = '\xFF';  // container version field (offset 8, LE u16)
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kBadVersion);
}

TEST(Archive, PayloadCorruptionFailsChecksum) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "payload");
  bytes[26] = static_cast<char>(bytes[26] ^ 0x01);  // inside the payload
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kCorrupt);
}

// ------------------------------------------------------------ round-trips

TEST(Archive, TraceRoundTrip) {
  const trace::Trace original = sample_trace();
  const std::string path = temp_path("psk_archive.trace");
  archive::save(path, original).or_throw();
  const trace::Trace loaded = archive::load_trace(path).or_throw();
  EXPECT_EQ(loaded.app_name, original.app_name);
  EXPECT_EQ(loaded.rank_count(), original.rank_count());
  EXPECT_EQ(loaded.event_count(), original.event_count());
  EXPECT_EQ(loaded.elapsed(), original.elapsed());  // doubles: exact
  std::remove(path.c_str());
}

TEST(Archive, SignatureRoundTrip) {
  const sig::Signature original = sample_signature("SP");
  const std::string path = temp_path("psk_archive.sig");
  archive::save(path, original).or_throw();
  const sig::Signature loaded = archive::load_signature(path).or_throw();
  EXPECT_EQ(loaded.app_name, original.app_name);
  EXPECT_EQ(loaded.threshold, original.threshold);
  EXPECT_EQ(loaded.compression_ratio, original.compression_ratio);
  ASSERT_EQ(loaded.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < loaded.ranks.size(); ++r) {
    EXPECT_EQ(loaded.ranks[r].rank, original.ranks[r].rank);
    EXPECT_EQ(loaded.ranks[r].total_time, original.ranks[r].total_time);
    EXPECT_EQ(loaded.ranks[r].roots, original.ranks[r].roots);
  }
  std::remove(path.c_str());
}

TEST(Archive, SkeletonRoundTrip) {
  const skeleton::Skeleton original = sample_skeleton("CG");
  const std::string path = temp_path("psk_archive.skel");
  archive::save(path, original).or_throw();
  const skeleton::Skeleton loaded = archive::load_skeleton(path).or_throw();
  EXPECT_EQ(loaded.app_name, original.app_name);
  EXPECT_EQ(loaded.scaling_factor, original.scaling_factor);
  EXPECT_EQ(loaded.intended_time, original.intended_time);
  EXPECT_EQ(loaded.min_good_time, original.min_good_time);
  EXPECT_EQ(loaded.good, original.good);
  ASSERT_EQ(loaded.ranks.size(), original.ranks.size());
  for (std::size_t r = 0; r < loaded.ranks.size(); ++r) {
    EXPECT_EQ(loaded.ranks[r].roots, original.ranks[r].roots);
  }
  std::remove(path.c_str());
}

// ------------------------------------------------ six-app field equality
//
// Every field of the class-S trace, signature and skeleton of each bundled
// app survives the archive round-trip, doubles bit for bit.

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

#define EXPECT_SAME_DOUBLE(a, b) EXPECT_EQ(bits(a), bits(b))

void expect_same(const trace::Trace& a, const trace::Trace& b) {
  EXPECT_EQ(a.app_name, b.app_name);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    const trace::RankTrace& x = a.ranks[r];
    const trace::RankTrace& y = b.ranks[r];
    EXPECT_EQ(x.rank, y.rank);
    EXPECT_SAME_DOUBLE(x.total_time, y.total_time);
    EXPECT_SAME_DOUBLE(x.final_compute, y.final_compute);
    ASSERT_EQ(x.events.size(), y.events.size());
    for (std::size_t e = 0; e < x.events.size(); ++e) {
      const trace::TraceEvent& p = x.events[e];
      const trace::TraceEvent& q = y.events[e];
      EXPECT_EQ(p.type, q.type);
      EXPECT_EQ(p.peer, q.peer);
      EXPECT_EQ(p.bytes, q.bytes);
      EXPECT_EQ(p.tag, q.tag);
      ASSERT_EQ(p.parts.size(), q.parts.size());
      for (std::size_t i = 0; i < p.parts.size(); ++i) {
        EXPECT_EQ(p.parts[i].peer, q.parts[i].peer);
        EXPECT_EQ(p.parts[i].bytes, q.parts[i].bytes);
        EXPECT_EQ(p.parts[i].outgoing, q.parts[i].outgoing);
        EXPECT_EQ(p.parts[i].tag, q.parts[i].tag);
      }
      EXPECT_EQ(p.request, q.request);
      EXPECT_EQ(p.requests, q.requests);
      EXPECT_SAME_DOUBLE(p.t_start, q.t_start);
      EXPECT_SAME_DOUBLE(p.t_end, q.t_end);
      EXPECT_SAME_DOUBLE(p.pre_compute, q.pre_compute);
      EXPECT_SAME_DOUBLE(p.interior_compute, q.interior_compute);
      EXPECT_SAME_DOUBLE(p.pre_mem_bytes, q.pre_mem_bytes);
      EXPECT_SAME_DOUBLE(p.interior_mem_bytes, q.interior_mem_bytes);
    }
  }
}

void expect_same(const sig::SigSeq& a, const sig::SigSeq& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t n = 0; n < a.size(); ++n) {
    const sig::SigNode& x = a[n];
    const sig::SigNode& y = b[n];
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.iterations, y.iterations);
    EXPECT_EQ(x.hash, y.hash);
    const sig::SigEvent& p = x.event;
    const sig::SigEvent& q = y.event;
    EXPECT_EQ(p.type, q.type);
    EXPECT_EQ(p.peer, q.peer);
    EXPECT_EQ(p.tag, q.tag);
    EXPECT_SAME_DOUBLE(p.bytes, q.bytes);
    ASSERT_EQ(p.parts.size(), q.parts.size());
    for (std::size_t i = 0; i < p.parts.size(); ++i) {
      EXPECT_EQ(p.parts[i].peer, q.parts[i].peer);
      EXPECT_SAME_DOUBLE(p.parts[i].bytes, q.parts[i].bytes);
      EXPECT_EQ(p.parts[i].outgoing, q.parts[i].outgoing);
      EXPECT_EQ(p.parts[i].tag, q.parts[i].tag);
    }
    EXPECT_SAME_DOUBLE(p.pre_compute, q.pre_compute);
    EXPECT_SAME_DOUBLE(p.pre_compute_m2, q.pre_compute_m2);
    EXPECT_EQ(p.observations, q.observations);
    EXPECT_SAME_DOUBLE(p.interior_compute, q.interior_compute);
    EXPECT_SAME_DOUBLE(p.pre_mem_bytes, q.pre_mem_bytes);
    EXPECT_SAME_DOUBLE(p.interior_mem_bytes, q.interior_mem_bytes);
    EXPECT_SAME_DOUBLE(p.mean_duration, q.mean_duration);
    EXPECT_EQ(p.cluster_id, q.cluster_id);
    expect_same(x.body, y.body);
  }
}

void expect_same(const std::vector<sig::RankSignature>& a,
                 const std::vector<sig::RankSignature>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t r = 0; r < a.size(); ++r) {
    EXPECT_EQ(a[r].rank, b[r].rank);
    EXPECT_SAME_DOUBLE(a[r].total_time, b[r].total_time);
    EXPECT_SAME_DOUBLE(a[r].final_compute, b[r].final_compute);
    expect_same(a[r].roots, b[r].roots);
  }
}

void expect_same(const sig::Signature& a, const sig::Signature& b) {
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_SAME_DOUBLE(a.threshold, b.threshold);
  EXPECT_SAME_DOUBLE(a.compression_ratio, b.compression_ratio);
  expect_same(a.ranks, b.ranks);
}

void expect_same(const skeleton::Skeleton& a, const skeleton::Skeleton& b) {
  EXPECT_EQ(a.app_name, b.app_name);
  EXPECT_SAME_DOUBLE(a.scaling_factor, b.scaling_factor);
  EXPECT_SAME_DOUBLE(a.intended_time, b.intended_time);
  EXPECT_SAME_DOUBLE(a.min_good_time, b.min_good_time);
  EXPECT_EQ(a.good, b.good);
  expect_same(a.ranks, b.ranks);
}

class AppRoundTrip : public testing::TestWithParam<const char*> {};

TEST_P(AppRoundTrip, KeepsEveryFieldBitForBit) {
  core::SkeletonFramework framework;
  const trace::Trace trace = framework.record(
      apps::find_benchmark(GetParam()).make(apps::NasClass::kS), GetParam());
  const sig::Signature signature = framework.make_signature(trace, 10.0);
  const skeleton::Skeleton skeleton = framework.make_skeleton(signature, 10.0);

  std::string bytes;
  archive::encode(bytes, trace);
  const trace::Trace archived_trace = archive::decode_trace(bytes).or_throw();
  expect_same(archived_trace, trace);

  bytes.clear();
  archive::encode(bytes, signature);
  const sig::Signature archived_signature =
      archive::decode_signature(bytes).or_throw();
  expect_same(archived_signature, signature);

  bytes.clear();
  archive::encode(bytes, skeleton);
  const skeleton::Skeleton archived_skeleton =
      archive::decode_skeleton(bytes).or_throw();
  expect_same(archived_skeleton, skeleton);
}

INSTANTIATE_TEST_SUITE_P(SixApps, AppRoundTrip,
                         testing::Values("BT", "CG", "IS", "LU", "MG", "SP"),
                         [](const testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

// ------------------------------------------------- pre-archive formats
//
// The text formats ("psk-trace 1", "psk-signature 1", "psk-skeleton 1") and
// the PSKTRB01 binary trace have no reader: such files fail like any other
// non-archive, with a message naming the file.

TEST(Archive, LegacyTextTraceIsNotRead) {
  const std::string path = temp_path("psk_pre_archive_trace");
  spit(path, "psk-trace 1\napp MG\nranks 0\n");
  const auto loaded = archive::load_trace(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kBadMagic);
  EXPECT_NE(loaded.error().message.find(path + " is not a psk archive"),
            std::string::npos)
      << loaded.error().message;
  std::remove(path.c_str());
}

TEST(Archive, LegacyBinaryTraceIsNotRead) {
  const std::string path = temp_path("psk_pre_archive_binary");
  spit(path, std::string("PSKTRB01\x01\x00\x00\x00", 12));
  const auto loaded = archive::load_trace(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kBadMagic);
  std::remove(path.c_str());
}

TEST(Archive, LegacySignatureIsNotRead) {
  const std::string path = temp_path("psk_pre_archive_signature");
  spit(path, "psk-signature 1\napp MG\nthreshold 0\nratio 1\nranks 0\n");
  const auto loaded = archive::load_signature(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kBadMagic);
  std::remove(path.c_str());
}

TEST(Archive, LegacySkeletonIsNotRead) {
  const std::string path = temp_path("psk_pre_archive_skeleton");
  spit(path, "psk-skeleton 1\napp MG\n");
  const auto loaded = archive::load_skeleton(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kBadMagic);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ error paths

TEST(Archive, KindMismatchIsTypedError) {
  const sig::Signature signature = sample_signature();
  const std::string path = temp_path("psk_kind.sig");
  archive::save(path, signature).or_throw();
  const auto as_trace = archive::load_trace(path);
  ASSERT_FALSE(as_trace.ok());
  EXPECT_EQ(as_trace.error().code, archive::ErrorCode::kBadKind);
  std::remove(path.c_str());
}

TEST(Archive, MissingFileIsIoError) {
  const auto missing = archive::load_trace(temp_path("psk_no_such_file"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, archive::ErrorCode::kIo);
}

TEST(Archive, GarbageFileIsTypedErrorNotThrow) {
  const std::string path = temp_path("psk_garbage");
  spit(path, "not an archive\n");
  const auto loaded = archive::load_trace(path);
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

TEST(Archive, CorruptedArchiveFileReportsCorrupt) {
  const trace::Trace original = sample_trace();
  const std::string path = temp_path("psk_corrupt.trace");
  archive::save(path, original).or_throw();
  std::string bytes = slurp(path);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x10);
  spit(path, bytes);
  const auto loaded = archive::load_trace(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, archive::ErrorCode::kCorrupt);
  std::remove(path.c_str());
}

// ------------------------------------------------- hostile declared sizes
//
// Declared sizes and counts are validated against the bytes actually
// present *before* any decode loop or allocation, and report kTruncated
// (distinct from kCorrupt: the data present may be fine, the rest is gone).

TEST(Archive, TruncatedFrameReportsTruncated) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "payload");
  bytes.resize(bytes.size() - 10);  // torn mid-payload
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kTruncated);
}

TEST(Archive, TrailingBytesReportCorrupt) {
  std::string bytes;
  archive::write_frame(bytes, archive::PayloadKind::kTrace, 1, "payload");
  bytes.push_back('\0');
  const auto frame = archive::read_frame(bytes);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.error().code, archive::ErrorCode::kCorrupt);
}

TEST(Archive, HostileRankCountFailsFastAsTruncated) {
  // A tiny payload declaring 60000 ranks (within the plausibility cap) must
  // fail at the count field, not after a long failing decode loop.
  std::string payload;
  archive::put_string(payload, "app");
  archive::put_u32(payload, 60000);
  const auto trace = archive::decode_trace(payload, 1);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.error().code, archive::ErrorCode::kTruncated);
  EXPECT_NE(trace.error().message.find("rank count"), std::string::npos);
}

TEST(Archive, HostileEventCountFailsFastAsTruncated) {
  std::string payload;
  archive::put_string(payload, "app");
  archive::put_u32(payload, 1);                      // one rank
  archive::put_i32(payload, 0);                      // rank id
  archive::put_f64(payload, 1.0);                    // total_time
  archive::put_f64(payload, 0.0);                    // final_compute
  archive::put_u64(payload, std::uint64_t{1} << 31); // events, bytes absent
  const auto trace = archive::decode_trace(payload, 1);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.error().code, archive::ErrorCode::kTruncated);
}

TEST(Archive, OrThrowBridgesToFormatError) {
  EXPECT_THROW(
      archive::load_trace(temp_path("psk_no_such_file")).or_throw(),
      psk::FormatError);
}

}  // namespace
}  // namespace psk
