#include "guard/salvage.h"

#include <sstream>
#include <string_view>

#include "archive/archive.h"
#include "util/error.h"

namespace psk::guard {

namespace {

// The container header is parsed by hand (24 bytes: magic, u16 container
// version, u16 kind, u32 payload version, u64 payload size) because
// archive::read_frame rejects any file whose trailing checksum is damaged
// -- which is exactly the torn file salvage exists for.  The payload is
// then decoded leniently with the codec's prefix decoders.

constexpr std::size_t kHeaderSize = 24;

struct ArchiveHeader {
  bool usable = false;
  archive::PayloadKind kind = archive::PayloadKind::kTrace;
  std::uint32_t payload_version = 0;
  std::string_view payload;  // declared size clamped to available bytes
  std::string detail;        // why the header is unusable
};

std::uint64_t read_le(std::string_view bytes, std::size_t offset,
                      std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[offset + i]))
             << (8 * i);
  }
  return value;
}

ArchiveHeader probe_archive(std::string_view bytes) {
  ArchiveHeader header;
  if (bytes.size() < kHeaderSize) {
    header.detail = "archive header truncated";
    return header;
  }
  const auto container_version =
      static_cast<std::uint16_t>(read_le(bytes, 8, 2));
  if (container_version != archive::kContainerVersion) {
    header.detail = "unknown container version " +
                    std::to_string(container_version);
    return header;
  }
  const auto raw_kind = static_cast<std::uint16_t>(read_le(bytes, 10, 2));
  if (raw_kind < 1 || raw_kind > 3) {
    header.detail = "unknown payload kind " + std::to_string(raw_kind);
    return header;
  }
  header.kind = static_cast<archive::PayloadKind>(raw_kind);
  header.payload_version = static_cast<std::uint32_t>(read_le(bytes, 12, 4));
  const std::uint64_t declared = read_le(bytes, 16, 8);
  const std::size_t available = bytes.size() - kHeaderSize;
  const std::size_t size =
      declared < available ? static_cast<std::size_t>(declared) : available;
  header.payload = bytes.substr(kHeaderSize, size);
  header.usable = true;
  return header;
}

/// How one payload kind is decoded: strictly from a whole archive, and
/// leniently from a possibly torn payload.
template <typename T>
struct PayloadCodec {
  archive::PayloadKind kind;
  archive::Result<T> (*read)(std::string_view);
  archive::Result<T> (*decode_prefix)(std::string_view, std::uint32_t,
                                      archive::PrefixStats&);
};

constexpr PayloadCodec<trace::Trace> kTraceCodec{
    archive::PayloadKind::kTrace, archive::read_trace,
    archive::decode_trace_prefix};
constexpr PayloadCodec<sig::Signature> kSignatureCodec{
    archive::PayloadKind::kSignature, archive::read_signature,
    archive::decode_signature_prefix};
constexpr PayloadCodec<skeleton::Skeleton> kSkeletonCodec{
    archive::PayloadKind::kSkeleton, archive::read_skeleton,
    archive::decode_skeleton_prefix};

/// Unit accounting of an intact value: events for traces, ranks for every
/// kind.
void count_units(const trace::Trace& trace, SalvageReport& report) {
  report.ranks_expected = report.ranks_kept = trace.ranks.size();
  report.events_expected = report.events_kept = trace.event_count();
}

template <typename T>
void count_units(const T& value, SalvageReport& report) {
  report.ranks_expected = report.ranks_kept = value.ranks.size();
}

/// The lenient path, shared by the file salvors (after the strict decode
/// has refused) and the in-memory entry points (which have no strict
/// path).
template <typename T>
std::optional<T> salvage_damaged(std::string_view bytes,
                                 const PayloadCodec<T>& codec,
                                 SalvageReport& report) {
  if (!archive::looks_like_archive(bytes)) {
    report.detail = "not a psk archive";
    return std::nullopt;
  }
  const ArchiveHeader header = probe_archive(bytes);
  if (!header.usable) {
    report.detail = header.detail;
    return std::nullopt;
  }
  if (header.kind != codec.kind) {
    report.detail = std::string("archive holds a ") +
                    archive::payload_kind_name(header.kind) + ", not a " +
                    archive::payload_kind_name(codec.kind);
    return std::nullopt;
  }
  archive::PrefixStats stats;
  archive::Result<T> partial =
      codec.decode_prefix(header.payload, header.payload_version, stats);
  if (!partial.ok()) {
    report.detail = partial.error().message;
    return std::nullopt;
  }
  report.ranks_expected = stats.ranks_expected;
  report.ranks_kept = stats.ranks_kept;
  report.events_expected = stats.events_expected;
  report.events_kept = stats.events_kept;
  report.byte_offset = kHeaderSize + stats.bytes_consumed;
  if (!stats.detail.empty()) report.detail = stats.detail;
  if (stats.ranks_kept == 0) return std::nullopt;
  report.recovered = true;
  return partial.take();
}

template <typename T>
std::optional<T> salvage_file(const std::string& path,
                              const PayloadCodec<T>& codec,
                              SalvageReport& report) {
  report = SalvageReport{};
  report.path = path;
  const archive::Result<std::string> bytes = archive::read_file(path);
  if (!bytes.ok()) throw ConfigError("salvage: " + bytes.error().message);
  archive::Result<T> strict = codec.read(bytes.value());
  if (strict.ok()) {
    report.clean = report.recovered = true;
    count_units(strict.value(), report);
    return strict.take();
  }
  report.detail = strict.error().message;
  return salvage_damaged(bytes.value(), codec, report);
}

template <typename T>
std::optional<T> salvage_bytes(const std::string& bytes,
                               const PayloadCodec<T>& codec,
                               SalvageReport& report) {
  report = SalvageReport{};
  report.path = "<memory>";
  return salvage_damaged(bytes, codec, report);
}

std::string render_units(std::uint64_t kept, std::uint64_t expected,
                         const char* unit) {
  return std::to_string(kept) + " of " + std::to_string(expected) + " " +
         unit;
}

}  // namespace

std::string SalvageReport::render() const {
  std::ostringstream out;
  out << path << ": ";
  if (clean) {
    out << "intact (" << render_units(ranks_kept, ranks_expected, "rank(s)");
    if (events_expected > 0) {
      out << ", " << render_units(events_kept, events_expected, "event(s)");
    }
    out << ")";
    return out.str();
  }
  if (!recovered) {
    out << "unrecoverable";
    if (!detail.empty()) out << " (" << detail << ")";
    return out.str();
  }
  out << "salvaged " << render_units(ranks_kept, ranks_expected, "rank(s)");
  if (events_expected > 0) {
    out << ", " << render_units(events_kept, events_expected, "event(s)");
  }
  if (byte_offset > 0) out << " (byte " << byte_offset << ")";
  if (!detail.empty()) out << "; " << detail;
  return out.str();
}

std::optional<trace::Trace> salvage_trace_file(const std::string& path,
                                               SalvageReport& report) {
  return salvage_file(path, kTraceCodec, report);
}

std::optional<trace::Trace> salvage_trace_bytes(const std::string& bytes,
                                                SalvageReport& report) {
  return salvage_bytes(bytes, kTraceCodec, report);
}

std::optional<sig::Signature> salvage_signature_file(const std::string& path,
                                                     SalvageReport& report) {
  return salvage_file(path, kSignatureCodec, report);
}

std::optional<sig::Signature> salvage_signature_bytes(const std::string& bytes,
                                                      SalvageReport& report) {
  return salvage_bytes(bytes, kSignatureCodec, report);
}

std::optional<skeleton::Skeleton> salvage_skeleton_file(
    const std::string& path, SalvageReport& report) {
  return salvage_file(path, kSkeletonCodec, report);
}

std::optional<skeleton::Skeleton> salvage_skeleton_bytes(
    const std::string& bytes, SalvageReport& report) {
  return salvage_bytes(bytes, kSkeletonCodec, report);
}

}  // namespace psk::guard
