#include "archive/archive.h"

namespace psk::archive {

namespace {

constexpr std::size_t kHeaderSize = 8 + 2 + 2 + 4 + 8;
constexpr std::size_t kChecksumSize = 8;

template <typename T>
Status save_as(const std::string& path, PayloadKind kind,
               std::uint32_t payload_version, const T& value) {
  std::string payload;
  encode(payload, value);
  std::string bytes;
  bytes.reserve(kHeaderSize + payload.size() + kChecksumSize);
  write_frame(bytes, kind, payload_version, payload);
  return write_file_atomic(path, bytes);
}

/// Decodes a whole archive held in memory, refusing other payload kinds.
template <typename T>
Result<T> read_as(std::string_view bytes, PayloadKind kind,
                  Result<T> (*decode)(std::string_view, std::uint32_t)) {
  Result<Frame> frame = read_frame(bytes);
  if (!frame.ok()) return frame.error();
  if (frame.value().kind != kind) {
    return Error{ErrorCode::kBadKind,
                 std::string("holds a ") +
                     payload_kind_name(frame.value().kind) + ", wanted a " +
                     payload_kind_name(kind)};
  }
  return decode(frame.value().payload, frame.value().payload_version);
}

/// Reads `path` and decodes it with `read`; failures name the file.
template <typename T>
Result<T> load_as(const std::string& path,
                  Result<T> (*read)(std::string_view)) {
  Result<std::string> bytes = read_file(path);
  if (!bytes.ok()) return bytes.error();
  Result<T> value = read(bytes.value());
  if (value.ok()) return value;
  const Error& error = value.error();
  if (error.code == ErrorCode::kBadKind) {
    return Error{error.code, path + " " + error.message};
  }
  return Error{error.code,
               path + " is not a psk archive (" + error.message + ")"};
}

}  // namespace

const char* payload_kind_name(PayloadKind kind) {
  switch (kind) {
    case PayloadKind::kTrace: return "trace";
    case PayloadKind::kSignature: return "signature";
    case PayloadKind::kSkeleton: return "skeleton";
  }
  return "unknown payload";
}

void write_frame(std::string& out, PayloadKind kind,
                 std::uint32_t payload_version, std::string_view payload) {
  out.append(kMagic);
  put_u16(out, kContainerVersion);
  put_u16(out, static_cast<std::uint16_t>(kind));
  put_u32(out, payload_version);
  put_u64(out, payload.size());
  out.append(payload);
  put_u64(out, fingerprint64(payload));
}

bool looks_like_archive(std::string_view bytes) {
  return bytes.substr(0, kMagic.size()) == kMagic;
}

Result<Frame> read_frame(std::string_view bytes) {
  if (!looks_like_archive(bytes)) {
    return Error{ErrorCode::kBadMagic, "no PSKARCH1 magic"};
  }
  Cursor in(bytes.substr(kMagic.size()));
  const std::uint16_t container_version = in.u16();
  const std::uint16_t raw_kind = in.u16();
  const std::uint32_t payload_version = in.u32();
  const std::uint64_t payload_size = in.u64();
  if (!in.ok()) return in.error();
  if (container_version != kContainerVersion) {
    return Error{ErrorCode::kBadVersion,
                 "container version " + std::to_string(container_version)};
  }
  if (raw_kind < static_cast<std::uint16_t>(PayloadKind::kTrace) ||
      raw_kind > static_cast<std::uint16_t>(PayloadKind::kSkeleton)) {
    return Error{ErrorCode::kCorrupt,
                 "unknown payload kind " + std::to_string(raw_kind)};
  }
  // Declared size vs bytes actually present, checked before the payload is
  // copied: a hostile size field costs nothing.  Overflow-safe comparison
  // (payload_size + kChecksumSize could wrap).  The count reported leaves
  // out the checksum's share, so a torn checksum reads as missing bytes.
  if (in.remaining() < kChecksumSize ||
      payload_size > in.remaining() - kChecksumSize) {
    const std::size_t present =
        in.remaining() < kChecksumSize ? 0 : in.remaining() - kChecksumSize;
    return Error{ErrorCode::kTruncated,
                 "payload declares " + std::to_string(payload_size) +
                     " byte(s) but only " + std::to_string(present) +
                     " remain ahead of the " + std::to_string(kChecksumSize) +
                     "-byte checksum"};
  }
  if (payload_size < in.remaining() - kChecksumSize) {
    return Error{ErrorCode::kCorrupt,
                 "frame size mismatch (payload says " +
                     std::to_string(payload_size) + " byte(s), file has " +
                     std::to_string(in.remaining()) + ")"};
  }
  Frame frame;
  frame.kind = static_cast<PayloadKind>(raw_kind);
  frame.payload_version = payload_version;
  frame.payload =
      std::string(bytes.substr(kHeaderSize, static_cast<std::size_t>(payload_size)));
  Cursor tail(bytes.substr(kHeaderSize + static_cast<std::size_t>(payload_size)));
  const std::uint64_t checksum = tail.u64();
  if (checksum != fingerprint64(frame.payload)) {
    return Error{ErrorCode::kCorrupt, "payload checksum mismatch"};
  }
  return frame;
}

Status save(const std::string& path, const trace::Trace& trace) {
  return save_as(path, PayloadKind::kTrace, kTraceVersion, trace);
}

Status save(const std::string& path, const sig::Signature& signature) {
  return save_as(path, PayloadKind::kSignature, kSignatureVersion, signature);
}

Status save(const std::string& path, const skeleton::Skeleton& skeleton) {
  return save_as(path, PayloadKind::kSkeleton, kSkeletonVersion, skeleton);
}

Result<trace::Trace> read_trace(std::string_view bytes) {
  return read_as(bytes, PayloadKind::kTrace, decode_trace);
}

Result<sig::Signature> read_signature(std::string_view bytes) {
  return read_as(bytes, PayloadKind::kSignature, decode_signature);
}

Result<skeleton::Skeleton> read_skeleton(std::string_view bytes) {
  return read_as(bytes, PayloadKind::kSkeleton, decode_skeleton);
}

Result<trace::Trace> load_trace(const std::string& path) {
  return load_as(path, read_trace);
}

Result<sig::Signature> load_signature(const std::string& path) {
  return load_as(path, read_signature);
}

Result<skeleton::Skeleton> load_skeleton(const std::string& path) {
  return load_as(path, read_skeleton);
}

}  // namespace psk::archive
