// libFuzzer harness for the PSKARCH1 container and payload codecs.
//
// Exercises the full untrusted-bytes surface: frame parsing (magic,
// versions, size, checksum), the strict payload decoders, the prefix
// decoders, and the salvage layer on top of them (its hand-parsed header
// probe included).  The archive API reports errors through Result, so
// nothing here should throw at all; the prefix decoders additionally
// promise to never fail on mere truncation, which makes every mutated frame
// a meaningful input for them.  Whatever decodes or salvages is run through
// the guard validators, so their recursive walks see fuzzer-shaped loop
// nests as well.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "archive/archive.h"
#include "archive/codec.h"
#include "guard/salvage.h"
#include "guard/validate.h"
#include "util/error.h"

namespace {

template <typename T, typename Validate>
void check(const psk::archive::Result<T>& value, Validate validate) {
  if (value.ok()) (void)validate(value.value()).render();
}

void decode_payload(psk::archive::PayloadKind kind, std::string_view payload,
                    std::uint32_t version) {
  using psk::archive::PayloadKind;
  psk::archive::PrefixStats stats;
  switch (kind) {
    case PayloadKind::kTrace:
      check(psk::archive::decode_trace(payload, version),
            psk::guard::validate_trace);
      (void)psk::archive::decode_trace_prefix(payload, version, stats);
      break;
    case PayloadKind::kSignature:
      check(psk::archive::decode_signature(payload, version),
            psk::guard::validate_signature);
      (void)psk::archive::decode_signature_prefix(payload, version, stats);
      break;
    case PayloadKind::kSkeleton:
      check(psk::archive::decode_skeleton(payload, version),
            psk::guard::validate_skeleton);
      (void)psk::archive::decode_skeleton_prefix(payload, version, stats);
      break;
  }
}

template <typename T, typename Validate>
void salvaged(const std::optional<T>& value,
              const psk::guard::SalvageReport& report, Validate validate) {
  (void)report.render();
  if (value) (void)validate(*value).render();
}

/// Salvage of the same bytes as each payload kind: it must recover, refuse
/// or throw psk::Error -- never crash.
void salvage_all(const std::string& bytes) {
  psk::guard::SalvageReport report;
  salvaged(psk::guard::salvage_trace_bytes(bytes, report), report,
           psk::guard::validate_trace);
  salvaged(psk::guard::salvage_signature_bytes(bytes, report), report,
           psk::guard::validate_signature);
  salvaged(psk::guard::salvage_skeleton_bytes(bytes, report), report,
           psk::guard::validate_skeleton);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  try {
    (void)psk::archive::looks_like_archive(bytes);
    psk::archive::Result<psk::archive::Frame> frame =
        psk::archive::read_frame(bytes);
    if (frame.ok()) {
      const psk::archive::Frame f = frame.take();
      decode_payload(f.kind, f.payload, f.payload_version);
    }
    // The decoders also accept raw payload bytes (the salvage layer hands
    // them clamped slices of damaged files), so feed the whole input as a
    // bare payload of every kind too.
    decode_payload(psk::archive::PayloadKind::kTrace, bytes, 1);
    decode_payload(psk::archive::PayloadKind::kSignature, bytes, 1);
    decode_payload(psk::archive::PayloadKind::kSkeleton, bytes, 1);
    salvage_all(std::string(bytes));
  } catch (const psk::Error&) {
    // Result-based API; an Error here is tolerated but unexpected.
  }
  return 0;
}
