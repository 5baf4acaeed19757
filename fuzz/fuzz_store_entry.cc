// libFuzzer harness for the blob-store entry codec (cache/store.h,
// PSKBLOB1 framing), the one disk format of both the result cache and the
// skeleton store.
//
// An entry file is the one artifact pskd and every cached sweep both write
// and later re-read across restarts, so its decoder faces bytes that
// survived crashes, torn writes and bit rot.  Invariants checked beyond
// "does not crash":
//   - accepted bytes are canonical: re-encoding the decoded entry
//     reproduces the input exactly (there is only one valid encoding of a
//     (key, value) pair, so no mutation can alias another entry), whether
//     the entry is keyed (a result) or content-addressed (a skeleton, with
//     an empty value),
//   - rejected bytes carry a typed error (Result-based API, no throws).
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <string_view>

#include "archive/wire.h"
#include "cache/store.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view bytes(reinterpret_cast<const char*>(data), size);
  try {
    const psk::archive::Result<psk::cache::Blob> decoded =
        psk::cache::decode_entry(bytes);
    if (decoded.ok()) {
      const psk::cache::Blob& blob = decoded.value();
      if (psk::cache::encode_entry(blob.key, blob.value) != bytes) {
        std::abort();  // accepted bytes must be the canonical encoding
      }
    } else if (decoded.error().render().empty()) {
      std::abort();  // a rejection must say why
    }
  } catch (const psk::Error&) {
    // Result-based API; an Error here is tolerated but unexpected.
  }
  return 0;
}
