// Hot-skeleton store: the server-side half of predict-by-hash reuse.  Every
// skeleton that enters the service is re-encoded to its canonical PSKARCH1
// container and put() into the content-addressed blob store
// (cache/store.h) under archive::fingerprint64 of those bytes, so clients
// can name it by hash instead of re-sending it.  A miss is answered
// StatusCode::kNotFound.
#pragma once

#include "cache/store.h"

namespace psk::svc {

using SkeletonStore = cache::BlobStore;

}  // namespace psk::svc
