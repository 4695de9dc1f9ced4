// Full round-trip serialization of core::RunResult for sweep-service
// persistence: every SlotResult (with its values map), ProtocolStats,
// FabricStats, MemStats and the error list, coded by the codec.hpp rule
// through one field list per struct (result_codec.cpp).
// decode(encode(r)) round-trips every field exactly (MemStats is carried
// too, even though RunResult::operator== ignores it); sweep_service_test
// pins this for fuzzed results and pins the encoded bytes, and the
// persistent ResultStore stores nothing else.
//
// Adding a field means adding it to its struct's list AND bumping
// kResultCodecVersion, so stores written before the change are rejected
// on open instead of misread.
//
// Serialization happens only at run boundaries (cache lookup before a
// simulation, store append after one) — the zero-allocation hot path
// never sees these types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sdrmpi/core/run_config.hpp"
#include "sdrmpi/sweep/codec.hpp"

namespace sdrmpi::sweep {

/// Bump when the result wire format changes; stores with a different
/// version are rejected on open (a stale cache is discarded, never
/// misread).
/// v3: MemStats. v4: bytes_copied counts payload copies only (frame
/// headers no longer pass through a host buffer), so a v3 result's count
/// means something else.
inline constexpr std::uint32_t kResultCodecVersion = 4;

/// Serializes a full RunResult (version-tagged).
[[nodiscard]] std::vector<std::byte> encode_result(const core::RunResult& r);

/// Inverse of encode_result; throws CodecError on malformed/truncated
/// input or a version mismatch.
[[nodiscard]] core::RunResult decode_result(std::span<const std::byte> bytes);

}  // namespace sdrmpi::sweep
