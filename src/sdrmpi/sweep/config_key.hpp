// Canonical RunConfig serialization and content-address digest.
//
// The sweep service caches RunResults by the 64-bit digest of the config
// that produced them. Caching is *sound* because every run is bit-identical
// for any pool/shard layout (the repo's standing determinism invariant):
// re-running a config can never produce a different answer, so a stored
// result is as good as a fresh one.
//
// That soundness argument leans on one contract, pinned by
// sweep_service_test: two RunConfigs produce the same canonical byte
// string iff they are == (field-wise, via RunConfig::operator==). Every
// field that can move a run's outcome — protocol, replication, the full
// network cost model and topology, collective tuning incl. Auto
// thresholds, fault/SDC schedules, ablation knobs, time limit, seed — is
// serialized explicitly in a fixed order with fixed-width little-endian
// encoding (doubles by IEEE bit pattern, vectors length-prefixed).
// Adding a RunConfig field means extending serialize_config AND bumping
// kConfigKeyVersion, which invalidates existing stores instead of
// silently aliasing old entries.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "sdrmpi/core/run_config.hpp"

namespace sdrmpi::sweep {

/// Version byte folded into every canonical serialization (and therefore
/// every digest). Bump on any format or semantic change (v4 dropped the
/// ckpt verify mode and the per-run fiber stack size).
inline constexpr std::uint8_t kConfigKeyVersion = 4;

/// The canonical byte string of a config: equal iff the configs are ==.
[[nodiscard]] std::vector<std::byte> serialize_config(
    const core::RunConfig& cfg);

/// Inverse of serialize_config: deserialize(serialize(c)) == c for every
/// field (doubles by IEEE bit pattern, so the round trip is exact). The
/// remote worker protocol ships configs as canonical bytes — a dispatched
/// point simulates from a config bit-identical to the coordinator's, which
/// is what makes remote execution invisible in results. Throws CodecError
/// (result_codec.hpp) on truncation, trailing bytes, or a version byte
/// other than kConfigKeyVersion.
[[nodiscard]] core::RunConfig deserialize_config(
    std::span<const std::byte> bytes);

/// FNV-1a digest of serialize_config(cfg): the content address under
/// which the sweep service stores and deduplicates this config's result.
[[nodiscard]] std::uint64_t config_key(const core::RunConfig& cfg);

/// Content address of (config, application): the digest above continued
/// over the point's app-spec string. A RunConfig does not identify the
/// program that ran under it — two sweep points with byte-identical
/// configs but different workloads ("cg" vs "ft") are different
/// experiments, and keying on the config alone silently served one the
/// other's result. An empty spec degenerates to config_key(cfg).
[[nodiscard]] std::uint64_t config_key(const core::RunConfig& cfg,
                                       std::string_view app_spec);

}  // namespace sdrmpi::sweep
