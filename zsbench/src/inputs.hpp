// zsbench/src/inputs.hpp — seeded input generation, kept apart from
// the measured program.
//
// zsbench_gen turns a seed into an Archive: the longlived2024 scenario
// run with that seed, encoded to MRT bytes exactly as a collector
// would archive it, plus the beacon schedule and the wire sessions the
// wire_replay workload replays. zsbench only ever sees these files, so
// the seed cannot leak into what is measured.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "beacon/schedule.hpp"
#include "zombie/types.hpp"

namespace zsbench {

/// The scenario's default seed; its 90-minute batch zombie set is the
/// paper reproduction's 604 ⟨prefix, peer⟩ pairs.
inline constexpr std::uint64_t kDefaultSeed = 20240604;
inline constexpr std::size_t kDefaultSeedPairs = 604;

/// wire_replay replays at most this many peer sessions (one load
/// generator connection per core of a 4-core box).
inline constexpr std::size_t kMaxWireSessions = 4;

struct Archive {
  std::vector<std::uint8_t> updates_mrt;  // BGP4MP update archive
  std::vector<std::uint8_t> ribs_mrt;     // TABLE_DUMP_V2 RIB dumps
  std::vector<zombiescope::beacon::BeaconEvent> events;
  /// Peer sessions wire_replay replays: the seed's sessions with the
  /// largest batch zombie sets.
  std::vector<zombiescope::zombie::PeerKey> wire_peers;
  /// Expected 90-minute batch pair count, 0 when the seed has no
  /// pinned value.
  std::size_t pinned_pairs = 0;
};

/// Runs the scenario for `seed` and encodes its outputs.
Archive generate_archive(std::uint64_t seed);

/// File layout under `dir`: updates.mrt, ribs.mrt, events.txt,
/// manifest.txt. Both throw std::runtime_error on I/O or format errors.
void write_archive(const Archive& archive, const std::string& dir);
Archive read_archive(const std::string& dir);

/// Whole-file helpers shared with the batch workload.
void write_bytes(const std::string& path, const std::vector<std::uint8_t>& bytes);
std::vector<std::uint8_t> read_bytes(const std::string& path);

}  // namespace zsbench
