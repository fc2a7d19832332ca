// zsbench_gen — writes the seeded inputs of one benchmark run.
//
//   zsbench_gen --seed N --out DIR
//
// Runs the longlived2024 scenario with seed N and writes the archive
// bytes, the beacon schedule and the wire_replay sessions to DIR (see
// inputs.hpp). Same seed, byte-identical files.

#include <cstdio>
#include <exception>
#include <string>

#include "inputs.hpp"

int main(int argc, char** argv) {
  std::string out;
  std::uint64_t seed = zsbench::kDefaultSeed;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--seed") {
      seed = std::stoull(argv[i + 1]);
    } else if (arg == "--out") {
      out = argv[i + 1];
    } else {
      out.clear();
      break;
    }
  }
  if (out.empty()) {
    std::fprintf(stderr, "usage: %s --seed N --out DIR\n", argv[0]);
    return 2;
  }
  try {
    const zsbench::Archive archive = zsbench::generate_archive(seed);
    zsbench::write_archive(archive, out);
    std::fprintf(stderr, "zsbench_gen: seed %llu -> %zu update bytes, %zu rib bytes, "
                         "%zu events, %zu wire sessions\n",
                 static_cast<unsigned long long>(seed), archive.updates_mrt.size(),
                 archive.ribs_mrt.size(), archive.events.size(),
                 archive.wire_peers.size());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zsbench_gen: %s\n", e.what());
    return 1;
  }
  return 0;
}
