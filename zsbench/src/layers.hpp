// zsbench/src/layers.hpp — the layer-alone passes of a traced run.
//
// Each pass pushes the whole seeded archive through one layer with
// nothing else running, and reports that layer's cost per record or
// message: MRT decode, the BGP UPDATE codec, the wire framing codec,
// and a single-threaded RealTimeZombieDetector (the baseline the
// sharded live service is measured against).

#pragma once

#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace zsbench {

/// Adds the layer values to `out` (plus "zombie.realtime_sharded_total_s",
/// the detector time of the live shards' partitions run one after the
/// other) and any output mismatch to `errors`.
void run_layer_passes(const Inputs& in, std::map<std::string, double>& out,
                      std::vector<std::string>& errors);

}  // namespace zsbench
