// End-to-end equivalence for the zslive service: replaying the
// longlived2024 scenario's update archives through the sharded live
// pipeline must produce exactly the zombie set the batch detector
// (zsdetect's LongLivedZombieDetector) finds over the same archives —
// independent of shard count and of replay pacing. This is the
// contract that makes the live daemon trustworthy: an operator watching
// /live/events sees the same outbreaks a forensic batch run would
// reconstruct later.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "live/feed.hpp"
#include "live/service.hpp"
#include "scenarios/longlived2024.hpp"
#include "zombie/longlived.hpp"
#include "zombie/noisy.hpp"
#include "zombie/state.hpp"

namespace zombiescope::live {
namespace {

using netbase::Prefix;
using netbase::TimePoint;
using zombie::PeerKey;

using PairSet = std::vector<std::pair<Prefix, PeerKey>>;

/// FNV-1a-64 of a string.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// The batch reference: every (prefix, peer) the LongLivedZombieDetector
/// reports stuck at withdrawal + threshold, deduplicated across
/// intervals — the same key space LiveService::emerged_pairs() uses.
PairSet batch_pairs(const scenarios::LongLived2024Output& out,
                    netbase::Duration threshold) {
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto result = detector.detect(out.updates, out.events, threshold);
  std::set<std::pair<Prefix, PeerKey>> merged;
  for (const auto& outbreak : result.outbreaks) {
    for (const auto& route : outbreak.routes) {
      merged.insert({outbreak.prefix, route.peer});
    }
  }
  return {merged.begin(), merged.end()};
}

PairSet live_pairs(const scenarios::LongLived2024Output& out,
                   netbase::Duration threshold, std::size_t shards,
                   double speed) {
  LiveConfig config;
  config.shards = shards;
  config.block_on_full = true;  // equivalence demands zero drops
  config.detector.threshold = threshold;
  LiveService service(config);
  service.start();
  for (const auto& event : out.events) service.expect(event);
  ReplayFeedSource feed(out.updates, speed);
  const auto stats = feed.run(service);
  EXPECT_EQ(stats.records, out.updates.size());
  service.finalize();
  EXPECT_EQ(service.drops(), 0u);
  EXPECT_EQ(service.processed(), service.submitted());
  auto pairs = service.emerged_pairs();
  service.stop();
  return pairs;
}

class LiveE2E : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenarios::LongLived2024Spec spec;
    output_ = new scenarios::LongLived2024Output(
        scenarios::run_longlived2024(spec));
  }
  static void TearDownTestSuite() {
    delete output_;
    output_ = nullptr;
  }

  static scenarios::LongLived2024Output* output_;
};

scenarios::LongLived2024Output* LiveE2E::output_ = nullptr;

TEST_F(LiveE2E, ReplayMatchesBatchDetectorExactly) {
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const auto batch = batch_pairs(*output_, threshold);
  ASSERT_FALSE(batch.empty()) << "scenario produced no zombies to compare";
  const auto live = live_pairs(*output_, threshold, 4, /*speed=*/0.0);
  EXPECT_EQ(live, batch);
}

TEST_F(LiveE2E, DeadlineTiesMatchBatchExactly) {
  // Seed 23's archive has a withdrawal stamped exactly at withdraw +
  // threshold, which batch counts as in time. Beacon deadlines and
  // announce times share quarter hours, so a shard releasing the next
  // beacon must not fire the tied deadline before that record.
  const auto seeded =
      scenarios::run_longlived2024(scenarios::LongLived2024Spec{.seed = 23});
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const auto batch = batch_pairs(seeded, threshold);
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(live_pairs(seeded, threshold, 2, /*speed=*/0.0), batch);
}

TEST_F(LiveE2E, ShardCountDoesNotChangeTheZombieSet) {
  const netbase::Duration threshold = 90 * netbase::kMinute;
  const auto one = live_pairs(*output_, threshold, 1, /*speed=*/0.0);
  const auto eight = live_pairs(*output_, threshold, 8, /*speed=*/0.0);
  EXPECT_EQ(one, eight);
  ASSERT_FALSE(one.empty());
}

TEST_F(LiveE2E, PacedReplayMatchesBatchOnTruncatedWindow) {
  // A paced replay of the full eleven-month archive would take hours;
  // pacing is a wall-clock behavior, so one beacon day exercises it
  // fully. Truncate records and events to the first day, pace the
  // replay so it takes a few wall seconds, and demand the same exact
  // set the batch detector computes over the truncated inputs.
  const netbase::Duration threshold = 90 * netbase::kMinute;
  TimePoint first = 0;
  for (const auto& event : output_->events) {
    if (first == 0 || event.announce_time < first) first = event.announce_time;
  }
  ASSERT_NE(first, 0);
  const TimePoint cutoff = first + netbase::kDay;

  scenarios::LongLived2024Output day;
  for (const auto& event : output_->events) {
    // Keep only events whose whole check window fits inside the day.
    if (event.withdraw_time + threshold < cutoff) day.events.push_back(event);
  }
  for (const auto& record : output_->updates) {
    if (mrt::record_timestamp(record) < cutoff) day.updates.push_back(record);
  }
  ASSERT_FALSE(day.events.empty());
  ASSERT_FALSE(day.updates.empty());

  const auto batch = batch_pairs(day, threshold);
  // One simulated day in ~3 wall seconds.
  const double speed = static_cast<double>(netbase::kDay) / 3.0;
  const auto paced = live_pairs(day, threshold, 4, speed);
  const auto flat_out = live_pairs(day, threshold, 4, /*speed=*/0.0);
  EXPECT_EQ(paced, flat_out);
  EXPECT_EQ(paced, batch);
}

TEST_F(LiveE2E, NoisyPeerSetMatchesBatchFilterExactly) {
  // The streaming classifier (PeerQAccumulator + PeerTableBuilder) must
  // converge, after finalize(), to the *exact* peer set the batch
  // statistics pass in zsdetect --filter-noisy computes: dedicated
  // detector run -> NoisyPeerFilter over (routes, tracker.peers(),
  // pass.total_announcements). Same floor, same median multiplier, same
  // universe, same denominator.
  const netbase::Duration threshold = 90 * netbase::kMinute;

  // Batch reference, mirroring the longlived branch of zsdetect's
  // statistics pass verbatim.
  zombie::StateTracker tracker;
  for (const auto& record : output_->updates) tracker.apply(record);
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto pass = detector.detect(output_->updates, output_->events, threshold);
  std::vector<zombie::ZombieRoute> routes;
  for (const auto& outbreak : pass.outbreaks)
    for (const auto& route : outbreak.routes) routes.push_back(route);
  const zombie::NoisyPeerFilter filter;
  const std::set<PeerKey> batch =
      filter.noisy_peer_keys(routes, tracker.peers(), pass.total_announcements);

  // Live side: replay flat-out, finalize (which runs the converge pass
  // that drops the streaming hysteresis), read the published table.
  LiveConfig config;
  config.shards = 4;
  config.block_on_full = true;
  config.detector.threshold = threshold;
  LiveService service(config);
  service.start();
  for (const auto& event : output_->events) service.expect(event);
  ReplayFeedSource feed(output_->updates, /*speed=*/0.0);
  const auto stats = feed.run(service);
  EXPECT_EQ(stats.records, output_->updates.size());
  service.finalize();
  EXPECT_EQ(service.drops(), 0u);

  const auto table = service.peers();
  ASSERT_NE(table, nullptr);
  // The denominator must line up exactly: closed beacon cycles ==
  // studied announcements of the batch pass.
  EXPECT_EQ(table->total_cycles,
            static_cast<std::uint64_t>(pass.total_announcements));
  // Same peer universe as StateTracker.
  EXPECT_EQ(table->rows.size(), tracker.peers().size());
  // And the headline claim: identical noisy sets.
  EXPECT_EQ(table->noisy_set(), batch);
  service.stop();
}

TEST_F(LiveE2E, PeerTableCountsMatchBatchStats) {
  // Beyond set equality, per-peer numerators must agree with the batch
  // PeerStats: stuck == zombie_routes for every tracked peer. The
  // digest of the whole /peers body pins every row's counters, its
  // probability, Wilson bounds and flags, the closed-cycle total and
  // the median.
  const netbase::Duration threshold = 90 * netbase::kMinute;

  zombie::StateTracker tracker;
  for (const auto& record : output_->updates) tracker.apply(record);
  zombie::LongLivedZombieDetector detector{zombie::LongLivedConfig{}};
  const auto pass = detector.detect(output_->updates, output_->events, threshold);
  std::vector<zombie::ZombieRoute> routes;
  for (const auto& outbreak : pass.outbreaks)
    for (const auto& route : outbreak.routes) routes.push_back(route);
  const zombie::NoisyPeerFilter filter;
  const auto stats =
      filter.stats(routes, tracker.peers(), pass.total_announcements);

  LiveConfig config;
  config.shards = 2;
  config.block_on_full = true;
  config.detector.threshold = threshold;
  LiveService service(config);
  service.start();
  for (const auto& event : output_->events) service.expect(event);
  ReplayFeedSource feed(output_->updates, /*speed=*/0.0);
  feed.run(service);
  service.finalize();
  EXPECT_EQ(service.drops(), 0u);

  const auto table = service.peers();
  ASSERT_NE(table, nullptr);
  for (const auto& ps : stats) {
    const PeerRow* row = table->find(ps.peer);
    ASSERT_NE(row, nullptr) << zombie::to_string(ps.peer);
    EXPECT_EQ(row->stuck, static_cast<std::uint64_t>(ps.zombie_routes))
        << zombie::to_string(ps.peer);
  }
  EXPECT_EQ(table->rows.size(), 46u);
  EXPECT_EQ(fnv1a(peer_table_json(*table, 0, false)), 0x03228316ef7e9103ull);
  service.stop();
}

}  // namespace
}  // namespace zombiescope::live
