// Tests for the beacon schedules and the two BGP clock encodings,
// pinned against concrete examples from the paper.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "beacon/clock.hpp"
#include "beacon/schedule.hpp"

namespace zombiescope::beacon {
namespace {

using netbase::IpAddress;
using netbase::kDay;
using netbase::kHour;
using netbase::kMinute;
using netbase::Prefix;
using netbase::utc;

TEST(AggregatorClock, PaperExampleDecodes) {
  // §3.1: Aggregator 10.19.29.192 observed at 2018-07-19 02:00:02
  // decodes to 2018-07-15 12:00 UTC (best case).
  const auto decoded = decode_aggregator_clock(IpAddress::parse("10.19.29.192"),
                                               utc(2018, 7, 19, 2, 0, 2));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, utc(2018, 7, 15, 12, 0, 0));
}

TEST(AggregatorClock, EncodeMatchesPaperExample) {
  EXPECT_EQ(encode_aggregator_clock(utc(2018, 7, 15, 12, 0, 0)).to_string(), "10.19.29.192");
}

TEST(AggregatorClock, RoundTripWithinMonth) {
  for (int day = 1; day <= 28; day += 3) {
    for (int hour = 0; hour < 24; hour += 4) {
      const auto t = utc(2024, 6, day, hour, 0, 0);
      const auto decoded = decode_aggregator_clock(encode_aggregator_clock(t), t + kHour);
      ASSERT_TRUE(decoded.has_value());
      EXPECT_EQ(*decoded, t);
    }
  }
}

TEST(AggregatorClock, MonthRolloverPicksPreviousMonth) {
  // Announced June 30 23:00, observed July 1 06:00: the clock value is
  // larger than the seconds elapsed in July, so the decoder must fall
  // back to June (the paper's footnote-1 ambiguity resolution).
  const auto announced = utc(2024, 6, 30, 23, 0, 0);
  const auto decoded =
      decode_aggregator_clock(encode_aggregator_clock(announced), utc(2024, 7, 1, 6, 0, 0));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, announced);
}

TEST(AggregatorClock, AmbiguityResolvesToLatestCandidate) {
  // A clock value of 0 observed mid-month decodes to this month's
  // start, not an earlier month.
  const auto decoded = decode_aggregator_clock(encode_aggregator_clock(utc(2024, 6, 1)),
                                               utc(2024, 6, 15));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, utc(2024, 6, 1));
}

TEST(AggregatorClock, RejectsNonClockAddresses) {
  EXPECT_FALSE(decode_aggregator_clock(IpAddress::parse("193.0.0.1"), utc(2024, 6, 1))
                   .has_value());
  EXPECT_FALSE(decode_aggregator_clock(IpAddress::parse("2001:db8::1"), utc(2024, 6, 1))
                   .has_value());
}

TEST(AggregatorClock, AttributeCarriesOriginAsn) {
  const auto agg = make_beacon_aggregator(12654, utc(2018, 7, 15, 12, 0, 0));
  EXPECT_EQ(agg.asn, 12654u);
  EXPECT_EQ(agg.address.to_string(), "10.19.29.192");
}

TEST(RisSchedule, ClassicBeaconSet) {
  const auto schedule = RisBeaconSchedule::classic();
  int v4 = 0, v6 = 0;
  for (const auto& p : schedule.prefixes()) (p.is_v4() ? v4 : v6)++;
  EXPECT_EQ(v4, 13);  // the paper: "14 IPv6 and 13 IPv4 prefixes"
  EXPECT_EQ(v6, 14);
}

TEST(RisSchedule, FourHourCycleTwoHourUptime) {
  const auto schedule = RisBeaconSchedule::classic();
  const auto events = schedule.events(utc(2018, 7, 19), utc(2018, 7, 20));
  // 6 intervals per day x 27 prefixes.
  EXPECT_EQ(events.size(), 6u * 27u);
  for (const auto& e : events) {
    EXPECT_EQ((e.announce_time - utc(2018, 7, 19)) % (4 * kHour), 0);
    EXPECT_EQ(e.withdraw_time - e.announce_time, 2 * kHour);
    EXPECT_FALSE(e.superseded);
  }
}

TEST(RisSchedule, WindowClipsToStart) {
  const auto schedule = RisBeaconSchedule::classic();
  const auto events = schedule.events(utc(2018, 7, 19, 1, 0, 0), utc(2018, 7, 19, 9, 0, 0));
  // Announcements at 04:00 and 08:00 only.
  std::set<netbase::TimePoint> times;
  for (const auto& e : events) times.insert(e.announce_time);
  EXPECT_EQ(times, (std::set<netbase::TimePoint>{utc(2018, 7, 19, 4, 0, 0),
                                                 utc(2018, 7, 19, 8, 0, 0)}));
}

TEST(LongLivedSchedule, DailyPrefixClockMatchesPaperFormat) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kDaily);
  // First experiment started 2024-06-04 11:45 UTC.
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 4, 11, 45, 0)).to_string(),
            "2a0d:3dc1:1145::/48");
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 5, 0, 0, 0)).to_string(), "2a0d:3dc1::/48");
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 5, 23, 45, 0)).to_string(),
            "2a0d:3dc1:2345::/48");
  // The paper's resurrected prefix 2a0d:3dc1:1851::/48 is the 18:51
  // slot? No — slots are on :00/:15/:30/:45; 1851 is not a slot form.
  // It can only come from the 15-day format (hour 18, minute+day 51).
}

TEST(LongLivedSchedule, DailyRecyclesEvery24Hours) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kDaily);
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 4, 12, 0, 0)),
            schedule.prefix_for(utc(2024, 6, 5, 12, 0, 0)));
  EXPECT_NE(schedule.prefix_for(utc(2024, 6, 4, 12, 0, 0)),
            schedule.prefix_for(utc(2024, 6, 4, 12, 15, 0)));
}

TEST(LongLivedSchedule, NinetySixDistinctPrefixesPerDay) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kDaily);
  std::set<Prefix> prefixes;
  for (netbase::TimePoint t = utc(2024, 6, 5); t < utc(2024, 6, 6); t += 15 * kMinute)
    prefixes.insert(schedule.prefix_for(t));
  EXPECT_EQ(prefixes.size(), 96u);
}

TEST(LongLivedSchedule, FifteenDayFormatPaperCollision) {
  // Footnote 3: on 2024-06-15 the 00:30 and 03:00 prefixes are both
  // 2a0d:3dc1:30::/48.
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kFifteenDay);
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 15, 0, 30, 0)).to_string(),
            "2a0d:3dc1:30::/48");
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 15, 3, 0, 0)).to_string(),
            "2a0d:3dc1:30::/48");
}

TEST(LongLivedSchedule, FifteenDayRecycle) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kFifteenDay);
  const auto t = utc(2024, 6, 10, 11, 30, 0);
  EXPECT_EQ(schedule.prefix_for(t), schedule.prefix_for(t + 15 * kDay));
  EXPECT_NE(schedule.prefix_for(t), schedule.prefix_for(t + kDay));
}

TEST(LongLivedSchedule, ResurrectedPrefixComesFromFifteenDayFormat) {
  // 2a0d:3dc1:1851::/48 = hour 18, minute+day%15 = 51; e.g. day 21
  // (21%15=6) minute 45 -> "18"+"51". The second experiment covered
  // 2024-06-21 18:45.
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kFifteenDay);
  EXPECT_EQ(schedule.prefix_for(utc(2024, 6, 21, 18, 45, 0)).to_string(),
            "2a0d:3dc1:1851::/48");
}

TEST(LongLivedSchedule, EventsMarkSupersededOnCollisionDays) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kFifteenDay);
  const auto events = schedule.events(utc(2024, 6, 15), utc(2024, 6, 16));
  EXPECT_EQ(events.size(), 96u);
  int superseded = 0;
  std::map<Prefix, int> final_count;
  for (const auto& e : events) {
    if (e.superseded)
      ++superseded;
    else
      final_count[e.prefix]++;
  }
  EXPECT_GT(superseded, 0);  // the bug manifests on day 15
  for (const auto& [prefix, count] : final_count)
    EXPECT_EQ(count, 1) << prefix.to_string() << " studied more than once";
}

TEST(LongLivedSchedule, EventsQuarterHourAligned) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kDaily);
  const auto events = schedule.events(utc(2024, 6, 4, 11, 45, 0), utc(2024, 6, 4, 13, 0, 0));
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events.front().announce_time, utc(2024, 6, 4, 11, 45, 0));
  for (const auto& e : events) {
    EXPECT_EQ(e.announce_time % (15 * kMinute), 0);
    EXPECT_EQ(e.withdraw_time - e.announce_time, 15 * kMinute);
  }
}

TEST(LongLivedSchedule, RejectsOffSlotQuery) {
  const auto schedule = LongLivedBeaconSchedule::paper_deployment(
      LongLivedBeaconSchedule::Approach::kDaily);
  EXPECT_THROW(schedule.prefix_for(utc(2024, 6, 4, 11, 44, 0)), std::invalid_argument);
}

TEST(NamedSchedule, EachNameMapsToItsSchedule) {
  using Approach = LongLivedBeaconSchedule::Approach;
  const auto start = utc(2024, 6, 10);
  const auto end = utc(2024, 6, 12);
  const auto same = [](const std::vector<BeaconEvent>& a, const std::vector<BeaconEvent>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].prefix != b[i].prefix || a[i].announce_time != b[i].announce_time ||
          a[i].withdraw_time != b[i].withdraw_time || a[i].superseded != b[i].superseded)
        return false;
    }
    return true;
  };
  const auto ris = schedule_events("ris", start, end);
  const auto daily = schedule_events("daily", start, end);
  const auto fifteen = schedule_events("fifteen", start, end);
  ASSERT_TRUE(ris.has_value() && daily.has_value() && fifteen.has_value());
  EXPECT_TRUE(same(*ris, RisBeaconSchedule::classic().events(start, end)));
  EXPECT_TRUE(same(*daily, LongLivedBeaconSchedule::paper_deployment(Approach::kDaily)
                               .events(start, end)));
  EXPECT_TRUE(same(*fifteen, LongLivedBeaconSchedule::paper_deployment(Approach::kFifteenDay)
                                 .events(start, end)));
  EXPECT_FALSE(same(*daily, *fifteen));
}

TEST(NamedSchedule, RefusesUnknownName) {
  EXPECT_FALSE(schedule_events("weekly", utc(2024, 6, 10), utc(2024, 6, 12)).has_value());
  EXPECT_FALSE(schedule_events("", utc(2024, 6, 10), utc(2024, 6, 12)).has_value());
}

}  // namespace
}  // namespace zombiescope::beacon
