#include "beacon/schedule.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace zombiescope::beacon {

using netbase::CivilTime;
using netbase::Prefix;
using netbase::TimePoint;

RisBeaconSchedule RisBeaconSchedule::classic() {
  std::vector<Prefix> prefixes;
  for (int i = 0; i < 13; ++i)
    prefixes.push_back(Prefix::parse("84.205." + std::to_string(64 + i) + ".0/24"));
  for (int i = 0; i < 14; ++i) {
    char buf[8];
    std::snprintf(buf, sizeof(buf), "fe%02x", i);
    prefixes.push_back(Prefix::parse("2001:7fb:" + std::string(buf) + "::/48"));
  }
  return RisBeaconSchedule(std::move(prefixes));
}

std::vector<BeaconEvent> RisBeaconSchedule::events(TimePoint start, TimePoint end) const {
  std::vector<BeaconEvent> out;
  // Announcements happen at 00:00, 04:00, ..., 20:00 UTC.
  TimePoint first = netbase::start_of_day(start);
  while (first < start) first += kPeriod;
  for (TimePoint t = first; t < end; t += kPeriod) {
    for (const auto& prefix : prefixes_) out.push_back({prefix, t, t + kUpTime, false});
  }
  return out;
}

LongLivedBeaconSchedule LongLivedBeaconSchedule::paper_deployment(Approach approach) {
  return LongLivedBeaconSchedule(approach, Prefix::parse("2a0d:3dc1::/32"));
}

Prefix LongLivedBeaconSchedule::prefix_for(TimePoint slot_time) const {
  if (slot_time % kSlot != 0)
    throw std::invalid_argument("beacon slot must be on a 15-minute boundary");
  const CivilTime c = netbase::to_civil(slot_time);

  std::uint16_t hextet = 0;
  if (approach_ == Approach::kDaily) {
    // "(HHMM)": the wall-clock digits, read as hexadecimal digits.
    hextet = static_cast<std::uint16_t>(((c.hour / 10) << 12) | ((c.hour % 10) << 8) |
                                        ((c.minute / 10) << 4) | (c.minute % 10));
  } else {
    // "(HH)(minute+day%15)": decimal renderings concatenated *without
    // padding*, then read as hex — the paper's footnote-3 bug: on some
    // days two slots collide (e.g. 2024-06-15 00:30 and 03:00 both map
    // to 2a0d:3dc1:30::/48).
    const int suffix = c.minute + c.day % 15;
    const std::string text = std::to_string(c.hour) + std::to_string(suffix);
    std::uint16_t value = 0;
    for (char ch : text) value = static_cast<std::uint16_t>(value * 16 + (ch - '0'));
    hextet = value;
  }

  auto bytes = covering_.address().bytes();
  bytes[4] = static_cast<std::uint8_t>(hextet >> 8);
  bytes[5] = static_cast<std::uint8_t>(hextet & 0xff);
  return Prefix(netbase::IpAddress::v6(bytes), 48);
}

std::vector<BeaconEvent> LongLivedBeaconSchedule::events(TimePoint start, TimePoint end) const {
  std::vector<BeaconEvent> out;
  TimePoint first = start;
  if (first % kSlot != 0) first += kSlot - (first % kSlot);
  for (TimePoint t = first; t < end; t += kSlot)
    out.push_back({prefix_for(t), t, t + kUpTime, false});

  if (approach_ == Approach::kFifteenDay) {
    // Same-day collisions: the paper studies only the latter slot.
    std::map<std::pair<TimePoint, Prefix>, std::size_t> last_index;
    for (std::size_t i = 0; i < out.size(); ++i) {
      const auto key = std::make_pair(netbase::start_of_day(out[i].announce_time),
                                      out[i].prefix);
      auto it = last_index.find(key);
      if (it != last_index.end()) {
        out[it->second].superseded = true;
        it->second = i;
      } else {
        last_index.emplace(key, i);
      }
    }
  }
  return out;
}

std::optional<std::vector<BeaconEvent>> schedule_events(std::string_view name, TimePoint start,
                                                        TimePoint end) {
  using Approach = LongLivedBeaconSchedule::Approach;
  if (name == "ris") return RisBeaconSchedule::classic().events(start, end);
  if (name == "daily")
    return LongLivedBeaconSchedule::paper_deployment(Approach::kDaily).events(start, end);
  if (name == "fifteen")
    return LongLivedBeaconSchedule::paper_deployment(Approach::kFifteenDay).events(start, end);
  return std::nullopt;
}

}  // namespace zombiescope::beacon
