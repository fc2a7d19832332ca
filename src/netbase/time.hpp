// netbase/time.hpp — simulation time and UTC calendar helpers.
//
// The whole library runs on a single monotonic simulated clock counted
// in seconds since the Unix epoch (UTC). MRT timestamps, beacon
// schedules, the Aggregator clock, and the prefix BGP-clocks all need
// civil-time decomposition, which std::chrono in libstdc++ 12 supports
// but verbosely; these helpers keep call sites small and explicit.

#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace zombiescope::netbase {

/// Seconds since the Unix epoch (UTC). Signed: durations and
/// differences are first-class.
using TimePoint = std::int64_t;
using Duration = std::int64_t;

inline constexpr Duration kSecond = 1;
inline constexpr Duration kMinute = 60;
inline constexpr Duration kHour = 3600;
inline constexpr Duration kDay = 86400;

/// A broken-down UTC civil time.
struct CivilTime {
  int year = 1970;
  int month = 1;   // 1..12
  int day = 1;     // 1..31
  int hour = 0;    // 0..23
  int minute = 0;  // 0..59
  int second = 0;  // 0..59

  friend auto operator<=>(const CivilTime&, const CivilTime&) = default;
};

/// Converts a civil UTC time to seconds since the epoch.
/// Throws std::invalid_argument for out-of-range fields.
TimePoint from_civil(const CivilTime& civil);

/// Convenience: from_civil({y, m, d, hh, mm, ss}).
TimePoint utc(int year, int month, int day, int hour = 0, int minute = 0, int second = 0);

/// Parses a command-line date "YYYY-MM-DD" as midnight UTC. nullopt
/// for trailing text, a month outside 1-12 or a day outside its month.
std::optional<TimePoint> parse_date(std::string_view text);

/// Converts seconds since the epoch to broken-down UTC time.
CivilTime to_civil(TimePoint t);

/// The instant of midnight UTC on the first day of t's month — the
/// reference point of the RIS beacon Aggregator clock.
TimePoint start_of_month(TimePoint t);

/// Midnight UTC of t's day.
TimePoint start_of_day(TimePoint t);

/// "2024-06-21 19:49:00" (UTC, fixed width).
std::string format_utc(TimePoint t);

/// "2024-06-21" (UTC date only).
std::string format_date(TimePoint t);

/// Formats a duration compactly: "90m", "3h", "4.5d", "262d".
std::string format_duration(Duration d);

}  // namespace zombiescope::netbase
