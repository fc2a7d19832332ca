#include "netbase/time.hpp"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace zombiescope::netbase {

namespace {

constexpr bool is_leap(int year) {
  return (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
}

constexpr int days_in_month(int year, int month) {
  constexpr int kDays[] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  if (month == 2 && is_leap(year)) return 29;
  return kDays[month - 1];
}

// Days from 1970-01-01 to year-month-day, via the classic civil-days
// algorithm (Howard Hinnant's days_from_civil).
constexpr std::int64_t days_from_civil(int y, int m, int d) {
  y -= m <= 2;
  const std::int64_t era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);             // [0, 399]
  const unsigned doy = static_cast<unsigned>((153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;            // [0, 146096]
  return era * 146097 + static_cast<std::int64_t>(doe) - 719468;
}

// Inverse of days_from_civil (Howard Hinnant's civil_from_days).
constexpr void civil_from_days(std::int64_t z, int& y, int& m, int& d) {
  z += 719468;
  const std::int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const unsigned doe = static_cast<unsigned>(z - era * 146097);          // [0, 146096]
  const unsigned yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const std::int64_t yy = static_cast<std::int64_t>(yoe) + era * 400;
  const unsigned doy = doe - (365 * yoe + yoe / 4 - yoe / 100);          // [0, 365]
  const unsigned mp = (5 * doy + 2) / 153;                               // [0, 11]
  d = static_cast<int>(doy - (153 * mp + 2) / 5 + 1);
  m = static_cast<int>(mp + (mp < 10 ? 3 : -9));
  y = static_cast<int>(yy + (m <= 2));
}

}  // namespace

TimePoint from_civil(const CivilTime& c) {
  if (c.month < 1 || c.month > 12) throw std::invalid_argument("month out of range");
  if (c.day < 1 || c.day > days_in_month(c.year, c.month))
    throw std::invalid_argument("day out of range");
  if (c.hour < 0 || c.hour > 23 || c.minute < 0 || c.minute > 59 || c.second < 0 ||
      c.second > 59)
    throw std::invalid_argument("time of day out of range");
  return days_from_civil(c.year, c.month, c.day) * kDay + c.hour * kHour + c.minute * kMinute +
         c.second;
}

TimePoint utc(int year, int month, int day, int hour, int minute, int second) {
  return from_civil({year, month, day, hour, minute, second});
}

std::optional<TimePoint> parse_date(std::string_view text) {
  int field[3] = {0, 0, 0};
  const char* p = text.data();
  const char* const end = p + text.size();
  for (int i = 0; i < 3; ++i) {
    if (i > 0 && (p == end || *p++ != '-')) return std::nullopt;
    const auto [next, ec] = std::from_chars(p, end, field[i]);
    if (ec != std::errc{}) return std::nullopt;
    p = next;
  }
  if (p != end || field[1] < 1 || field[1] > 12 || field[2] < 1 ||
      field[2] > days_in_month(field[0], field[1]))
    return std::nullopt;
  return utc(field[0], field[1], field[2]);
}

CivilTime to_civil(TimePoint t) {
  std::int64_t days = t / kDay;
  std::int64_t rem = t % kDay;
  if (rem < 0) {
    rem += kDay;
    --days;
  }
  CivilTime c;
  civil_from_days(days, c.year, c.month, c.day);
  c.hour = static_cast<int>(rem / kHour);
  c.minute = static_cast<int>((rem % kHour) / kMinute);
  c.second = static_cast<int>(rem % kMinute);
  return c;
}

TimePoint start_of_month(TimePoint t) {
  CivilTime c = to_civil(t);
  return from_civil({c.year, c.month, 1, 0, 0, 0});
}

TimePoint start_of_day(TimePoint t) {
  CivilTime c = to_civil(t);
  return from_civil({c.year, c.month, c.day, 0, 0, 0});
}

std::string format_utc(TimePoint t) {
  CivilTime c = to_civil(t);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d %02d:%02d:%02d", c.year, c.month, c.day,
                c.hour, c.minute, c.second);
  return buf;
}

std::string format_date(TimePoint t) {
  CivilTime c = to_civil(t);
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
  return buf;
}

std::string format_duration(Duration d) {
  char buf[32];
  if (d < 0) return "-" + format_duration(-d);
  if (d < kMinute) {
    std::snprintf(buf, sizeof(buf), "%llds", static_cast<long long>(d));
  } else if (d < 3 * kHour) {
    std::snprintf(buf, sizeof(buf), "%lldm", static_cast<long long>(d / kMinute));
  } else if (d < 2 * kDay) {
    const double hours = static_cast<double>(d) / kHour;
    std::snprintf(buf, sizeof(buf), "%.1fh", hours);
  } else {
    const double days = static_cast<double>(d) / kDay;
    std::snprintf(buf, sizeof(buf), "%.1fd", days);
  }
  return buf;
}

}  // namespace zombiescope::netbase
