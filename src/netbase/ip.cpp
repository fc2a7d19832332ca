#include "netbase/ip.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <vector>

namespace zombiescope::netbase {

namespace {

// FNV-1a over a byte range; good enough for hash-map keys.
std::size_t fnv1a(const std::uint8_t* data, std::size_t n, std::size_t seed) {
  std::size_t h = seed ^ 14695981039346656037ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 1099511628211ULL;
  }
  return h;
}

std::optional<int> parse_decimal(std::string_view text, int max_value) {
  if (text.empty() || text.size() > 3) return std::nullopt;
  int value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + (c - '0');
  }
  // Reject leading zeros like "01" (ambiguous octal in some parsers).
  if (text.size() > 1 && text.front() == '0') return std::nullopt;
  if (value > max_value) return std::nullopt;
  return value;
}

std::optional<std::array<std::uint8_t, 4>> parse_v4_bytes(std::string_view text) {
  std::array<std::uint8_t, 4> out{};
  int part = 0;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == '.') {
      if (part >= 4) return std::nullopt;
      auto value = parse_decimal(text.substr(start, i - start), 255);
      if (!value) return std::nullopt;
      out[static_cast<std::size_t>(part++)] = static_cast<std::uint8_t>(*value);
      start = i + 1;
    }
  }
  if (part != 4) return std::nullopt;
  return out;
}

std::optional<int> parse_hextet(std::string_view text) {
  if (text.empty() || text.size() > 4) return std::nullopt;
  int value = 0;
  for (char c : text) {
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return std::nullopt;
    value = value * 16 + digit;
  }
  return value;
}

std::optional<std::array<std::uint8_t, 16>> parse_v6_bytes(std::string_view text) {
  // Split on "::" first; each side is a list of hextets, and the right
  // side may end with an embedded IPv4 dotted quad.
  std::size_t gap = text.find("::");
  std::string_view left = (gap == std::string_view::npos) ? text : text.substr(0, gap);
  std::string_view right =
      (gap == std::string_view::npos) ? std::string_view{} : text.substr(gap + 2);
  if (gap != std::string_view::npos && right.find("::") != std::string_view::npos)
    return std::nullopt;  // more than one "::"

  auto split_groups = [](std::string_view s) -> std::optional<std::vector<std::string_view>> {
    std::vector<std::string_view> groups;
    if (s.empty()) return groups;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
      if (i == s.size() || s[i] == ':') {
        if (i == start) return std::nullopt;  // empty group, e.g. ":::" or leading ":"
        groups.push_back(s.substr(start, i - start));
        start = i + 1;
      }
    }
    return groups;
  };

  auto left_groups = split_groups(left);
  auto right_groups = split_groups(right);
  if (!left_groups || !right_groups) return std::nullopt;

  // Expand a possible trailing embedded IPv4 address into two hextets.
  std::vector<int> head;
  std::vector<int> tail;
  auto expand = [](const std::vector<std::string_view>& groups,
                   std::vector<int>& out) -> bool {
    for (std::size_t i = 0; i < groups.size(); ++i) {
      if (groups[i].find('.') != std::string_view::npos) {
        if (i + 1 != groups.size()) return false;  // v4 part must be last
        auto v4 = parse_v4_bytes(groups[i]);
        if (!v4) return false;
        out.push_back(((*v4)[0] << 8) | (*v4)[1]);
        out.push_back(((*v4)[2] << 8) | (*v4)[3]);
      } else {
        auto h = parse_hextet(groups[i]);
        if (!h) return false;
        out.push_back(*h);
      }
    }
    return true;
  };
  if (!expand(*left_groups, head)) return std::nullopt;
  if (!expand(*right_groups, tail)) return std::nullopt;

  std::size_t total = head.size() + tail.size();
  if (gap == std::string_view::npos) {
    if (total != 8) return std::nullopt;
  } else {
    if (total > 7) return std::nullopt;  // "::" must compress >= 1 group
  }

  std::array<std::uint8_t, 16> bytes{};
  std::size_t pos = 0;
  for (int h : head) {
    bytes[pos++] = static_cast<std::uint8_t>(h >> 8);
    bytes[pos++] = static_cast<std::uint8_t>(h & 0xff);
  }
  pos = 16 - tail.size() * 2;
  for (int h : tail) {
    bytes[pos++] = static_cast<std::uint8_t>(h >> 8);
    bytes[pos++] = static_cast<std::uint8_t>(h & 0xff);
  }
  return bytes;
}

}  // namespace

std::string_view to_string(AddressFamily family) {
  return family == AddressFamily::kIpv4 ? "IPv4" : "IPv6";
}

IpAddress IpAddress::v4(std::array<std::uint8_t, 4> bytes) {
  IpAddress a;
  a.family_ = AddressFamily::kIpv4;
  std::copy(bytes.begin(), bytes.end(), a.bytes_.begin());
  return a;
}

IpAddress IpAddress::v4(std::uint32_t host_order) {
  return v4({static_cast<std::uint8_t>(host_order >> 24),
             static_cast<std::uint8_t>(host_order >> 16),
             static_cast<std::uint8_t>(host_order >> 8),
             static_cast<std::uint8_t>(host_order)});
}

IpAddress IpAddress::v6(const std::array<std::uint8_t, 16>& bytes) {
  IpAddress a;
  a.family_ = AddressFamily::kIpv6;
  a.bytes_ = bytes;
  return a;
}

IpAddress IpAddress::v6(const std::array<std::uint16_t, 8>& hextets) {
  std::array<std::uint8_t, 16> bytes{};
  for (std::size_t i = 0; i < 8; ++i) {
    bytes[i * 2] = static_cast<std::uint8_t>(hextets[i] >> 8);
    bytes[i * 2 + 1] = static_cast<std::uint8_t>(hextets[i] & 0xff);
  }
  return v6(bytes);
}

std::optional<IpAddress> IpAddress::try_parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) {
    auto bytes = parse_v6_bytes(text);
    if (!bytes) return std::nullopt;
    return v6(*bytes);
  }
  auto bytes = parse_v4_bytes(text);
  if (!bytes) return std::nullopt;
  return v4(*bytes);
}

IpAddress IpAddress::parse(std::string_view text) {
  auto a = try_parse(text);
  if (!a) throw std::invalid_argument("invalid IP address: " + std::string(text));
  return *a;
}

bool IpAddress::bit(int index) const {
  const auto byte = static_cast<std::size_t>(index / 8);
  const int shift = 7 - (index % 8);
  return (bytes_[byte] >> shift) & 1;
}

std::uint32_t IpAddress::v4_value() const {
  return (static_cast<std::uint32_t>(bytes_[0]) << 24) |
         (static_cast<std::uint32_t>(bytes_[1]) << 16) |
         (static_cast<std::uint32_t>(bytes_[2]) << 8) |
         static_cast<std::uint32_t>(bytes_[3]);
}

bool IpAddress::is_unspecified() const {
  return std::all_of(bytes_.begin(), bytes_.end(), [](std::uint8_t b) { return b == 0; });
}

std::string IpAddress::to_string() const {
  char buf[64];
  if (is_v4()) {
    std::snprintf(buf, sizeof(buf), "%u.%u.%u.%u", bytes_[0], bytes_[1], bytes_[2], bytes_[3]);
    return buf;
  }
  // RFC 5952: compress the longest run of zero hextets (>= 2), leftmost
  // on ties; lowercase hex without leading zeros.
  std::array<std::uint16_t, 8> hextets;
  for (std::size_t i = 0; i < 8; ++i)
    hextets[i] = static_cast<std::uint16_t>((bytes_[i * 2] << 8) | bytes_[i * 2 + 1]);

  int best_start = -1, best_len = 0;
  for (int i = 0; i < 8;) {
    if (hextets[static_cast<std::size_t>(i)] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && hextets[static_cast<std::size_t>(j)] == 0) ++j;
    if (j - i > best_len) {
      best_start = i;
      best_len = j - i;
    }
    i = j;
  }
  if (best_len < 2) best_start = -1;

  std::string out;
  for (int i = 0; i < 8;) {
    if (i == best_start) {
      out += "::";
      i += best_len;
      if (i == 8) return out;
      continue;
    }
    if (!out.empty() && out.back() != ':') out += ':';
    std::snprintf(buf, sizeof(buf), "%x", hextets[static_cast<std::size_t>(i)]);
    out += buf;
    ++i;
  }
  return out;
}

Prefix::Prefix(const IpAddress& address, int length) : address_(address), length_(length) {
  if (length < 0 || length > address.bit_length())
    throw std::invalid_argument("prefix length out of range");
  // Zero the host bits so equal prefixes compare equal: the byte the
  // length ends in keeps its top length % 8 bits, later bytes clear.
  auto bytes = address.bytes();
  auto host = bytes.begin() + length / 8;
  if (length % 8 != 0) {
    *host = static_cast<std::uint8_t>(*host & (0xff00u >> (length % 8)));
    ++host;
  }
  std::fill(host, bytes.end(), std::uint8_t{0});
  address_ = address.is_v4()
                 ? IpAddress::v4({bytes[0], bytes[1], bytes[2], bytes[3]})
                 : IpAddress::v6(bytes);
}

std::optional<Prefix> Prefix::try_parse(std::string_view text) {
  std::size_t slash = text.rfind('/');
  if (slash == std::string_view::npos) return std::nullopt;
  auto address = IpAddress::try_parse(text.substr(0, slash));
  if (!address) return std::nullopt;
  std::string_view len_text = text.substr(slash + 1);
  int length = 0;
  auto [ptr, ec] = std::from_chars(len_text.data(), len_text.data() + len_text.size(), length);
  if (ec != std::errc{} || ptr != len_text.data() + len_text.size()) return std::nullopt;
  if (length < 0 || length > address->bit_length()) return std::nullopt;
  return Prefix(*address, length);
}

Prefix Prefix::parse(std::string_view text) {
  auto p = try_parse(text);
  if (!p) throw std::invalid_argument("invalid prefix: " + std::string(text));
  return *p;
}

bool Prefix::contains(const IpAddress& address) const {
  if (address.family() != address_.family()) return false;
  for (int bit = 0; bit < length_; ++bit)
    if (address.bit(bit) != address_.bit(bit)) return false;
  return true;
}

bool Prefix::covers(const Prefix& other) const {
  return other.family() == family() && other.length() >= length_ &&
         contains(other.address());
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace zombiescope::netbase

std::size_t std::hash<zombiescope::netbase::IpAddress>::operator()(
    const zombiescope::netbase::IpAddress& a) const noexcept {
  return zombiescope::netbase::fnv1a(
      a.bytes().data(), a.bytes().size(),
      static_cast<std::size_t>(a.family()));
}

std::size_t std::hash<zombiescope::netbase::Prefix>::operator()(
    const zombiescope::netbase::Prefix& p) const noexcept {
  return zombiescope::netbase::fnv1a(
      p.address().bytes().data(), p.address().bytes().size(),
      (static_cast<std::size_t>(p.family()) << 8) ^
          static_cast<std::size_t>(p.length()));
}
