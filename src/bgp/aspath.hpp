// bgp/aspath.hpp — the AS_PATH attribute.
//
// An AS_PATH is a sequence of segments; in practice almost all paths
// are a single AS_SEQUENCE, but AS_SETs (from aggregation) occur and
// must round-trip through the wire format, so both are modelled.
//
// An AsPath is a handle to one immutable heap block that holds the
// segment types, their ASN counts and the ASNs. Copies share the block
// through an atomic reference count, so copying a record onto a shard
// thread or into a detector's state allocates nothing. Building a
// changed path (prepend) makes a new block. A segment holds at most
// 255 ASNs, the wire format's one-byte count: a longer sequence is
// stored as several AS_SEQUENCE segments (RFC 4271 §5.1.2), which
// leaves length(), to_string() and flatten() unchanged.

#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "bgp/types.hpp"

namespace zombiescope::bgp {

enum class SegmentType : std::uint8_t {
  kAsSet = 1,
  kAsSequence = 2,
};

/// One segment: its type and a view of its ASNs. A segment read from a
/// path views that path's block, so it is valid while the path lives.
struct PathSegment {
  SegmentType type = SegmentType::kAsSequence;
  std::span<const Asn> asns;
};

class AsPath;

namespace wire {

/// Encodes the AS_PATH attribute payload: per segment a type byte, a
/// count byte and 4-byte ASNs (RFC 4271 §4.3, RFC 6793).
std::vector<std::uint8_t> encode_as_path(const AsPath& path);

/// Decodes an AS_PATH attribute payload into one new block. Throws
/// netbase::DecodeError on a bad segment type or a truncated segment.
AsPath decode_as_path(std::span<const std::uint8_t> payload);

}  // namespace wire

class AsPath {
 public:
  /// The most ASNs one segment carries: the wire count is one byte.
  static constexpr std::size_t kMaxSegmentAsns = 255;

  AsPath() = default;

  /// Builds an AS_SEQUENCE path: first element is the neighbor
  /// nearest the receiver, last is the origin AS (RFC 4271).
  AsPath(std::initializer_list<Asn> sequence);
  static AsPath sequence(std::span<const Asn> asns);

  /// Builds a path from segments in order. A segment longer than
  /// kMaxSegmentAsns is stored as several segments of its type.
  static AsPath from_segments(std::initializer_list<PathSegment> segments);

  AsPath(const AsPath& other) noexcept : block_(other.block_) { retain(); }
  AsPath(AsPath&& other) noexcept : block_(other.block_) { other.block_ = nullptr; }
  AsPath& operator=(const AsPath& other) noexcept;
  AsPath& operator=(AsPath&& other) noexcept;
  ~AsPath() { release(); }

  /// The stored segments in path order, as PathSegment views.
  class Segments {
   public:
    class Iterator {
     public:
      PathSegment operator*() const {
        return {static_cast<SegmentType>(header_[0]), {asn_, header_[1]}};
      }
      Iterator& operator++() {
        asn_ += header_[1];
        header_ += 2;
        return *this;
      }
      bool operator==(const Iterator& other) const { return header_ == other.header_; }

     private:
      friend class Segments;
      Iterator(const std::uint8_t* header, const Asn* asn) : header_(header), asn_(asn) {}
      const std::uint8_t* header_;  // (type, count) byte pairs
      const Asn* asn_;              // the first ASN of *header_'s segment
    };

    Iterator begin() const { return {headers_, asns_}; }
    Iterator end() const { return {headers_ + 2 * count_, nullptr}; }
    std::size_t size() const { return count_; }

   private:
    friend class AsPath;
    Segments(const std::uint8_t* headers, const Asn* asns, std::size_t count)
        : headers_(headers), asns_(asns), count_(count) {}
    const std::uint8_t* headers_;
    const Asn* asns_;
    std::size_t count_;
  };
  Segments segments() const;

  bool empty() const { return block_ == nullptr; }

  /// Path length as used by the BGP decision process: each AS in a
  /// sequence counts 1, each AS_SET counts 1 total (RFC 4271 §9.1.2.2).
  int length() const;

  /// Total number of ASNs mentioned (sets expanded).
  int asn_count() const;

  /// The origin AS — last ASN of the last sequence segment, if the
  /// path ends with a sequence.
  std::optional<Asn> origin_asn() const;

  /// The first ASN (the neighbor the route was learned from).
  std::optional<Asn> first_asn() const;

  /// True if `asn` appears anywhere in the path (loop detection).
  bool contains(Asn asn) const;

  /// Returns a path with `asn` prepended (new first hop), merging into
  /// a leading sequence segment unless that segment is full.
  AsPath prepend(Asn asn) const;

  /// Flattened ASN list in path order (sets expanded in stored order).
  std::vector<Asn> flatten() const;

  /// True if the path ends with the given origin-adjacent subpath,
  /// e.g. contains_subpath({25091, 8298, 210312}) — used for the
  /// paper's common-subpath reporting.
  bool ends_with(const std::vector<Asn>& suffix) const;

  /// "4637 1299 25091 8298 210312"; sets render as "{a,b}".
  std::string to_string() const;

  /// Equal segments and ASNs; immediate when both share one block.
  friend bool operator==(const AsPath& a, const AsPath& b);

 private:
  struct Block;
  explicit AsPath(Block* block) : block_(block) {}
  static AsPath allocate(std::size_t segments, std::size_t asns);
  std::span<const Asn> asns() const;
  void retain() const;
  void release();

  friend AsPath wire::decode_as_path(std::span<const std::uint8_t> payload);

  Block* block_ = nullptr;  // nullptr iff the path has no segments
};

/// Decodes AS_PATH payloads so that equal payloads share one AsPath:
/// each distinct path is decoded once. It keys on views of the decoded
/// bytes, so it must not outlive them; a decoder of one finite buffer
/// (an MRT archive) holds one for that decode, which bounds its size
/// by the input. Decoders of endless streams keep none.
class AsPathInterner {
 public:
  AsPath decode(std::span<const std::uint8_t> payload);

 private:
  std::unordered_map<std::string_view, AsPath> paths_;
};

}  // namespace zombiescope::bgp
