#include "bgp/aspath.hpp"

#include <algorithm>
#include <atomic>
#include <new>

#include "netbase/bytes.hpp"

namespace zombiescope::bgp {

// One allocation: this header, then asn_count ASNs, then one (type,
// count) byte pair per segment. Never written after it is built.
struct AsPath::Block {
  std::atomic<std::size_t> refs{1};
  std::uint32_t asn_count = 0;
  std::uint32_t segment_count = 0;

  Asn* asns() { return reinterpret_cast<Asn*>(this + 1); }
  std::uint8_t* headers() { return reinterpret_cast<std::uint8_t*>(asns() + asn_count); }
};

AsPath AsPath::allocate(std::size_t segments, std::size_t asns) {
  static_assert(sizeof(Block) % alignof(Asn) == 0);
  void* raw = ::operator new(sizeof(Block) + asns * sizeof(Asn) + 2 * segments);
  Block* block = new (raw) Block;
  block->asn_count = static_cast<std::uint32_t>(asns);
  block->segment_count = static_cast<std::uint32_t>(segments);
  return AsPath(block);
}

void AsPath::retain() const {
  if (block_ != nullptr) block_->refs.fetch_add(1, std::memory_order_relaxed);
}

void AsPath::release() {
  if (block_ != nullptr && block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    block_->~Block();
    ::operator delete(block_);
  }
  block_ = nullptr;
}

AsPath& AsPath::operator=(const AsPath& other) noexcept {
  Block* block = other.block_;  // read first: release() clears a self-assigned block_
  other.retain();
  release();
  block_ = block;
  return *this;
}

AsPath& AsPath::operator=(AsPath&& other) noexcept {
  if (this != &other) {
    release();
    block_ = other.block_;
    other.block_ = nullptr;
  }
  return *this;
}

AsPath::AsPath(std::initializer_list<Asn> sequence)
    : AsPath(AsPath::sequence(std::span<const Asn>(sequence.begin(), sequence.size()))) {}

AsPath AsPath::sequence(std::span<const Asn> asns) {
  if (asns.empty()) return {};
  return from_segments({{SegmentType::kAsSequence, asns}});
}

AsPath AsPath::from_segments(std::initializer_list<PathSegment> segments) {
  // Each segment becomes ceil(n / 255) stored segments (one if empty).
  std::size_t stored = 0;
  std::size_t asns = 0;
  for (const auto& seg : segments) {
    stored += std::max<std::size_t>(1, (seg.asns.size() + kMaxSegmentAsns - 1) / kMaxSegmentAsns);
    asns += seg.asns.size();
  }
  if (stored == 0) return {};
  AsPath path = allocate(stored, asns);
  Asn* out = path.block_->asns();
  std::uint8_t* header = path.block_->headers();
  for (const auto& seg : segments) {
    std::span<const Asn> left = seg.asns;
    do {
      const std::size_t n = std::min(left.size(), kMaxSegmentAsns);
      *header++ = static_cast<std::uint8_t>(seg.type);
      *header++ = static_cast<std::uint8_t>(n);
      out = std::copy_n(left.begin(), n, out);
      left = left.subspan(n);
    } while (!left.empty());
  }
  return path;
}

AsPath::Segments AsPath::segments() const {
  if (block_ == nullptr) return {nullptr, nullptr, 0};
  return {block_->headers(), block_->asns(), block_->segment_count};
}

std::span<const Asn> AsPath::asns() const {
  if (block_ == nullptr) return {};
  return {block_->asns(), block_->asn_count};
}

int AsPath::length() const {
  int n = 0;
  for (const PathSegment seg : segments())
    n += seg.type == SegmentType::kAsSequence ? static_cast<int>(seg.asns.size()) : 1;
  return n;
}

int AsPath::asn_count() const { return static_cast<int>(asns().size()); }

std::optional<Asn> AsPath::origin_asn() const {
  if (block_ == nullptr) return std::nullopt;
  const std::uint8_t* last = block_->headers() + 2 * (block_->segment_count - 1);
  if (static_cast<SegmentType>(last[0]) != SegmentType::kAsSequence || last[1] == 0)
    return std::nullopt;
  return asns().back();
}

std::optional<Asn> AsPath::first_asn() const {
  if (block_ == nullptr || block_->headers()[1] == 0) return std::nullopt;
  return asns().front();
}

bool AsPath::contains(Asn asn) const {
  const auto all = asns();
  return std::find(all.begin(), all.end(), asn) != all.end();
}

AsPath AsPath::prepend(Asn asn) const {
  if (block_ == nullptr) return AsPath{asn};
  // Merge into a leading sequence with room; otherwise the new ASN
  // opens a new leading sequence segment (RFC 4271 §5.1.2).
  const std::uint8_t* first = block_->headers();
  const bool merge = static_cast<SegmentType>(first[0]) == SegmentType::kAsSequence &&
                     first[1] < kMaxSegmentAsns;
  const std::size_t segments = block_->segment_count + (merge ? 0 : 1);
  AsPath out = allocate(segments, block_->asn_count + 1);
  Asn* asns = out.block_->asns();
  asns[0] = asn;
  std::copy_n(block_->asns(), block_->asn_count, asns + 1);
  std::uint8_t* header = out.block_->headers();
  if (merge) {
    std::copy_n(first, 2 * block_->segment_count, header);
    ++header[1];
  } else {
    header[0] = static_cast<std::uint8_t>(SegmentType::kAsSequence);
    header[1] = 1;
    std::copy_n(first, 2 * block_->segment_count, header + 2);
  }
  return out;
}

std::vector<Asn> AsPath::flatten() const {
  const auto all = asns();
  return {all.begin(), all.end()};
}

bool AsPath::ends_with(const std::vector<Asn>& suffix) const {
  const auto all = asns();
  if (suffix.size() > all.size()) return false;
  return std::equal(suffix.rbegin(), suffix.rend(), all.rbegin());
}

std::string AsPath::to_string() const {
  std::string out;
  for (const PathSegment seg : segments()) {
    if (!out.empty()) out += ' ';
    if (seg.type == SegmentType::kAsSet) {
      out += '{';
      for (std::size_t i = 0; i < seg.asns.size(); ++i) {
        if (i > 0) out += ',';
        out += std::to_string(seg.asns[i]);
      }
      out += '}';
    } else {
      for (std::size_t i = 0; i < seg.asns.size(); ++i) {
        if (i > 0) out += ' ';
        out += std::to_string(seg.asns[i]);
      }
    }
  }
  return out;
}

bool operator==(const AsPath& a, const AsPath& b) {
  if (a.block_ == b.block_) return true;
  if (a.block_ == nullptr || b.block_ == nullptr) return false;
  if (a.block_->segment_count != b.block_->segment_count) return false;
  const auto asns = a.asns();
  return std::ranges::equal(asns, b.asns()) &&
         std::equal(a.block_->headers(), a.block_->headers() + 2 * a.block_->segment_count,
                    b.block_->headers());
}

namespace wire {

std::vector<std::uint8_t> encode_as_path(const AsPath& path) {
  netbase::ByteWriter w;
  for (const PathSegment seg : path.segments()) {
    w.u8(static_cast<std::uint8_t>(seg.type));
    w.u8(static_cast<std::uint8_t>(seg.asns.size()));
    for (Asn asn : seg.asns) w.u32(asn);  // 4-byte ASNs (RFC 6793)
  }
  return w.take();
}

AsPath decode_as_path(std::span<const std::uint8_t> payload) {
  // First pass: check every segment and size the block.
  std::size_t segments = 0;
  std::size_t asns = 0;
  netbase::ByteReader scan(payload);
  while (!scan.done()) {
    const std::uint8_t type = scan.u8();
    if (type != 1 && type != 2) throw netbase::DecodeError("AS_PATH: bad segment type");
    const std::uint8_t count = scan.u8();
    scan.bytes(std::size_t{count} * 4);
    ++segments;
    asns += count;
  }
  if (segments == 0) return {};
  // Second pass: fill the block from the checked bytes.
  AsPath path = AsPath::allocate(segments, asns);
  Asn* out = path.block_->asns();
  std::uint8_t* header = path.block_->headers();
  netbase::ByteReader r(payload);
  while (!r.done()) {
    *header++ = r.u8();
    const std::uint8_t count = r.u8();
    *header++ = count;
    for (int i = 0; i < count; ++i) *out++ = r.u32();
  }
  return path;
}

}  // namespace wire

AsPath AsPathInterner::decode(std::span<const std::uint8_t> payload) {
  const std::string_view key(reinterpret_cast<const char*>(payload.data()), payload.size());
  if (auto it = paths_.find(key); it != paths_.end()) return it->second;
  AsPath path = wire::decode_as_path(payload);
  paths_.emplace(key, path);
  return path;
}

}  // namespace zombiescope::bgp
