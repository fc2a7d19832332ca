// netbase/bytes.hpp — big-endian byte buffer writer/reader.
//
// All BGP and MRT wire structures are big-endian; these two small
// classes are the only place byte order is handled. The reader throws
// DecodeError on truncation so parsers never read out of bounds.

#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace zombiescope::netbase {

/// Thrown when a wire message is truncated or structurally invalid.
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends big-endian integers and raw bytes to a growable buffer.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void bytes(std::span<const std::uint8_t> data);

  /// Reserves `n` bytes at the current position and returns their
  /// offset, for later back-patching of length fields.
  std::size_t reserve(std::size_t n);

  /// Back-patches a previously reserved 16-bit length field.
  void patch_u16(std::size_t offset, std::uint16_t v);

  /// Back-patches a previously reserved 32-bit length field.
  void patch_u32(std::size_t offset, std::uint32_t v);

  std::size_t size() const { return buf_.size(); }
  const std::vector<std::uint8_t>& data() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Reads big-endian integers and raw bytes from a non-owning span.
/// The reads and their bounds check are inline; only the throw on
/// truncation is out of line.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2);
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = (static_cast<std::uint32_t>(data_[pos_]) << 24) |
                            (static_cast<std::uint32_t>(data_[pos_ + 1]) << 16) |
                            (static_cast<std::uint32_t>(data_[pos_ + 2]) << 8) |
                            static_cast<std::uint32_t>(data_[pos_ + 3]);
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    const std::uint64_t hi = u32();
    return (hi << 32) | u32();
  }

  /// Returns a subspan of `n` bytes and advances past it.
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Returns a sub-reader restricted to the next `n` bytes and
  /// advances this reader past them.
  ByteReader sub(std::size_t n) { return ByteReader(bytes(n)); }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return remaining() == 0; }
  std::size_t position() const { return pos_; }

  /// Throws DecodeError unless exactly consumed.
  void expect_done(std::string_view context) const;

 private:
  void need(std::size_t n) const {
    if (remaining() < n) [[unlikely]]
      throw_truncated(n);
  }
  [[noreturn]] void throw_truncated(std::size_t n) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace zombiescope::netbase
