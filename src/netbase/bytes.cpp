#include "netbase/bytes.hpp"

namespace zombiescope::netbase {

void ByteWriter::u16(std::uint16_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u32(std::uint32_t v) {
  buf_.push_back(static_cast<std::uint8_t>(v >> 24));
  buf_.push_back(static_cast<std::uint8_t>(v >> 16));
  buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  buf_.push_back(static_cast<std::uint8_t>(v));
}

void ByteWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v >> 32));
  u32(static_cast<std::uint32_t>(v));
}

void ByteWriter::bytes(std::span<const std::uint8_t> data) {
  buf_.insert(buf_.end(), data.begin(), data.end());
}

std::size_t ByteWriter::reserve(std::size_t n) {
  const std::size_t offset = buf_.size();
  buf_.resize(buf_.size() + n, 0);
  return offset;
}

void ByteWriter::patch_u16(std::size_t offset, std::uint16_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v);
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  buf_.at(offset) = static_cast<std::uint8_t>(v >> 24);
  buf_.at(offset + 1) = static_cast<std::uint8_t>(v >> 16);
  buf_.at(offset + 2) = static_cast<std::uint8_t>(v >> 8);
  buf_.at(offset + 3) = static_cast<std::uint8_t>(v);
}

void ByteReader::throw_truncated(std::size_t n) const {
  throw DecodeError("truncated message: need " + std::to_string(n) + " bytes, have " +
                    std::to_string(remaining()));
}

void ByteReader::expect_done(std::string_view context) const {
  if (!done())
    throw DecodeError(std::string(context) + ": " + std::to_string(remaining()) +
                      " trailing bytes");
}

}  // namespace zombiescope::netbase
