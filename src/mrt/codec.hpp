// mrt/codec.hpp — binary MRT encoding/decoding (RFC 6396).
//
// MrtWriter serializes records into a byte stream with the standard
// 12-byte MRT common header; MrtReader parses a stream back into
// records. File-level helpers read/write whole archives, which is how
// scenario runs hand their "RIS raw data" to the detectors.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mrt/record.hpp"
#include "netbase/bytes.hpp"

namespace zombiescope::mrt {

class MrtWriter {
 public:
  void write(const MrtRecord& record);

  const std::vector<std::uint8_t>& data() const { return out_.data(); }
  std::vector<std::uint8_t> take() { return out_.take(); }
  std::size_t size() const { return out_.size(); }

 private:
  netbase::ByteWriter out_;
};

/// Decodes records from a buffer the caller keeps alive while the
/// reader lives. Records that carry the same AS_PATH bytes share one
/// AsPath: the reader decodes each distinct path once and keeps it in
/// a table that lives as long as the reader and grows at most with
/// its input.
class MrtReader {
 public:
  explicit MrtReader(std::span<const std::uint8_t> data) : reader_(data) {}

  /// True if at least one more record follows.
  bool has_next() const { return !reader_.done(); }

  /// Decodes the next record. Throws netbase::DecodeError on malformed
  /// or unsupported input.
  MrtRecord next();

 private:
  netbase::ByteReader reader_;
  bgp::AsPathInterner paths_;
};

/// Decodes an entire buffer into records. The output is reserved up
/// front from the records' headers, at most one record per 64 input
/// bytes, so a stream of tiny headers cannot reserve many times its
/// own size.
std::vector<MrtRecord> decode_all(std::span<const std::uint8_t> data);

/// Encodes all records into one buffer.
std::vector<std::uint8_t> encode_all(std::span<const MrtRecord> records);

/// Writes records to an MRT file on disk; throws std::runtime_error on
/// I/O failure.
void write_file(const std::string& path, std::span<const MrtRecord> records);

/// Reads an MRT file from disk.
std::vector<MrtRecord> read_file(const std::string& path);

}  // namespace zombiescope::mrt
