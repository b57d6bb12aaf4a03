// Binary serialization used by the simulated multiparty network. Message
// sizes reported in the Table 1/2 benches are the exact byte counts these
// writers produce.

#ifndef PSI_COMMON_SERIALIZE_H_
#define PSI_COMMON_SERIALIZE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace psi {

/// \brief Append-only little-endian binary writer.
class BinaryWriter {
 public:
  BinaryWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU16(uint16_t v) { WriteLE(&v, 2); }
  void WriteU32(uint32_t v) { WriteLE(&v, 4); }
  void WriteU64(uint64_t v) { WriteLE(&v, 8); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }

  /// Writes an IEEE-754 double (8 bytes).
  void WriteDouble(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, 8);
    WriteU64(bits);
  }

  /// Writes a LEB128-style variable-length unsigned integer (1-10 bytes).
  void WriteVarU64(uint64_t v);

  /// Writes a length-prefixed byte string.
  void WriteBytes(const std::vector<uint8_t>& bytes);

  /// Writes a length-prefixed UTF-8 string.
  void WriteString(const std::string& s);

  /// Writes raw bytes without a length prefix.
  void WriteRaw(const uint8_t* data, size_t len) {
    buf_.insert(buf_.end(), data, data + len);
  }

  /// Pre-allocates capacity for `n` bytes.
  void Reserve(size_t n) { buf_.reserve(n); }

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> TakeBuffer() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  void WriteLE(const void* p, size_t n) {
    const auto* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);  // Little-endian host assumed (x86/ARM).
  }

  std::vector<uint8_t> buf_;
};

/// \brief Bounds-checked reader over a byte buffer.
class BinaryReader {
 public:
  explicit BinaryReader(const std::vector<uint8_t>& buf)
      : data_(buf.data()), size_(buf.size()) {}
  BinaryReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  [[nodiscard]] Status ReadU8(uint8_t* out);
  [[nodiscard]] Status ReadU16(uint16_t* out);
  [[nodiscard]] Status ReadU32(uint32_t* out);
  [[nodiscard]] Status ReadU64(uint64_t* out);
  /// Reads `n` consecutive little-endian 64-bit words into out[0, n).
  [[nodiscard]] Status ReadU64s(uint64_t* out, size_t n);
  [[nodiscard]] Status ReadI64(int64_t* out);
  [[nodiscard]] Status ReadDouble(double* out);
  [[nodiscard]] Status ReadVarU64(uint64_t* out);
  [[nodiscard]] Status ReadBytes(std::vector<uint8_t>* out);
  [[nodiscard]] Status ReadString(std::string* out);

  /// \brief Reads a varint element count and rejects any value that could not
  /// possibly fit in the remaining bytes (each element occupies at least
  /// `min_bytes_per_element`). Decoders must use this before `resize(count)`
  /// on peer-controlled buffers, so a corrupted length prefix cannot trigger
  /// a multi-gigabyte allocation.
  [[nodiscard]] Status ReadCount(uint64_t* out, size_t min_bytes_per_element = 1);

  /// \brief Bytes not yet consumed.
  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  [[nodiscard]] Status Take(void* out, size_t n);

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `len`
/// bytes. Used by the network envelope to detect corrupted frames before any
/// payload decoding happens.
uint32_t Crc32(const uint8_t* data, size_t len);

inline uint32_t Crc32(const std::vector<uint8_t>& buf) {
  return Crc32(buf.data(), buf.size());
}

}  // namespace psi

#endif  // PSI_COMMON_SERIALIZE_H_
