#include "common/serialize.h"

namespace psi {

void BinaryWriter::WriteVarU64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BinaryWriter::WriteBytes(const std::vector<uint8_t>& bytes) {
  WriteVarU64(bytes.size());
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteVarU64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Status BinaryReader::Take(void* out, size_t n) {
  if (pos_ + n > size_) {
    return Status::SerializationError("read past end of buffer");
  }
  std::memcpy(out, data_ + pos_, n);
  pos_ += n;
  return Status::OK();
}

Status BinaryReader::ReadU8(uint8_t* out) { return Take(out, 1); }
Status BinaryReader::ReadU16(uint16_t* out) { return Take(out, 2); }
Status BinaryReader::ReadU32(uint32_t* out) { return Take(out, 4); }
Status BinaryReader::ReadU64(uint64_t* out) { return Take(out, 8); }

Status BinaryReader::ReadU64s(uint64_t* out, size_t n) {
  if (n > remaining() / 8) {
    return Status::SerializationError("read past end of buffer");
  }
  if (n == 0) return Status::OK();  // `out` may be null for an empty array.
  return Take(out, n * 8);  // Little-endian host assumed, as in ReadU64.
}

Status BinaryReader::ReadI64(int64_t* out) {
  uint64_t v;
  PSI_RETURN_NOT_OK(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status BinaryReader::ReadDouble(double* out) {
  uint64_t bits;
  PSI_RETURN_NOT_OK(ReadU64(&bits));
  std::memcpy(out, &bits, 8);
  return Status::OK();
}

Status BinaryReader::ReadVarU64(uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  for (int i = 0; i < 10; ++i) {
    uint8_t b;
    PSI_RETURN_NOT_OK(ReadU8(&b));
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *out = v;
      return Status::OK();
    }
    shift += 7;
  }
  return Status::SerializationError("varint longer than 10 bytes");
}

Status BinaryReader::ReadBytes(std::vector<uint8_t>* out) {
  uint64_t len;
  PSI_RETURN_NOT_OK(ReadVarU64(&len));
  // Compare against the remaining span: `pos_ + len` could wrap uint64.
  if (len > size_ - pos_) {
    return Status::SerializationError("byte string length exceeds buffer");
  }
  out->assign(data_ + pos_, data_ + pos_ + len);
  pos_ += len;
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* out) {
  uint64_t len;
  PSI_RETURN_NOT_OK(ReadVarU64(&len));
  if (len > size_ - pos_) {
    return Status::SerializationError("string length exceeds buffer");
  }
  out->assign(reinterpret_cast<const char*>(data_ + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status BinaryReader::ReadCount(uint64_t* out, size_t min_bytes_per_element) {
  uint64_t count;
  PSI_RETURN_NOT_OK(ReadVarU64(&count));
  const uint64_t min_bytes = min_bytes_per_element == 0 ? 1 : min_bytes_per_element;
  if (count > remaining() / min_bytes) {
    return Status::SerializationError("element count exceeds buffer capacity");
  }
  *out = count;
  return Status::OK();
}

namespace {

// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: entries[0] is
// the classic bytewise table, and entries[k][b] is the CRC of byte b followed
// by k zero bytes, so eight table lookups advance the CRC by eight bytes.
struct Crc32Tables {
  uint32_t entries[8][256];
  Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = entries[k - 1][i];
        entries[k][i] = entries[0][prev & 0xFF] ^ (prev >> 8);
      }
    }
  }
};

// Little-endian 32-bit load, independent of the host's byte order.
uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(const uint8_t* data, size_t len) {
  static const Crc32Tables tables;
  const auto& t = tables.entries;
  uint32_t crc = 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
          t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) {
    crc = t[0][(crc ^ *data) & 0xFF] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace psi
