#include "common/serialize.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "net/envelope.h"

namespace psi {
namespace {

TEST(SerializeTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xab);
  w.WriteU16(0xbeef);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefull);
  w.WriteI64(-42);
  w.WriteDouble(3.14159);

  BinaryReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int64_t i64;
  double d;
  ASSERT_TRUE(r.ReadU8(&u8).ok());
  ASSERT_TRUE(r.ReadU16(&u16).ok());
  ASSERT_TRUE(r.ReadU32(&u32).ok());
  ASSERT_TRUE(r.ReadU64(&u64).ok());
  ASSERT_TRUE(r.ReadI64(&i64).ok());
  ASSERT_TRUE(r.ReadDouble(&d).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i64, -42);
  EXPECT_DOUBLE_EQ(d, 3.14159);
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintRoundTripBoundaryValues) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             16383,
                             16384,
                             (1ull << 32) - 1,
                             1ull << 32,
                             std::numeric_limits<uint64_t>::max()};
  BinaryWriter w;
  for (uint64_t v : values) w.WriteVarU64(v);
  BinaryReader r(w.buffer());
  for (uint64_t expected : values) {
    uint64_t v;
    ASSERT_TRUE(r.ReadVarU64(&v).ok());
    EXPECT_EQ(v, expected);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintSizes) {
  auto size_of = [](uint64_t v) {
    BinaryWriter w;
    w.WriteVarU64(v);
    return w.size();
  };
  EXPECT_EQ(size_of(0), 1u);
  EXPECT_EQ(size_of(127), 1u);
  EXPECT_EQ(size_of(128), 2u);
  EXPECT_EQ(size_of(std::numeric_limits<uint64_t>::max()), 10u);
}

TEST(SerializeTest, StringAndBytesRoundTrip) {
  BinaryWriter w;
  w.WriteString("hello \xf0\x9f\x8c\x8d");
  w.WriteBytes({0, 255, 1, 254});
  w.WriteString("");

  BinaryReader r(w.buffer());
  std::string s1, s3;
  std::vector<uint8_t> b;
  ASSERT_TRUE(r.ReadString(&s1).ok());
  ASSERT_TRUE(r.ReadBytes(&b).ok());
  ASSERT_TRUE(r.ReadString(&s3).ok());
  EXPECT_EQ(s1, "hello \xf0\x9f\x8c\x8d");
  EXPECT_EQ(b, (std::vector<uint8_t>{0, 255, 1, 254}));
  EXPECT_TRUE(s3.empty());
}

TEST(SerializeTest, ReadPastEndFails) {
  BinaryWriter w;
  w.WriteU32(7);
  BinaryReader r(w.buffer());
  uint64_t v;
  EXPECT_EQ(r.ReadU64(&v).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, TruncatedStringFails) {
  BinaryWriter w;
  w.WriteVarU64(100);  // Claims 100 bytes follow; none do.
  BinaryReader r(w.buffer());
  std::string s;
  EXPECT_EQ(r.ReadString(&s).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, MalformedVarintFails) {
  std::vector<uint8_t> bad(11, 0x80);  // Never terminates within 10 bytes.
  BinaryReader r(bad);
  uint64_t v;
  EXPECT_EQ(r.ReadVarU64(&v).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, RemainingTracksPosition) {
  BinaryWriter w;
  w.WriteU64(1);
  w.WriteU64(2);
  BinaryReader r(w.buffer());
  EXPECT_EQ(r.remaining(), 16u);
  uint64_t v;
  ASSERT_TRUE(r.ReadU64(&v).ok());
  EXPECT_EQ(r.remaining(), 8u);
}

TEST(SerializeTest, TruncatedVarintFailsAtEveryCutPoint) {
  BinaryWriter w;
  w.WriteVarU64(std::numeric_limits<uint64_t>::max());  // 10-byte encoding.
  const auto& full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(),
                             full.begin() + static_cast<ptrdiff_t>(len));
    BinaryReader r(cut);
    uint64_t v;
    EXPECT_EQ(r.ReadVarU64(&v).code(), StatusCode::kSerializationError)
        << "len=" << len;
  }
}

TEST(SerializeTest, ReadCountRejectsImpossibleCounts) {
  // A one-byte buffer claiming 2^64 - 1 elements: ReadCount must reject it
  // without attempting any allocation.
  BinaryWriter w;
  w.WriteVarU64(std::numeric_limits<uint64_t>::max());
  w.WriteU8(0);
  BinaryReader r(w.buffer());
  uint64_t count;
  EXPECT_EQ(r.ReadCount(&count).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, ReadCountScalesByElementSize) {
  // 4 elements follow, 8 bytes each.
  BinaryWriter w;
  w.WriteVarU64(4);
  for (uint64_t i = 0; i < 4; ++i) w.WriteU64(i);

  {
    BinaryReader r(w.buffer());
    uint64_t count;
    ASSERT_TRUE(r.ReadCount(&count, /*min_bytes_per_element=*/8).ok());
    EXPECT_EQ(count, 4u);
  }
  {
    // The same prefix is impossible if each element needs at least 9 bytes.
    BinaryReader r(w.buffer());
    uint64_t count;
    EXPECT_EQ(r.ReadCount(&count, /*min_bytes_per_element=*/9).code(),
              StatusCode::kSerializationError);
  }
}

TEST(SerializeTest, ReadCountAcceptsExactFit) {
  BinaryWriter w;
  w.WriteVarU64(3);
  w.WriteRaw(reinterpret_cast<const uint8_t*>("abc"), 3);
  BinaryReader r(w.buffer());
  uint64_t count;
  ASSERT_TRUE(r.ReadCount(&count).ok());
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(SerializeTest, OverlongLengthPrefixOnBytesFails) {
  // Length prefix exceeds the remaining buffer by one byte.
  BinaryWriter w;
  w.WriteVarU64(5);
  w.WriteRaw(reinterpret_cast<const uint8_t*>("abcd"), 4);
  BinaryReader r(w.buffer());
  std::vector<uint8_t> out;
  EXPECT_EQ(r.ReadBytes(&out).code(), StatusCode::kSerializationError);
}

TEST(SerializeTest, EveryReadFailsCleanlyOnRandomTruncations) {
  // Build one buffer with every field type, then replay every possible
  // truncation. No read may succeed past the cut or touch memory out of
  // bounds (ASan job enforces the latter).
  BinaryWriter w;
  w.WriteU8(1);
  w.WriteU16(2);
  w.WriteU32(3);
  w.WriteU64(4);
  w.WriteVarU64(1u << 20);
  w.WriteString("payload");
  w.WriteBytes({9, 8, 7});
  const auto& full = w.buffer();

  for (size_t len = 0; len <= full.size(); ++len) {
    std::vector<uint8_t> cut(full.begin(),
                             full.begin() + static_cast<ptrdiff_t>(len));
    BinaryReader r(cut);
    uint8_t u8;
    uint16_t u16;
    uint32_t u32;
    uint64_t u64, var;
    std::string s;
    std::vector<uint8_t> b;
    Status st = r.ReadU8(&u8);
    if (st.ok()) st = r.ReadU16(&u16);
    if (st.ok()) st = r.ReadU32(&u32);
    if (st.ok()) st = r.ReadU64(&u64);
    if (st.ok()) st = r.ReadVarU64(&var);
    if (st.ok()) st = r.ReadString(&s);
    if (st.ok()) st = r.ReadBytes(&b);
    if (len < full.size()) {
      EXPECT_EQ(st.code(), StatusCode::kSerializationError) << "len=" << len;
    } else {
      EXPECT_TRUE(st.ok());
      EXPECT_TRUE(r.AtEnd());
    }
  }
}

TEST(SerializeTest, Crc32KnownVectors) {
  // The standard CRC-32 check value.
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
  const char* a = "a";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(a), 1), 0xE8B7BE43u);
}

TEST(SerializeTest, Crc32DistinguishesNearbyBuffers) {
  std::vector<uint8_t> buf(64, 0x5a);
  uint32_t base = Crc32(buf);
  for (size_t i = 0; i < buf.size(); ++i) {
    auto flipped = buf;
    flipped[i] ^= 1;
    EXPECT_NE(Crc32(flipped), base) << "byte " << i;
  }
}

// Bytewise CRC-32 over the reflected polynomial 0xEDB88320, bit by bit:
// the definition the table-driven Crc32 must reproduce.
uint32_t ReferenceCrc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1) ? 0xEDB88320u ^ (crc >> 1) : (crc >> 1);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(SerializeTest, Crc32MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0-130 cover the empty input, tails alone, and several whole
  // 8-byte blocks plus every tail length; start offsets 0-7 cover every
  // alignment of the block loads.
  Rng rng(17);
  std::vector<uint8_t> buf(8 + 130);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 130; ++len) {
      EXPECT_EQ(Crc32(buf.data() + offset, len),
                ReferenceCrc32(buf.data() + offset, len))
          << "offset " << offset << " len " << len;
    }
  }
}

TEST(SerializeTest, SealedEnvelopeBytesArePinned) {
  // A 37-byte payload puts the CRC over 62 bytes: seven 8-byte blocks and a
  // 6-byte tail. The literal was computed independently of this library.
  std::vector<uint8_t> payload(37);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i);
  }
  const std::vector<uint8_t> golden = {
      0x31, 0x46, 0x53, 0x50, 0x01, 0x04, 0x00, 0x07, 0x00, 0x02, 0x00, 0x00,
      0x00, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x25, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a,
      0x0b, 0x0c, 0x0d, 0x0e, 0x0f, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15, 0x16,
      0x17, 0x18, 0x19, 0x1a, 0x1b, 0x1c, 0x1d, 0x1e, 0x1f, 0x20, 0x21, 0x22,
      0x23, 0x24, 0xfa, 0x49, 0x61, 0x1a,
  };
  EXPECT_EQ(SealEnvelope(ProtocolId::kLinkInfluence, /*step=*/7, /*sender=*/2,
                         /*seq=*/0x0102030405060708ull, payload),
            golden);
  auto opened = OpenEnvelope(golden);
  ASSERT_TRUE(opened.ok()) << opened.status().message();
  EXPECT_EQ(opened->payload, payload);
}

TEST(SerializeTest, NegativeAndSpecialDoubles) {
  BinaryWriter w;
  w.WriteDouble(-0.0);
  w.WriteDouble(std::numeric_limits<double>::infinity());
  w.WriteDouble(1e-300);
  BinaryReader r(w.buffer());
  double a, b, c;
  ASSERT_TRUE(r.ReadDouble(&a).ok());
  ASSERT_TRUE(r.ReadDouble(&b).ok());
  ASSERT_TRUE(r.ReadDouble(&c).ok());
  EXPECT_EQ(a, 0.0);
  EXPECT_TRUE(std::signbit(a));
  EXPECT_TRUE(std::isinf(b));
  EXPECT_DOUBLE_EQ(c, 1e-300);
}

}  // namespace
}  // namespace psi
