// crc32c() against the bytewise reference and the standard check value.
#include "crc32c.hpp"

#include <gtest/gtest.h>

#include <cstring>

namespace perfbench {
namespace {

TEST(Crc32c, StandardCheckValue) {
  const char* s = "123456789";
  const fanstore::ByteView v{reinterpret_cast<const std::uint8_t*>(s), std::strlen(s)};
  EXPECT_EQ(crc32c(v), 0xE3069283u);
  EXPECT_EQ(crc32c_reference(v), 0xE3069283u);
  EXPECT_EQ(crc32c(fanstore::ByteView{}), 0u);
}

TEST(Crc32c, MatchesReferenceAtEveryLengthAndOffset) {
  fanstore::Bytes buf(3 * 4096 + 64);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  // Lengths around the three-stream round (3 x 512 bytes) and its
  // multiples, at unaligned starts.
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len + off <= buf.size(); len += (len < 4700 ? 1 : 509)) {
      const fanstore::ByteView v{buf.data() + off, len};
      ASSERT_EQ(crc32c(v), crc32c_reference(v)) << "len " << len << " off " << off;
    }
  }
}

}  // namespace
}  // namespace perfbench
