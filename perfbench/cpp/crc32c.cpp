#include "crc32c.hpp"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace perfbench {
namespace {

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

/// Raw register update (no pre/post inversion), one byte at a time.
std::uint32_t update_bytewise(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  static const auto table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t v = i;
      for (int k = 0; k < 8; ++k) v = (v & 1u) ? kPoly ^ (v >> 1) : v >> 1;
      t[i] = v;
    }
    return t;
  }();
  while (n-- > 0) c = table[(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c;
}

#if defined(__x86_64__)
// Bytes per stream per round of the three-stream loop.
constexpr std::size_t kBlock = 512;

/// Advancing the register over kBlock zero bytes is linear in the
/// register, so it is four byte-indexed tables: shift(c) is the register
/// after kBlock zero bytes starting from c.
struct Shift {
  std::array<std::array<std::uint32_t, 256>, 4> t{};
  std::uint32_t operator()(std::uint32_t c) const {
    return t[0][c & 0xFFu] ^ t[1][(c >> 8) & 0xFFu] ^ t[2][(c >> 16) & 0xFFu] ^ t[3][c >> 24];
  }
};

const Shift& block_shift() {
  static const Shift s = [] {
    Shift out;
    const std::array<std::uint8_t, kBlock> zeros{};
    for (int k = 0; k < 4; ++k) {
      for (std::uint32_t b = 0; b < 256; ++b) {
        out.t[static_cast<std::size_t>(k)][b] =
            update_bytewise(b << (8 * k), zeros.data(), zeros.size());
      }
    }
    return out;
  }();
  return s;
}

__attribute__((target("sse4.2"))) std::uint32_t crc32c_hw(const std::uint8_t* p,
                                                          std::size_t n) {
  const Shift& shift = block_shift();
  std::uint64_t c = 0xFFFFFFFFu;
  // Three independent streams over consecutive blocks hide the crc32
  // instruction's latency; the register algebra joins them:
  // crc(A B) = shift(crc(A)) ^ crc_from_zero(B).
  while (n >= 3 * kBlock) {
    std::uint64_t a = c, b = 0, d = 0;
    for (std::size_t i = 0; i < kBlock; i += 8) {
      std::uint64_t va, vb, vd;
      std::memcpy(&va, p + i, 8);
      std::memcpy(&vb, p + kBlock + i, 8);
      std::memcpy(&vd, p + 2 * kBlock + i, 8);
      a = _mm_crc32_u64(a, va);
      b = _mm_crc32_u64(b, vb);
      d = _mm_crc32_u64(d, vd);
    }
    c = shift(shift(static_cast<std::uint32_t>(a)) ^ static_cast<std::uint32_t>(b)) ^
        static_cast<std::uint32_t>(d);
    p += 3 * kBlock;
    n -= 3 * kBlock;
  }
  for (; n >= 8; p += 8, n -= 8) {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  while (n-- > 0) c32 = _mm_crc32_u8(c32, *p++);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

}  // namespace

std::uint32_t crc32c_reference(fanstore::ByteView data) {
  return update_bytewise(0xFFFFFFFFu, data.data(), data.size()) ^ 0xFFFFFFFFu;
}

std::uint32_t crc32c(fanstore::ByteView data) {
#if defined(__x86_64__)
  static const bool hw = __builtin_cpu_supports("sse4.2");
  if (hw) return crc32c_hw(data.data(), data.size());
#endif
  return crc32c_reference(data);
}

}  // namespace perfbench
