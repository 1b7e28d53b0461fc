// CRC-32C (Castagnoli) of everything the benchmark reads back. On x86-64
// with SSE4.2 it runs three interleaved hardware CRC streams, so checking
// every byte costs a small share of a sample.
#pragma once

#include <cstdint>

#include "util/bytes.hpp"

namespace perfbench {

/// CRC-32C of `data` (initial value and final xor 0xFFFFFFFF).
std::uint32_t crc32c(fanstore::ByteView data);

/// The same CRC computed bytewise from a table; the reference the tests
/// hold crc32c() to.
std::uint32_t crc32c_reference(fanstore::ByteView data);

}  // namespace perfbench
