// Seeded benchmark envelopes, shared by the load process and the layer
// replay and mirrored byte for byte by check.py:
//
//   "PBv1" | seed u64 | index u64 | body
//
// The body is a slice of a 64 KiB pool filled by splitmix64(seed), starting
// at (index * 2654435761) mod (pool size - body size). Integers are
// little-endian.
#pragma once

#include <cstdint>
#include <cstring>

#include "common/bytes.hpp"

namespace perfbench {

using bft::Bytes;

constexpr std::size_t kPoolBytes = 1 << 16;
constexpr std::size_t kHeaderBytes = 20;  // "PBv1" | seed u64 | index u64
constexpr std::uint64_t kOffsetStride = 2654435761ULL;

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

inline void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

class EnvelopeMaker {
 public:
  EnvelopeMaker(std::uint64_t seed, std::size_t bytes)
      : seed_(seed), bytes_(bytes), pool_(kPoolBytes) {
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < kPoolBytes; i += 8) {
      put_u64(pool_.data() + i, splitmix64(state));
    }
  }

  Bytes make(std::uint64_t index) const {
    Bytes e(bytes_);
    std::memcpy(e.data(), "PBv1", 4);
    put_u64(e.data() + 4, seed_);
    put_u64(e.data() + 12, index);
    const std::size_t body = bytes_ - kHeaderBytes;
    const std::size_t offset = (index * kOffsetStride) % (kPoolBytes - body);
    std::memcpy(e.data() + kHeaderBytes, pool_.data() + offset, body);
    return e;
  }

  /// Index of one of our envelopes, or -1 for anything else.
  std::int64_t index_of(const Bytes& e) const {
    if (e.size() != bytes_ || std::memcmp(e.data(), "PBv1", 4) != 0 ||
        get_u64(e.data() + 4) != seed_) {
      return -1;
    }
    return static_cast<std::int64_t>(get_u64(e.data() + 12));
  }

 private:
  std::uint64_t seed_;
  std::size_t bytes_;
  Bytes pool_;
};

}  // namespace perfbench
