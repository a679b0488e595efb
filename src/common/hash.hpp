// FNV-1a (64-bit), the one hash behind every persistent key: serve cache
// keys, batch job keys and option fingerprints (journals), fault-model
// fingerprints, benchmark seeds, retry jitter and chaos decisions. Changing
// a byte here moves all of them, so the mixers below are part of the
// on-disk format.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace rdc {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds `size` bytes at `data` into `hash`.
inline std::uint64_t fnv1a(const void* data, std::size_t size,
                           std::uint64_t hash = kFnvOffset) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the eight bytes of `value`, least significant first.
inline std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  for (unsigned byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (byte * 8)) & 0xff;
    hash *= kFnvPrime;
  }
  return hash;
}

/// Folds the IEEE-754 bit pattern of `value`.
inline std::uint64_t fnv1a_double(std::uint64_t hash, double value) {
  return fnv1a_u64(hash, std::bit_cast<std::uint64_t>(value));
}

}  // namespace rdc
