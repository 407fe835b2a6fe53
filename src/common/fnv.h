// 64-bit FNV-1a, the hash behind every digest the project pins:
// placement digests, fuzz case and campaign digests, bench digests.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace uniserver::fnv {

inline constexpr std::uint64_t kPrime = 1099511628211ULL;
/// The standard 64-bit offset basis (the cloud's placement digest).
inline constexpr std::uint64_t kOffset = 14695981039346656037ULL;
/// The offset the fuzz and bench digests start from: the standard
/// basis one digit short. Every pinned campaign, golden and bench
/// digest was taken from it, so correcting it would re-pin them all.
inline constexpr std::uint64_t kShortOffset = 1469598103934665603ULL;

/// Mixes the eight bytes of `v`, least significant first.
constexpr std::uint64_t mix_u64(std::uint64_t h, std::uint64_t v) {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (byte * 8)) & 0xffULL;
    h *= kPrime;
  }
  return h;
}

/// Mixes a double's bit pattern.
constexpr std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix_u64(h, std::bit_cast<std::uint64_t>(v));
}

/// Mixes a string's length, then its bytes, so ("ab", "c") and
/// ("a", "bc") mix differently.
constexpr std::uint64_t mix_string(std::uint64_t h, std::string_view s) {
  h = mix_u64(h, s.size());
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= kPrime;
  }
  return h;
}

}  // namespace uniserver::fnv
