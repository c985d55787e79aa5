// Seeded byte-string mutation for the parser fuzz tests: 1-4 edits, each a
// bit flip, a byte overwrite, a truncation, a one-byte insertion or a
// one-byte deletion at a uniformly drawn position. A fixed Rng seed makes
// every mutant reproducible from its iteration number.

#ifndef TESTS_MUTATE_H_
#define TESTS_MUTATE_H_

#include <cstddef>
#include <cstdint>

#include "src/base/random.h"

namespace tcplat {

// `Bytes` is std::string or std::vector<uint8_t>.
template <typename Bytes>
void Mutate(Rng& rng, Bytes* bytes) {
  using Byte = typename Bytes::value_type;
  const uint64_t edits = 1 + rng.NextBelow(4);
  for (uint64_t e = 0; e < edits; ++e) {
    const size_t at = rng.NextBelow(bytes->size() + 1);
    const bool inside = at < bytes->size();
    switch (rng.NextBelow(5)) {
      case 0:
        if (inside) (*bytes)[at] = static_cast<Byte>((*bytes)[at] ^ (1 << rng.NextBelow(8)));
        break;
      case 1:
        if (inside) (*bytes)[at] = static_cast<Byte>(rng.NextBelow(256));
        break;
      case 2:
        bytes->resize(at);
        break;
      case 3:
        bytes->insert(bytes->begin() + static_cast<ptrdiff_t>(at),
                      static_cast<Byte>(rng.NextBelow(256)));
        break;
      default:
        if (inside) bytes->erase(bytes->begin() + static_cast<ptrdiff_t>(at));
        break;
    }
  }
}

}  // namespace tcplat

#endif  // TESTS_MUTATE_H_
