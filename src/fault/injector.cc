#include "src/fault/injector.h"

#include "src/atm/aal34.h"
#include "src/base/check.h"

namespace tcplat {
namespace {

void FlipRandomBits(Rng& rng, std::vector<uint8_t>& data, size_t lo, size_t hi, int bits) {
  for (int i = 0; i < bits; ++i) {
    const size_t byte = lo + static_cast<size_t>(rng.NextBelow(hi - lo));
    const int bit = static_cast<int>(rng.NextBelow(8));
    data[byte] = static_cast<uint8_t>(data[byte] ^ (1u << bit));
  }
}

}  // namespace

CorruptFn MakeCellBitFlipper(std::shared_ptr<Rng> rng, std::shared_ptr<InjectionCounter> counter,
                             double prob, int bits) {
  return [rng = std::move(rng), counter = std::move(counter), prob,
          bits](std::vector<uint8_t>& data) {
    if (data.size() != kAtmCellBytes || !rng->NextBool(prob)) {
      return;
    }
    FlipRandomBits(*rng, data, kAtmCellHeaderBytes, data.size(), bits);
    ++counter->injected;
  };
}

CorruptFn MakeCrc10DefeatingCorruptor(std::shared_ptr<Rng> rng,
                                      std::shared_ptr<InjectionCounter> counter, double prob) {
  // The generator (with the x^10 term) is an 11-bit pattern; XORing it into
  // the message at any bit offset adds a multiple of the generator, which
  // the CRC cannot see.
  constexpr uint32_t kGeneratorBits = 0x633;  // x^10+x^9+x^5+x^4+x+1
  return [rng = std::move(rng), counter = std::move(counter), prob](std::vector<uint8_t>& data) {
    if (data.size() != kAtmCellBytes || !rng->NextBool(prob)) {
      return;
    }
    // Keep the pattern inside the 44 data bytes of the SAR-PDU (after the
    // 2-byte SAR header, before the LI/CRC trailer): the corrupted bits are
    // all CRC-covered message bits, so the residue is unchanged.
    const size_t first_bit = kSarHeaderBytes * 8;
    const size_t last_bit = (kSarHeaderBytes + kSarPayloadBytes) * 8 - 11;
    const size_t bit_off =
        first_bit + static_cast<size_t>(rng->NextBelow(last_bit - first_bit));
    for (int i = 0; i < 11; ++i) {
      if ((kGeneratorBits >> (10 - i)) & 1) {
        const size_t bit = bit_off + static_cast<size_t>(i);
        const size_t byte = kAtmCellHeaderBytes + bit / 8;
        data[byte] = static_cast<uint8_t>(data[byte] ^ (0x80u >> (bit % 8)));
      }
    }
    ++counter->injected;
  };
}

std::function<void(std::vector<uint8_t>&)> MakeControllerCorruptor(
    std::shared_ptr<Rng> rng, std::shared_ptr<InjectionCounter> counter, double prob) {
  return [rng = std::move(rng), counter = std::move(counter), prob](std::vector<uint8_t>& pdu) {
    // Only damage transport payload bytes (past IP + TCP headers) so the
    // stream survives to exercise the end-to-end check.
    constexpr size_t kSkip = 40;
    if (pdu.size() <= kSkip + 1 || !rng->NextBool(prob)) {
      return;
    }
    FlipRandomBits(*rng, pdu, kSkip, pdu.size(), 1);
    ++counter->injected;
  };
}

}  // namespace tcplat
