// Deterministic error injectors for the §4.2.1 error-source analysis.
//
// The paper enumerates four sources of errors a TCP checksum layered over a
// link CRC could catch: (1) switch transfer errors, (2) host/controller copy
// errors, (3) corrupt data from external gateways, and (4) link errors whose
// bit pattern defeats the CRC. These injectors synthesize sources 2 and 4
// (and generic link noise); the experiment driver attributes each corruption
// to the layer that caught it — or to the application check if none did.

#ifndef SRC_FAULT_INJECTOR_H_
#define SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/random.h"
#include "src/link/wire.h"

namespace tcplat {

// Shared count of corruptions actually applied.
struct InjectionCounter {
  uint64_t injected = 0;
};

// Flips `bits` random bits inside the AAL3/4 SAR payload region of an ATM
// cell (bytes 5..52; the cell-header HEC protects the first five bytes)
// with probability `prob` per cell.
CorruptFn MakeCellBitFlipper(std::shared_ptr<Rng> rng, std::shared_ptr<InjectionCounter> counter,
                             double prob, int bits = 1);

// §4.2.1 source (4): XORs the CRC-10 generator polynomial's bit pattern into
// a random position of the cell's SAR payload. The resulting message differs
// from the original by a multiple of the generator, so the per-cell CRC-10
// cannot detect it — only an end-to-end check (the TCP checksum, or the
// application) can.
CorruptFn MakeCrc10DefeatingCorruptor(std::shared_ptr<Rng> rng,
                                      std::shared_ptr<InjectionCounter> counter, double prob);

// §4.2.1 source (2): corrupts a reassembled PDU during the device-to-host
// copy (one flipped bit in the transport payload region) with probability
// `prob` per PDU. Attach via AtmNetIf::set_controller_fault_hook.
std::function<void(std::vector<uint8_t>&)> MakeControllerCorruptor(
    std::shared_ptr<Rng> rng, std::shared_ptr<InjectionCounter> counter, double prob);

}  // namespace tcplat

#endif  // SRC_FAULT_INJECTOR_H_
