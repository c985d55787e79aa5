// Internet (ones'-complement) checksum implementations.
//
// The paper studies three executable variants of the TCP checksum and this
// file implements all of them as genuinely different code paths:
//
//  * ReferenceChecksum      — textbook RFC 1071 loop; used as test oracle.
//  * UltrixChecksum         — the ULTRIX 4.2A style: one 16-bit halfword per
//                             iteration, no unrolling.
//  * OptimizedChecksum      — the paper's §4.1 optimization (word accesses,
//                             unrolling, deferred carry fold), at host word
//                             size: 64-bit native-order words in four
//                             end-around-carry chains, byte-swapped once at
//                             the end (RFC 1071 §2(B)). ComputePartial shares
//                             its loop.
//  * IntegratedCopyChecksum — the Clark et al. combined copy + checksum
//                             loop: one pass moves the data and sums it.
//
// All functions compute the same mathematical value (the ones'-complement
// sum of big-endian 16-bit words); tests enforce bit-exact agreement.
//
// ChecksumAccumulator supports the *partial checksum* algebra the paper's
// kernel implementation relies on (§4.1.1): per-mbuf partial sums computed
// at the socket layer are later combined, at any byte offset parity, into a
// full TCP checksum.

#ifndef SRC_NET_CHECKSUM_H_
#define SRC_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace tcplat {

// A partial ones'-complement sum over some number of bytes. Values are
// combinable: the sum over A||B equals Combine over the sums of A and B.
struct PartialChecksum {
  uint32_t sum = 0;    // folded to <= 0xFFFF by every producer; never complemented
  uint64_t length = 0; // number of bytes covered

  // Appends `next` after `this` (byte-offset parity handled).
  PartialChecksum Combine(const PartialChecksum& next) const;

  // Final complemented 16-bit checksum of everything accumulated.
  uint16_t Finalize() const;
};

// Incremental accumulator used by the in-kernel checksum paths.
class ChecksumAccumulator {
 public:
  // Adds a chunk of bytes (at the current running offset).
  void Add(std::span<const uint8_t> data);
  // Adds a precomputed partial sum for a chunk.
  void AddPartial(const PartialChecksum& partial);

  PartialChecksum partial() const { return partial_; }
  uint16_t Finalize() const { return partial_.Finalize(); }
  uint64_t length() const { return partial_.length; }

 private:
  PartialChecksum partial_;
};

// Computes the raw (uncomplemented) partial sum of a chunk as if it started
// at even offset.
PartialChecksum ComputePartial(std::span<const uint8_t> data);

// --- The three complete algorithms (all return the complemented checksum) ---

uint16_t ReferenceChecksum(std::span<const uint8_t> data);
uint16_t UltrixChecksum(std::span<const uint8_t> data);
uint16_t OptimizedChecksum(std::span<const uint8_t> data);

// Copies src -> dst (same length) while computing the checksum of the data.
// Returns the complemented checksum of src.
uint16_t IntegratedCopyChecksum(std::span<uint8_t> dst, std::span<const uint8_t> src);

// Integrated copy + raw partial sum (for kernel paths that combine partials).
PartialChecksum IntegratedCopyPartial(std::span<uint8_t> dst, std::span<const uint8_t> src);

}  // namespace tcplat

#endif  // SRC_NET_CHECKSUM_H_
