#ifndef BVQ_COMMON_BITSET_H_
#define BVQ_COMMON_BITSET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace bvq {

/// A fixed-size dynamic bitset with fast word-level set operations.
///
/// Used to represent sets of assignments D^k as bit vectors (the
/// "intermediate relations of polynomial size" that bounded-variable
/// evaluation manipulates). All binary operations require equal sizes.
class DynamicBitset {
 public:
  DynamicBitset() : num_bits_(0) {}
  /// Creates a bitset of `num_bits` bits, all set to `value`.
  explicit DynamicBitset(std::size_t num_bits, bool value = false);

  std::size_t size() const { return num_bits_; }

  bool Test(std::size_t i) const {
    assert(i < num_bits_);
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void Set(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] |= (uint64_t{1} << (i & 63));
  }
  void Reset(std::size_t i) {
    assert(i < num_bits_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void Assign(std::size_t i, bool value) {
    if (value) {
      Set(i);
    } else {
      Reset(i);
    }
  }

  /// The `len` (1..64) bits from bit `pos` on, in the low bits of the
  /// result; pos + len <= size(). The word-level kernels read lines that
  /// start anywhere in a word through this.
  uint64_t ReadBits(std::size_t pos, std::size_t len) const {
    assert(len >= 1 && len <= 64 && pos + len <= num_bits_);
    const std::size_t off = pos & 63;
    uint64_t bits = words_[pos >> 6] >> off;
    if (off + len > 64) bits |= words_[(pos >> 6) + 1] << (64 - off);
    return bits & LowBits(len);
  }
  /// ORs `bits` into the bits from `pos` on. None may land at or past
  /// size(); only the words holding set bits of the result are written.
  void OrBits(std::size_t pos, uint64_t bits) {
    const std::size_t off = pos & 63;
    words_[pos >> 6] |= bits << off;
    if (off != 0 && bits >> (64 - off) != 0) {
      words_[(pos >> 6) + 1] |= bits >> (64 - off);
    }
  }
  /// A word with its low `len` (0..64) bits set.
  static uint64_t LowBits(std::size_t len) {
    return len >= 64 ? ~uint64_t{0} : (uint64_t{1} << len) - 1;
  }

  /// Sets all bits to 0 / 1.
  void ResetAll();
  void SetAll();

  /// Number of set bits.
  std::size_t Count() const;
  bool Any() const;
  bool None() const { return !Any(); }

  /// Index of the first set bit at position >= `from`, or `size()` if none.
  std::size_t FindNext(std::size_t from) const;
  std::size_t FindFirst() const { return FindNext(0); }

  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator^=(const DynamicBitset& other);
  /// Removes all bits present in `other` (set difference).
  DynamicBitset& SubtractInPlace(const DynamicBitset& other);
  /// Flips every bit (complement relative to the universe of `size()` bits).
  void FlipAll();

  friend DynamicBitset operator&(DynamicBitset a, const DynamicBitset& b) {
    a &= b;
    return a;
  }
  friend DynamicBitset operator|(DynamicBitset a, const DynamicBitset& b) {
    a |= b;
    return a;
  }
  friend DynamicBitset operator^(DynamicBitset a, const DynamicBitset& b) {
    a ^= b;
    return a;
  }
  DynamicBitset operator~() const {
    DynamicBitset r = *this;
    r.FlipAll();
    return r;
  }

  bool operator==(const DynamicBitset& other) const;
  bool operator!=(const DynamicBitset& other) const {
    return !(*this == other);
  }

  /// True iff every bit of *this is also set in `other`.
  bool IsSubsetOf(const DynamicBitset& other) const;
  /// True iff *this and `other` share no set bit.
  bool IsDisjointFrom(const DynamicBitset& other) const;

  /// A 64-bit content hash (FNV-1a over the words), for cycle detection.
  uint64_t Hash() const;

  /// Raw word storage (bit i lives at word i/64, bit i%64). Exposed for the
  /// word-level parallel kernels, which partition the bitset into disjoint
  /// word ranges; padding bits past size() are always zero.
  std::size_t num_words() const { return words_.size(); }
  /// Heap bytes held by the word storage (what a ResourceGovernor charges).
  std::size_t ByteSize() const { return words_.size() * sizeof(uint64_t); }
  uint64_t* word_data() { return words_.data(); }
  const uint64_t* word_data() const { return words_.data(); }

 private:
  void ClearPadding();

  std::size_t num_bits_;
  std::vector<uint64_t> words_;
};

}  // namespace bvq

#endif  // BVQ_COMMON_BITSET_H_
