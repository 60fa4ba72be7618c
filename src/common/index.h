#ifndef BVQ_COMMON_INDEX_H_
#define BVQ_COMMON_INDEX_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace bvq {

/// a * b without silent wraparound: returns false iff the product overflows
/// std::size_t (in which case *out is untouched).
inline bool CheckedMul(std::size_t a, std::size_t b, std::size_t* out) {
  if (b != 0 && a > static_cast<std::size_t>(-1) / b) return false;
  *out = a * b;
  return true;
}

/// base^exp as a checked product chain. The k-ary kernels size buffers and
/// loop bounds with domain_size^arity products; on large domains those wrap
/// silently in plain std::size_t arithmetic, so every sizing computation
/// that is not already bounded by TupleIndexer::Exceeds must go through
/// this and surface the failure as a Status.
Result<std::size_t> CheckedPow(std::size_t base, std::size_t exp);

/// Mixed-radix (base-n) indexing for tuples over a finite domain.
///
/// Bounded-variable evaluation (Proposition 3.1 of the paper) manipulates
/// subsets of D^k. We linearize D^k as the integers [0, n^k) with the
/// *first* coordinate as the least significant digit:
///   Rank(t) = t[0] + t[1]*n + ... + t[k-1]*n^{k-1}.
/// This makes "iterate over all values of coordinate j with the others
/// fixed" a strided loop, which the k-ary relation kernels rely on.
class TupleIndexer {
 public:
  /// Indexer for D^arity with |D| = domain_size. domain_size 0 is allowed
  /// (no tuples for arity >= 1; the single empty tuple for arity 0).
  TupleIndexer(std::size_t domain_size, std::size_t arity);

  std::size_t domain_size() const { return domain_size_; }
  std::size_t arity() const { return arity_; }
  /// n^k, the number of tuples.
  std::size_t NumTuples() const { return num_tuples_; }
  /// n^j, the stride of coordinate j.
  std::size_t Stride(std::size_t j) const {
    assert(j < strides_.size());
    return strides_[j];
  }

  /// Rank of a tuple given as a contiguous array of `arity` values < n.
  std::size_t Rank(const uint32_t* tuple) const {
    std::size_t r = 0;
    for (std::size_t j = 0; j < arity_; ++j) {
      assert(tuple[j] < domain_size_);
      r += tuple[j] * strides_[j];
    }
    return r;
  }
  std::size_t Rank(const std::vector<uint32_t>& tuple) const {
    assert(tuple.size() == arity_);
    return Rank(tuple.data());
  }

  /// Inverse of Rank: writes the digits of `rank` into `out[0..arity)`.
  void Unrank(std::size_t rank, uint32_t* out) const {
    for (std::size_t j = 0; j < arity_; ++j) {
      out[j] = static_cast<uint32_t>(rank % domain_size_);
      rank /= domain_size_;
    }
  }
  std::vector<uint32_t> Unrank(std::size_t rank) const {
    std::vector<uint32_t> t(arity_);
    Unrank(rank, t.data());
    return t;
  }

  /// Value of coordinate j within ranked tuple `rank`.
  uint32_t Digit(std::size_t rank, std::size_t j) const {
    return static_cast<uint32_t>((rank / strides_[j]) % domain_size_);
  }

  /// Rank with coordinate j replaced by `value`.
  std::size_t WithDigit(std::size_t rank, std::size_t j,
                        uint32_t value) const {
    const std::size_t old = (rank / strides_[j]) % domain_size_;
    return rank - old * strides_[j] + value * strides_[j];
  }

  /// True iff n^k overflows or exceeds `limit` (guards allocation).
  static bool Exceeds(std::size_t domain_size, std::size_t arity,
                      std::size_t limit);

 private:
  std::size_t domain_size_;
  std::size_t arity_;
  std::size_t num_tuples_;
  std::vector<std::size_t> strides_;
};

/// Mixed-radix odometer over base-`radix` digits d_0..d_{m-1} (d_0 least
/// significant) that keeps value() = base + sum_j d_j * weights[j] current
/// while it steps through the radix^m positions in order: one add per step
/// and one subtract per carry, instead of a div/mod chain per position.
/// With coordinate strides as weights it visits the ranks of a sub-cube;
/// any other rank that is linear in the digits (AssignmentSet::Remap's read
/// rank) works the same way. `weights` is borrowed and must outlive it.
class RadixWalker {
 public:
  RadixWalker(std::size_t radix, const std::vector<std::size_t>& weights)
      : radix_(radix), weights_(weights), digits_(weights.size(), 0) {}

  /// Moves to position `pos` < radix^m, one div/mod per digit.
  void Seek(std::size_t pos, std::size_t base = 0) {
    std::fill(digits_.begin(), digits_.end(), 0);
    value_ = base;
    // Position 0 divides by nothing, so an empty domain (radix 0) is safe.
    for (std::size_t j = 0; pos != 0 && j < digits_.size(); ++j) {
      digits_[j] = pos % radix_;
      pos /= radix_;
      value_ += digits_[j] * weights_[j];
    }
  }

  std::size_t value() const { return value_; }

  /// Steps to the next position; false past the last one, where every
  /// digit has wrapped back to 0.
  bool Next() {
    for (std::size_t j = 0; j < digits_.size(); ++j) {
      value_ += weights_[j];
      if (++digits_[j] < radix_) return true;
      digits_[j] = 0;
      value_ -= radix_ * weights_[j];
    }
    return false;
  }

 private:
  std::size_t radix_;
  const std::vector<std::size_t>& weights_;
  std::vector<std::size_t> digits_;
  std::size_t value_ = 0;
};

}  // namespace bvq

#endif  // BVQ_COMMON_INDEX_H_
