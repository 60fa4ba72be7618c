#include "db/relation.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/index.h"
#include "common/strings.h"

namespace bvq {

namespace {

// Lexicographic comparison of two rows of length `arity`.
bool RowLess(const Value* a, const Value* b, std::size_t arity) {
  for (std::size_t j = 0; j < arity; ++j) {
    if (a[j] != b[j]) return a[j] < b[j];
  }
  return false;
}

bool RowEq(const Value* a, const Value* b, std::size_t arity) {
  return std::memcmp(a, b, arity * sizeof(Value)) == 0;
}

// SplitMix64 finalizer: spreads a weak hash over all 64 bits so the
// commutative (wrapping-sum) tuple combination below doesn't let nearby
// tuples cancel each other out.
std::uint64_t Mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

// FNV-1a over the tuple's values (4 little-endian bytes each, independent of
// host endianness), finalized with Mix64. The per-tuple hashes are combined
// with wrapping + so the fingerprint is insertion-order independent.
std::uint64_t TupleFingerprint(const Value* t, std::size_t arity) {
  std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (std::size_t j = 0; j < arity; ++j) {
    std::uint32_t v = t[j];
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (b * 8)) & 0xffu;
      h *= 1099511628211ull;  // FNV prime
    }
  }
  return Mix64(h);
}

}  // namespace

Relation Relation::FromTuples(std::size_t arity,
                              const std::vector<Tuple>& tuples) {
  RelationBuilder b(arity);
  for (const Tuple& t : tuples) b.Add(t);
  return b.Build();
}

Relation Relation::FromTuples(std::size_t arity,
                              std::initializer_list<Tuple> tuples) {
  RelationBuilder b(arity);
  for (const Tuple& t : tuples) b.Add(t);
  return b.Build();
}

Result<Relation> Relation::Full(std::size_t arity, std::size_t domain_size) {
  constexpr std::size_t kLimit = std::size_t{1} << 28;
  if (TupleIndexer::Exceeds(domain_size, arity, kLimit)) {
    return Status::ResourceExhausted(
        StrCat("Full relation D^", arity, " with |D|=", domain_size,
               " exceeds the size limit"));
  }
  TupleIndexer idx(domain_size, arity);
  Relation r(arity);
  r.size_ = idx.NumTuples();
  r.data_.resize(r.size_ * arity);
  // Enumerate with the leftmost coordinate most significant so rows come
  // out in lexicographic order, preserving the sorted invariant.
  for (std::size_t rank = 0; rank < r.size_; ++rank) {
    std::size_t rem = rank;
    for (std::size_t j = arity; j-- > 0;) {
      r.data_[rank * arity + (arity - 1 - j)] =
          static_cast<Value>(rem / idx.Stride(j));
      rem %= idx.Stride(j);
    }
  }
  for (std::size_t rank = 0; rank < r.size_; ++rank) {
    r.fp_sum_ += TupleFingerprint(r.tuple(rank), arity);
  }
  return r;
}

Relation Relation::Proposition(bool value) {
  Relation r(0);
  if (value) {
    r.size_ = 1;  // the single empty tuple
    r.fp_sum_ = TupleFingerprint(nullptr, 0);
  }
  return r;
}

std::uint64_t Relation::fingerprint() const {
  // Fold arity and cardinality in so {()} vs {} and same-sum coincidences
  // across arities stay distinguishable.
  std::uint64_t h = Mix64(static_cast<std::uint64_t>(arity_) + 1);
  h = Mix64(h + static_cast<std::uint64_t>(size_));
  return Mix64(h + fp_sum_);
}

bool Relation::Contains(const Value* t) const {
  if (arity_ == 0) return size_ > 0;
  std::size_t lo = 0, hi = size_;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    const Value* row = tuple(mid);
    if (RowEq(row, t, arity_)) return true;
    if (RowLess(row, t, arity_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

bool Relation::Insert(const Tuple& t) {
  assert(t.size() == arity_);
  if (arity_ == 0) {
    if (size_ > 0) return false;
    size_ = 1;
    fp_sum_ += TupleFingerprint(nullptr, 0);
    return true;
  }
  // Find insertion point.
  std::size_t lo = 0, hi = size_;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (RowLess(tuple(mid), t.data(), arity_)) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < size_ && RowEq(tuple(lo), t.data(), arity_)) return false;
  data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(lo * arity_),
               t.begin(), t.end());
  ++size_;
  fp_sum_ += TupleFingerprint(t.data(), arity_);
  return true;
}

std::size_t Relation::MinDomainSize() const {
  Value max_v = 0;
  bool any = false;
  for (Value v : data_) {
    max_v = std::max(max_v, v);
    any = true;
  }
  return any ? static_cast<std::size_t>(max_v) + 1 : 0;
}

std::string Relation::ToString() const {
  std::string out = "{";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i > 0) out += ",";
    out += "(";
    for (std::size_t j = 0; j < arity_; ++j) {
      if (j > 0) out += ",";
      out += std::to_string(tuple(i)[j]);
    }
    out += ")";
  }
  out += "}";
  return out;
}

Relation RelationBuilder::Build() {
  Relation r(arity_);
  if (arity_ == 0) {
    r.size_ = num_rows_ > 0 ? 1 : 0;
    if (r.size_ > 0) r.fp_sum_ = TupleFingerprint(nullptr, 0);
    num_rows_ = 0;
    data_.clear();
    return r;
  }
  const std::size_t n_rows = data_.size() / arity_;
  std::vector<std::size_t> order(n_rows);
  std::iota(order.begin(), order.end(), 0);
  const Value* base = data_.data();
  const std::size_t arity = arity_;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return RowLess(base + a * arity, base + b * arity, arity);
  });
  r.data_.reserve(data_.size());
  for (std::size_t i = 0; i < n_rows; ++i) {
    const Value* row = base + order[i] * arity;
    if (i > 0 && RowEq(base + order[i - 1] * arity, row, arity)) continue;
    r.data_.insert(r.data_.end(), row, row + arity);
    r.fp_sum_ += TupleFingerprint(row, arity);
  }
  r.size_ = r.data_.size() / arity;
  data_.clear();
  num_rows_ = 0;
  return r;
}

Relation RelationBuilder::BuildSorted() {
  if (arity_ == 0) return Build();
  Relation r(arity_);
  const std::size_t arity = arity_;
  r.size_ = data_.size() / arity;
  for (std::size_t i = 0; i < r.size_; ++i) {
    const Value* row = data_.data() + i * arity;
    assert(i == 0 || RowLess(row - arity, row, arity));
    r.fp_sum_ += TupleFingerprint(row, arity);
  }
  r.data_ = std::move(data_);
  data_.clear();
  num_rows_ = 0;
  return r;
}

}  // namespace bvq
