#include "db/assignment_set.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

namespace bvq {

namespace {

// Runs fill(dst, begin, end) over the chunks of [0, items). Chunk 0 fills
// `out` itself and every later chunk a private shard, OR-ed into `out` in
// chunk order afterwards. OR is commutative, so the result is the same for
// every chunking, and a single chunk (one lane) allocates no extra cube.
template <typename Fill>
void FillSharded(ThreadPool* pool, std::size_t items, std::size_t grain,
                 DynamicBitset* out, const Fill& fill) {
  std::vector<DynamicBitset> shards(ThreadPool::NumChunks(items, grain));
  ForEachChunk(pool, items, grain,
               [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                 if (chunk == 0) {
                   fill(*out, begin, end);
                   return;
                 }
                 shards[chunk] = DynamicBitset(out->size());
                 fill(shards[chunk], begin, end);
               });
  // A chunk skipped by cancellation leaves its shard empty.
  for (const DynamicBitset& shard : shards) {
    if (shard.size() == out->size()) *out |= shard;
  }
}

// ExistsVar (kForAll false) and ForAllVar (true): every line of n bits
// along the axis of `stride` becomes all ones iff any / all of its bits
// are set.
template <bool kForAll>
void Quantify(const DynamicBitset& in, std::size_t n, std::size_t stride,
              ThreadPool* pool, DynamicBitset* out) {
  const std::size_t total = in.size();
  if (total == 0) return;
  if (stride % 64 == 0) {
    // Word slab: the lines through the 64 bits of one word sit n whole
    // words `stride_w` apart, so they cost n word reads, one AND/OR each,
    // and n word writes. Items write disjoint words; any chunking is
    // race-free.
    const std::size_t stride_w = stride / 64;
    const std::size_t block_w = stride_w * n;
    const std::size_t items = in.num_words() / n;
    const uint64_t* src = in.word_data();
    uint64_t* dst = out->word_data();
    ForEachChunk(
        pool, items, ChunkGrain(items, total, Lanes(pool), 2),
        [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::size_t base = (i / stride_w) * block_w + i % stride_w;
            uint64_t acc = kForAll ? ~uint64_t{0} : 0;
            for (std::size_t v = 0; v < n; ++v) {
              const uint64_t word = src[base + v * stride_w];
              acc = kForAll ? acc & word : acc | word;
            }
            for (std::size_t v = 0; v < n; ++v) dst[base + v * stride_w] = acc;
          }
        });
    return;
  }
  // Lines of neighbouring bases share words, so chunks of base ranks (axis
  // coordinate 0) fill shards.
  const std::size_t bases = total / n;
  const std::size_t grain = ChunkGrain(bases, total, Lanes(pool), 2);
  if (stride == 1) {
    // The line through base b is the n consecutive bits from b * n on: one
    // masked test and one fill per word of it.
    FillSharded(
        pool, bases, grain, out,
        [&](DynamicBitset& dst, std::size_t begin, std::size_t end) {
          for (std::size_t b = begin; b < end; ++b) {
            const std::size_t line = b * n;
            bool hit = kForAll;
            for (std::size_t i = 0; i < n && hit == kForAll; i += 64) {
              const std::size_t len = std::min<std::size_t>(64, n - i);
              const uint64_t word = in.ReadBits(line + i, len);
              if (kForAll ? word != DynamicBitset::LowBits(len) : word != 0) {
                hit = !kForAll;
              }
            }
            if (!hit) continue;
            for (std::size_t i = 0; i < n; i += 64) {
              dst.OrBits(line + i,
                         DynamicBitset::LowBits(std::min<std::size_t>(64, n - i)));
            }
          }
        });
    return;
  }
  // Any other stride: for each axis value, the lines through a run of
  // consecutive bases of one block pass through consecutive bits, so a run
  // of up to 64 bases costs one unaligned word read per axis value, one
  // AND/OR each, and one word write per axis value. Runs stop at the
  // stride (the block's next axis value) and at the chunk end.
  const std::size_t block = stride * n;
  FillSharded(
      pool, bases, grain, out,
      [&](DynamicBitset& dst, std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end;) {
          const std::size_t minor = b % stride;
          const std::size_t base = b / stride * block + minor;
          const std::size_t len =
              std::min({std::size_t{64}, stride - minor, end - b});
          uint64_t acc = kForAll ? DynamicBitset::LowBits(len) : 0;
          for (std::size_t v = 0; v < n; ++v) {
            const uint64_t word = in.ReadBits(base + v * stride, len);
            acc = kForAll ? acc & word : acc | word;
          }
          if (acc != 0) {
            for (std::size_t v = 0; v < n; ++v) dst.OrBits(base + v * stride, acc);
          }
          b += len;
        }
      });
}

}  // namespace

AssignmentSet::AssignmentSet(std::size_t domain_size, std::size_t num_vars)
    : indexer_(domain_size, num_vars), bits_(indexer_.NumTuples(), false) {}

AssignmentSet AssignmentSet::Full(std::size_t domain_size,
                                  std::size_t num_vars) {
  AssignmentSet s(domain_size, num_vars);
  s.bits_.SetAll();
  return s;
}

AssignmentSet& AssignmentSet::AndWith(const AssignmentSet& other) {
  bits_ &= other.bits_;
  return *this;
}

AssignmentSet& AssignmentSet::OrWith(const AssignmentSet& other) {
  bits_ |= other.bits_;
  return *this;
}

AssignmentSet& AssignmentSet::Complement() {
  bits_.FlipAll();
  return *this;
}

AssignmentSet& AssignmentSet::SubtractWith(const AssignmentSet& other) {
  bits_.SubtractInPlace(other.bits_);
  return *this;
}

AssignmentSet AssignmentSet::ExistsVar(std::size_t var,
                                       ThreadPool* pool) const {
  assert(var < num_vars());
  AssignmentSet out(domain_size(), num_vars());
  Quantify<false>(bits_, domain_size(), indexer_.Stride(var), pool,
                  &out.bits_);
  return out;
}

AssignmentSet AssignmentSet::ForAllVar(std::size_t var,
                                       ThreadPool* pool) const {
  assert(var < num_vars());
  AssignmentSet out(domain_size(), num_vars());
  Quantify<true>(bits_, domain_size(), indexer_.Stride(var), pool,
                 &out.bits_);
  return out;
}

AssignmentSet AssignmentSet::Equality(std::size_t domain_size,
                                      std::size_t num_vars, std::size_t var_i,
                                      std::size_t var_j, ThreadPool* pool) {
  // The diagonal is the atom Id(x_i, x_j) over the identity relation.
  RelationBuilder identity(2);
  for (std::size_t v = 0; v < domain_size; ++v) {
    const Value row[2] = {static_cast<Value>(v), static_cast<Value>(v)};
    identity.Add(row);
  }
  return FromAtom(domain_size, num_vars, identity.Build(), {var_i, var_j},
                  pool);
}

AssignmentSet AssignmentSet::VarEqualsConst(std::size_t domain_size,
                                            std::size_t num_vars,
                                            std::size_t var_i, Value c) {
  return FromAtom(domain_size, num_vars, Relation::FromTuples(1, {{c}}),
                  {var_i});
}

AssignmentSet AssignmentSet::FromAtom(std::size_t domain_size,
                                      std::size_t num_vars,
                                      const Relation& relation,
                                      const std::vector<std::size_t>& args,
                                      ThreadPool* pool) {
  assert(args.size() == relation.arity());
  AssignmentSet out(domain_size, num_vars);
  const TupleIndexer& idx = out.indexer_;
  const std::size_t m = args.size();
  if (m == 0) {
    if (relation.AsBool()) out.bits_.SetAll();
    return out;
  }
  // Row-driven fill: each row fixes the coordinates in `args`, and an
  // odometer enumerates the free rest. The work is sum_rows n^{#free} <=
  // n^k, far less than probing all n^k points for sparse relations.
  std::vector<std::size_t> arg_of_coord(num_vars, m);  // m = "free"
  bool dup_args = false;
  for (std::size_t j = 0; j < m; ++j) {
    if (arg_of_coord[args[j]] != m) {
      dup_args = true;
    } else {
      arg_of_coord[args[j]] = j;
    }
  }
  std::vector<std::size_t> free_strides;
  for (std::size_t c = 0; c < num_vars; ++c) {
    if (arg_of_coord[c] == m) free_strides.push_back(idx.Stride(c));
  }
  const std::size_t rows = relation.size();
  FillSharded(
      pool, rows, ChunkGrain(rows, idx.NumTuples(), Lanes(pool), 2),
      &out.bits_,
      [&](DynamicBitset& dst, std::size_t begin, std::size_t end) {
        RadixWalker odometer(domain_size, free_strides);
        for (std::size_t i = begin; i < end; ++i) {
          const Value* row = relation.tuple(i);
          // Rows with out-of-domain values, or that disagree on a repeated
          // argument, match no assignment.
          bool consistent = true;
          for (std::size_t j = 0; j < m && consistent; ++j) {
            consistent = row[j] < domain_size &&
                         (!dup_args || row[arg_of_coord[args[j]]] == row[j]);
          }
          if (!consistent) continue;
          std::size_t base = 0;
          for (std::size_t c = 0; c < num_vars; ++c) {
            if (arg_of_coord[c] != m) {
              base += row[arg_of_coord[c]] * idx.Stride(c);
            }
          }
          odometer.Seek(0, base);
          do {
            dst.Set(odometer.value());
          } while (odometer.Next());
        }
      });
  return out;
}

AssignmentSet AssignmentSet::Remap(const std::vector<std::size_t>& targets,
                                   const std::vector<std::size_t>& sources,
                                   ThreadPool* pool) const {
  assert(targets.size() == sources.size());
  // No coordinate (k = 0, so no targets) or no assignment: nothing moves.
  if (num_vars() == 0 || indexer_.NumTuples() == 0) return *this;
  // The rank read for output rank r is linear in r's digits:
  // read(r) = sum_c d_c(r) * w_c, where w_c is stride_c for a coordinate
  // that is not a target, 0 for a target, plus stride_t for each target t
  // whose source is c.
  std::vector<std::size_t> weights(num_vars());
  for (std::size_t c = 0; c < num_vars(); ++c) weights[c] = indexer_.Stride(c);
  for (std::size_t t : targets) weights[t] = 0;
  for (std::size_t j = 0; j < targets.size(); ++j) {
    weights[sources[j]] += indexer_.Stride(targets[j]);
  }
  AssignmentSet out(domain_size(), num_vars());
  const std::size_t n = domain_size();
  const std::size_t total = indexer_.NumTuples();
  // Output lines of n bits along coordinate 0. The line with digits
  // d_1..d_{k-1} reads from base(line) = sum_{c >= 1} d_c * w_c, and its
  // bit d_0 from base(line) + d_0 * w_0, so w_0 sets how a line is read:
  // w_0 = 1 is a shifted word copy (the identity remap among them), w_0 = 0
  // broadcasts one source bit to the whole line, and any other w_0 gathers
  // one bit per output bit at that stride.
  const std::size_t w0 = weights[0];
  const std::vector<std::size_t> line_weights(weights.begin() + 1,
                                              weights.end());
  // Word-aligned output chunks: a chunk starts and ends lines anywhere, but
  // writes only its own words, whatever its lines read.
  ForEachChunk(
      pool, total, BitGrain(total, Lanes(pool)),
      [&](std::size_t /*chunk*/, std::size_t begin, std::size_t end) {
        RadixWalker line(n, line_weights);
        line.Seek(begin / n);
        for (std::size_t pos = begin; pos < end; line.Next()) {
          const std::size_t d0 = pos % n;
          const std::size_t len = std::min(n - d0, end - pos);
          const std::size_t read = line.value() + d0 * w0;
          const bool broadcast = w0 == 0 && bits_.Test(read);
          for (std::size_t i = 0; i < len; i += 64) {
            const std::size_t m = std::min<std::size_t>(64, len - i);
            uint64_t word = 0;
            if (w0 == 1) {
              word = bits_.ReadBits(read + i, m);
            } else if (broadcast) {
              word = DynamicBitset::LowBits(m);
            } else if (w0 != 0) {
              for (std::size_t j = 0; j < m; ++j) {
                word |= static_cast<uint64_t>(bits_.Test(read + (i + j) * w0))
                        << j;
              }
            }
            if (word != 0) out.bits_.OrBits(pos + i, word);
          }
          pos += len;
        }
      });
  return out;
}

ProjectedAnswer AssignmentSet::Project(
    const std::vector<std::size_t>& vars) const {
  const std::size_t n = domain_size();
  const std::size_t k = num_vars();
  ProjectedAnswer out;
  out.domain_size_ = n;
  std::vector<std::size_t> distinct;
  for (std::size_t v : vars) {
    assert(v < k);
    const auto it = std::find(distinct.begin(), distinct.end(), v);
    out.columns_.push_back(static_cast<std::size_t>(it - distinct.begin()));
    if (it == distinct.end()) distinct.push_back(v);
  }
  out.num_distinct_ = distinct.size();
  // Answer-rank weight of each cube coordinate: n^(d-1-j) for the j-th
  // distinct answer variable, 0 for a coordinate the answer drops.
  std::vector<std::size_t> weight(k, 0);
  std::size_t size = 1;
  for (std::size_t j = distinct.size(); j-- > 0;) {
    weight[distinct[j]] = size;
    size *= n;
  }
  out.bits_ = DynamicBitset(size);
  if (k == 0) {
    if (bits_.Test(0)) out.bits_.Set(0);
    return out;
  }
  if (n == 0) return out;
  // Lines of n bits along coordinate 0, with the other coordinates walked
  // dropped-first, then by ascending answer weight. The lines of one group
  // (all values of the dropped coordinates) share their answer ranks, so
  // they are OR-ed into `line` a word at a time and written once, and
  // consecutive groups write neighbouring answer bits.
  std::vector<std::size_t> order(k - 1);
  std::iota(order.begin(), order.end(), 1);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return weight[a] < weight[b];
                   });
  std::vector<std::size_t> read_weights, write_weights;
  std::size_t group = 1;
  for (std::size_t c : order) {
    read_weights.push_back(indexer_.Stride(c));
    write_weights.push_back(weight[c]);
    if (weight[c] == 0) group *= n;
  }
  RadixWalker read(n, read_weights);
  RadixWalker write(n, write_weights);
  const std::size_t line_words = (n + 63) / 64;
  std::vector<uint64_t> line(line_words);
  const std::size_t step = weight[0];
  const std::size_t lines = indexer_.NumTuples() / n;
  for (std::size_t l = 0; l < lines; l += group) {
    const std::size_t base = write.value();
    uint64_t any = 0;
    std::fill(line.begin(), line.end(), 0);
    for (std::size_t g = 0; g < group; ++g, read.Next(), write.Next()) {
      for (std::size_t i = 0; i < line_words; ++i) {
        const uint64_t word = bits_.ReadBits(
            read.value() + 64 * i, std::min<std::size_t>(64, n - 64 * i));
        line[i] |= word;
        any |= word;
      }
    }
    if (any == 0) continue;
    if (step == 0) {
      out.bits_.Set(base);
      continue;
    }
    for (std::size_t i = 0; i < line_words; ++i) {
      if (step == 1) {
        out.bits_.OrBits(base + 64 * i, line[i]);
        continue;
      }
      for (uint64_t word = line[i]; word != 0; word &= word - 1) {
        const std::size_t v = 64 * i + std::countr_zero(word);
        out.bits_.Set(base + v * step);
      }
    }
  }
  return out;
}

Relation ProjectedAnswer::FirstRows(std::size_t limit) const {
  const std::size_t n = domain_size_;
  RelationBuilder rows(arity());
  std::vector<Value> digits(num_distinct_);
  std::vector<Value> row(arity());
  std::size_t emitted = 0;
  for (std::size_t r = bits_.FindFirst(); r < bits_.size() && emitted < limit;
       r = bits_.FindNext(r + 1), ++emitted) {
    std::size_t rest = r;
    for (std::size_t j = num_distinct_; j-- > 0;) {
      digits[j] = static_cast<Value>(rest % n);
      rest /= n;
    }
    for (std::size_t c = 0; c < row.size(); ++c) row[c] = digits[columns_[c]];
    rows.Add(row.data());
  }
  return rows.BuildSorted();
}

AssignmentSet& AssignmentSet::RestrictToAtom(
    const Relation& relation, const std::vector<std::size_t>& args) {
  AssignmentSet atom =
      FromAtom(domain_size(), num_vars(), relation, args);
  return AndWith(atom);
}

}  // namespace bvq
