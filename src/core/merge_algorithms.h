// Copyright (c) 2026 The DeltaMerge Authors.
// The merge algorithms — the paper's primary contribution (§5, §6).
//
// A merge combines one column's main partition (dictionary-compressed) and
// delta partition (uncompressed + CSB+ tree) into a new main partition:
//
//   Step 1(a)  extract the delta dictionary U_D from the CSB+ tree (sorted
//              traversal, O(|U_D|)); the *modified* variant additionally
//              re-encodes every delta tuple as its U_D index so Step 2 works
//              on fixed-width codes (§5.3).
//   Step 1(b)  merge U_M and U_D into U'_M without duplicates; the modified
//              variant simultaneously fills the auxiliary translation tables
//              X_M[old_main_code] -> new_code and X_D[delta_code] ->
//              new_code (§5.3). Parallelized with merge-path partitioning
//              and the three-phase duplicate-removal scheme of §6.2.1.
//   Step 2(a)  new code width E'_C = ceil(log2 |U'_M|) (Eq. 4).
//   Step 2(b)  rewrite all N_M + N_D codes. Naive: materialize + binary
//              search (Eq. 5). Linear: one gather per tuple through X_M/X_D
//              (Eq. 6, paper Eq. 11: M'[i] <- X_M[M[i]]), run in blocks that
//              unpack and translate 512 codes at a time. Parallelized by
//              chunking tuples across threads (§6.2.2).
//
// All functions are deterministic: serial and parallel variants produce
// bit-identical outputs (tests assert this).

#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/merge_types.h"
#include "parallel/merge_path.h"
#include "parallel/prefix_sum.h"
#include "parallel/thread_team.h"
#include "simd/simd_kernels.h"
#include "storage/delta_partition.h"
#include "storage/main_partition.h"
#include "storage/unsorted_delta.h"
#include "util/bit_util.h"
#include "util/cycle_clock.h"
#include "util/macros.h"

namespace deltamerge {

// ---------------------------------------------------------------------------
// Step 1(a): delta dictionary extraction.
// ---------------------------------------------------------------------------

/// Output of Step 1(a): the sorted delta dictionary and (modified variant)
/// the per-tuple re-encoding of the delta partition.
template <size_t W>
struct DeltaDictionary {
  std::vector<FixedValue<W>> values;  ///< U_D, ascending, unique
  std::vector<uint32_t> codes;        ///< per delta tuple: rank in `values`;
                                      ///< empty unless recoding was requested
};

/// Extracts U_D by in-order CSB+ traversal. With `recode`, also scatters each
/// tuple's new fixed-width code through the postings lists (random access
/// into the code array — Eq. 8's (2L+4)·N_D traffic term). With a team of
/// size > 1, the scatter is parallelized per §6.2.1 scheme (ii): a single
/// thread builds the dictionary and cumulative tuple counts, then all threads
/// scatter disjoint value ranges balanced by tuple count.
template <size_t W>
DeltaDictionary<W> ExtractDeltaDictionary(const DeltaPartition<W>& delta,
                                          bool recode,
                                          ThreadTeam* team = nullptr) {
  DeltaDictionary<W> out;
  const uint64_t unique = delta.unique_values();
  out.values.reserve(unique);

  if (!recode) {
    delta.tree().ForEachSorted(
        [&](const FixedValue<W>& v, PostingsCursor) { out.values.push_back(v); });
    return out;
  }

  out.codes.resize(delta.size());

  if (team == nullptr || team->size() == 1) {
    uint32_t index = 0;
    delta.tree().ForEachSorted([&](const FixedValue<W>& v,
                                   PostingsCursor cursor) {
      out.values.push_back(v);
      for (; !cursor.Done(); cursor.Advance()) {
        out.codes[cursor.TupleId()] = index;
      }
      ++index;
    });
    return out;
  }

  // Scheme (ii): serial dictionary build, parallel scatter.
  std::vector<PostingsCursor> cursors;
  std::vector<uint64_t> cumulative;  // tuples before value i
  cursors.reserve(unique);
  cumulative.reserve(unique + 1);
  uint64_t running = 0;
  delta.tree().ForEachSorted(
      [&](const FixedValue<W>& v, PostingsCursor cursor) {
        out.values.push_back(v);
        cursors.push_back(cursor);
        cumulative.push_back(running);
        running += delta.tree().CountOf(v);
      });
  cumulative.push_back(running);

  const int nt = team->size();
  team->Run([&](int tid) {
    // Value range whose cumulative tuple counts cover this thread's share.
    // A value whose postings straddle a share boundary belongs entirely to
    // the later thread — both ends use the same "value containing tuple x"
    // rule, so adjacent ranges are disjoint and no tuple is scattered twice.
    const uint64_t tuple_begin = running * static_cast<uint64_t>(tid) / nt;
    const uint64_t tuple_end =
        running * (static_cast<uint64_t>(tid) + 1) / nt;
    const auto first = std::upper_bound(cumulative.begin(), cumulative.end(),
                                        tuple_begin) -
                       cumulative.begin() - 1;
    const auto last = std::upper_bound(cumulative.begin(), cumulative.end(),
                                       tuple_end) -
                      cumulative.begin() - 1;
    for (auto vi = first; vi < last && vi < static_cast<int64_t>(unique);
         ++vi) {
      PostingsCursor cursor = cursors[static_cast<size_t>(vi)];
      for (; !cursor.Done(); cursor.Advance()) {
        out.codes[cursor.TupleId()] = static_cast<uint32_t>(vi);
      }
    }
  });
  return out;
}

/// Step 1(a) for the §9 alternative append-only delta: the dictionary comes
/// from a merge-time sort of (value, tuple-id) pairs instead of a tree
/// traversal (see storage/unsorted_delta.h). The team parameter is accepted
/// for signature parity; the sort itself runs single-threaded.
template <size_t W>
DeltaDictionary<W> ExtractDeltaDictionary(
    const UnsortedDeltaPartition<W>& delta, bool recode,
    ThreadTeam* team = nullptr) {
  (void)team;
  DeltaDictionary<W> out;
  out.values = delta.BuildDictionary(recode ? &out.codes : nullptr);
  return out;
}

// ---------------------------------------------------------------------------
// Step 1(b): dictionary merge with duplicate removal (+ auxiliary tables).
// ---------------------------------------------------------------------------

/// Output of Step 1(b).
template <size_t W>
struct DictMergeOutput {
  std::vector<FixedValue<W>> merged;  ///< U'_M
  std::vector<uint32_t> x_main;       ///< X_M: |U_M| entries (if requested)
  std::vector<uint32_t> x_delta;      ///< X_D: |U_D| entries (if requested)
};

namespace merge_detail {

/// Merges um[a0..a1) and ud[b0..b1) into out at position `pos`, removing
/// duplicates, filling the translation tables if non-null. Callers must have
/// applied SkipBoundaryDuplicate. Returns the number of values written.
template <size_t W>
uint64_t MergeRangeWrite(std::span<const FixedValue<W>> um, uint64_t a0,
                         uint64_t a1, std::span<const FixedValue<W>> ud,
                         uint64_t b0, uint64_t b1, FixedValue<W>* out,
                         uint64_t pos, uint32_t* x_main, uint32_t* x_delta) {
  uint64_t i = a0, j = b0;
  const uint64_t start = pos;
  while (i < a1 || j < b1) {
    if (j >= b1 || (i < a1 && um[i] <= ud[j])) {
      const FixedValue<W> v = um[i];
      out[pos] = v;
      if (x_main != nullptr) x_main[i] = static_cast<uint32_t>(pos);
      ++i;
      if (j < b1 && ud[j] == v) {
        if (x_delta != nullptr) x_delta[j] = static_cast<uint32_t>(pos);
        ++j;
      }
    } else {
      out[pos] = ud[j];
      if (x_delta != nullptr) x_delta[j] = static_cast<uint32_t>(pos);
      ++j;
    }
    ++pos;
  }
  return pos - start;
}

}  // namespace merge_detail

/// Serial or parallel duplicate-removing merge of the two sorted
/// dictionaries. With `fill_aux` the translation tables are produced (the
/// modified Step 1(b)); without, only U'_M (the naive algorithm).
template <size_t W>
DictMergeOutput<W> MergeDictionaries(std::span<const FixedValue<W>> um,
                                     std::span<const FixedValue<W>> ud,
                                     bool fill_aux,
                                     ThreadTeam* team = nullptr) {
  DictMergeOutput<W> out;
  if (fill_aux) {
    out.x_main.resize(um.size());
    out.x_delta.resize(ud.size());
  }
  uint32_t* xm = fill_aux ? out.x_main.data() : nullptr;
  uint32_t* xd = fill_aux ? out.x_delta.data() : nullptr;

  const uint64_t n = um.size();
  const uint64_t m = ud.size();
  const uint64_t total = n + m;

  if (team == nullptr || team->size() == 1 || total < 2048) {
    out.merged.resize(total);  // upper bound; shrink below
    const uint64_t written = merge_detail::MergeRangeWrite<W>(
        um, 0, n, ud, 0, m, out.merged.data(), 0, xm, xd);
    out.merged.resize(written);
    return out;
  }

  const int nt = team->size();
  // Thread t owns the half-open range between the *adjusted* splits of
  // diagonals d_t and d_{t+1}. Adjusting a split (SkipBoundaryDuplicate) may
  // advance its delta index past a boundary duplicate; because thread t's
  // range end equals thread t+1's adjusted start, the duplicate's b-copy then
  // falls inside thread t's range, whose local merge collapses it (emitting
  // the a-copy once and pointing X_D at it). Phase-1 counts use the raw end
  // split; collapses do not emit, so counts and phase-3 writes agree.
  std::vector<uint64_t> as(static_cast<size_t>(nt) + 1);
  std::vector<uint64_t> bs(static_cast<size_t>(nt) + 1);
  std::vector<uint64_t> counter(static_cast<size_t>(nt) + 1, 0);

  // Phase 1: split, fix up boundary duplicates, count unique outputs.
  team->Run([&](int tid) {
    const uint64_t d0 = total * static_cast<uint64_t>(tid) / nt;
    const uint64_t d1 = total * (static_cast<uint64_t>(tid) + 1) / nt;
    auto [i0, j0] = MergePathSplit(um, ud, d0);
    auto [i1, j1] = MergePathSplit(um, ud, d1);
    SkipBoundaryDuplicate(um, &i0, ud, &j0, ud.size());
    as[static_cast<size_t>(tid)] = i0;
    bs[static_cast<size_t>(tid)] = j0;
    if (tid == nt - 1) {
      as[static_cast<size_t>(nt)] = i1;
      bs[static_cast<size_t>(nt)] = j1;
    }
    counter[static_cast<size_t>(tid)] =
        CountUniqueMergeRange(um, i0, i1, ud, j0, j1);
  });

  // Phase 2: exclusive prefix sum of the counter array (Hillis-Steele in the
  // general-purpose helper; the array here has only N_T + 1 entries).
  // counter[t] becomes thread t's write offset; the total is |U'_M|.
  const uint64_t merged_size =
      ExclusivePrefixSum(std::span<uint64_t>(counter.data(), counter.size()));
  out.merged.resize(merged_size);

  // Phase 3: re-merge each range, writing at the prefix offsets and filling
  // the translation tables.
  team->Run([&](int tid) {
    const size_t t = static_cast<size_t>(tid);
    const uint64_t expect =
        (t + 1 <= static_cast<size_t>(nt) ? counter[t + 1] : merged_size) -
        counter[t];
    const uint64_t written = merge_detail::MergeRangeWrite<W>(
        um, as[t], as[t + 1], ud, bs[t], bs[t + 1], out.merged.data(),
        counter[t], xm, xd);
    DM_DCHECK(written == expect);
    (void)written;
    (void)expect;
  });

  return out;
}

// ---------------------------------------------------------------------------
// Step 2: updating the compressed values.
// ---------------------------------------------------------------------------

/// Linear Step 2(b) (§5.3): each output code is one gather through the
/// translation tables — out[i] = X_M[M[i]] for main tuples, X_D[code_D[k]]
/// for delta tuples. The rewrite runs in blocks of up to kStep2Block codes:
/// Unpack the block's main codes, translate them through X_M in place,
/// translate its delta codes through X_D behind them (a block that spans N_M
/// takes both legs), and append the block through the range's Writer.
/// Thread chunks and blocks start on 64-tuple boundaries, so Unpack runs
/// whole blocks and packed writes never share a word across threads.
template <size_t W>
PackedVector UpdateCompressedValuesLinear(
    const MainPartition<W>& main, std::span<const uint32_t> delta_codes,
    std::span<const uint32_t> x_main, std::span<const uint32_t> x_delta,
    uint8_t new_bits, ThreadTeam* team = nullptr) {
  constexpr uint64_t kStep2Block = 512;  // a multiple of Unpack's 64
  const uint64_t nm = main.size();
  const uint64_t nd = delta_codes.size();
  PackedVector out(nm + nd, new_bits);

  auto run_range = [&](uint64_t begin, uint64_t end) {
    typename PackedVector::Writer writer(out, begin);
    uint32_t block[kStep2Block];
    for (uint64_t i = begin; i < end;) {
      const uint64_t n = std::min(kStep2Block, end - i);
      const uint64_t n_main = i < nm ? std::min(n, nm - i) : 0;
      if (n_main > 0) {
        main.codes().Unpack(i, n_main, block);
        simd::TranslateCodes32(block, n_main, x_main.data(), block);
      }
      if (n_main < n) {
        simd::TranslateCodes32(delta_codes.data() + (i + n_main - nm),
                               n - n_main, x_delta.data(), block + n_main);
      }
      for (uint64_t k = 0; k < n; ++k) writer.Append(block[k]);
      i += n;
    }
  };

  if (team == nullptr || team->size() == 1) {
    run_range(0, nm + nd);
  } else {
    ParallelFor(*team, nm + nd, /*align=*/64,
                [&](uint64_t begin, uint64_t end, int) {
                  run_range(begin, end);
                });
  }
  return out;
}

/// Naive Step 2(b) (§5.2): materialize every main tuple through the old
/// dictionary, then binary-search the merged dictionary; delta tuples search
/// their raw uncompressed values. O((N_M + N_D) log |U'_M|) — Eq. 5.
/// DeltaT is any delta layout exposing size() and Get(tid).
template <size_t W, typename DeltaT>
PackedVector UpdateCompressedValuesNaive(
    const MainPartition<W>& main, const DeltaT& delta,
    std::span<const FixedValue<W>> merged_dict, uint8_t new_bits,
    ThreadTeam* team = nullptr) {
  const uint64_t nm = main.size();
  const uint64_t nd = delta.size();
  PackedVector out(nm + nd, new_bits);
  const Dictionary<W>& old_dict = main.dictionary();

  auto rank_of = [&](const FixedValue<W>& v) -> uint32_t {
    const auto it =
        std::lower_bound(merged_dict.begin(), merged_dict.end(), v);
    DM_DCHECK(it != merged_dict.end() && *it == v);
    return static_cast<uint32_t>(it - merged_dict.begin());
  };

  auto run_range = [&](uint64_t begin, uint64_t end) {
    typename PackedVector::Writer writer(out, begin);
    uint64_t i = begin;
    if (i < nm) {
      PackedVector::Reader reader(main.codes(), i);
      const uint64_t main_end = std::min(end, nm);
      for (; i < main_end; ++i) {
        // Forced materialization: code -> uncompressed value -> re-search.
        writer.Append(rank_of(old_dict.At(reader.Next())));
      }
    }
    for (; i < end; ++i) {
      writer.Append(rank_of(delta.Get(i - nm)));
    }
  };

  if (team == nullptr || team->size() == 1) {
    run_range(0, nm + nd);
  } else {
    ParallelFor(*team, nm + nd, /*align=*/64,
                [&](uint64_t begin, uint64_t end, int) {
                  run_range(begin, end);
                });
  }
  return out;
}

// ---------------------------------------------------------------------------
// Column-level driver.
// ---------------------------------------------------------------------------

/// Merges one column's partitions into a fresh main partition, recording the
/// per-step cycle breakdown in *stats (if non-null). Pass a team for the
/// §6.2-parallel execution; nullptr or a 1-thread team runs the scalar code.
/// DeltaT is either DeltaPartition<W> (CSB+-indexed, the paper's design) or
/// UnsortedDeltaPartition<W> (the §9 alternative).
template <size_t W, typename DeltaT = DeltaPartition<W>>
MainPartition<W> MergeColumnPartitions(const MainPartition<W>& main,
                                       const DeltaT& delta,
                                       const MergeOptions& options,
                                       ThreadTeam* team = nullptr,
                                       MergeStats* stats = nullptr) {
  MergeStats local;
  const uint64_t t_begin = CycleClock::Now();

  const bool linear = options.algorithm == MergeAlgorithm::kLinear;
  const bool recode = linear && options.recode_delta;

  // Step 1(a).
  uint64_t t0 = CycleClock::Now();
  DeltaDictionary<W> dd = ExtractDeltaDictionary(delta, recode, team);
  local.cycles_step1a = CycleClock::Now() - t0;

  // Step 1(b).
  t0 = CycleClock::Now();
  DictMergeOutput<W> dm = MergeDictionaries<W>(
      main.dictionary().values(), std::span<const FixedValue<W>>(dd.values),
      /*fill_aux=*/linear, team);
  local.cycles_step1b = CycleClock::Now() - t0;

  // Step 2(a): E'_C (Eq. 4).
  const uint8_t new_bits = BitsForCardinality(dm.merged.size());

  // Step 2(b).
  t0 = CycleClock::Now();
  PackedVector codes;
  if (linear) {
    codes = UpdateCompressedValuesLinear<W>(
        main, std::span<const uint32_t>(dd.codes),
        std::span<const uint32_t>(dm.x_main),
        std::span<const uint32_t>(dm.x_delta), new_bits, team);
  } else {
    codes = UpdateCompressedValuesNaive<W>(
        main, delta, std::span<const FixedValue<W>>(dm.merged), new_bits,
        team);
  }
  local.cycles_step2 = CycleClock::Now() - t0;

  local.cycles_total = CycleClock::Now() - t_begin;
  local.columns = 1;
  local.nm = main.size();
  local.nd = delta.size();
  local.um = main.unique_values();
  local.ud = dd.values.size();
  local.u_merged = dm.merged.size();
  local.ec_bits_old = main.code_bits();
  local.ec_bits_new = new_bits;
  if (stats != nullptr) stats->Accumulate(local);

  return MainPartition<W>::FromParts(
      Dictionary<W>::FromSortedUnique(std::move(dm.merged)),
      std::move(codes));
}

}  // namespace deltamerge
