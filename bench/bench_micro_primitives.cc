// Copyright (c) 2026 The DeltaMerge Authors.
// google-benchmark micro-benchmarks of the library's hot primitives:
// packed-vector access and writes, CSB+ insert/lookup, dictionary merge,
// merge-path splits, the durability checksum, the checkpoint dictionary
// codec. These are the per-operation costs behind the figure benches.

#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "core/merge_algorithms.h"
#include "model/machine_profile.h"
#include "parallel/merge_path.h"
#include "simd/simd_kernels.h"
#include "storage/csb_tree.h"
#include "storage/dictionary.h"
#include "storage/packed_vector.h"
#include "util/crc32.h"
#include "util/cycle_clock.h"
#include "util/file_io.h"
#include "util/random.h"
#include "workload/table_builder.h"
#include "workload/value_generator.h"

namespace deltamerge {
namespace {

void BM_PackedVectorGet(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 20;
  PackedVector v(n, bits);
  Rng rng(1);
  for (uint64_t i = 0; i < n; ++i) {
    v.Set(i, static_cast<uint32_t>(rng.Next() & LowBitsMask(bits)));
  }
  uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(v.Get(i));
    i = (i + 997) & (n - 1);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_PackedVectorGet)->Arg(7)->Arg(17)->Arg(27);

void BM_PackedVectorSequentialRead(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 20;
  PackedVector v(n, bits);
  for (auto _ : state) {
    PackedVector::Reader r(v);
    uint64_t sum = 0;
    for (uint64_t i = 0; i < n; ++i) sum += r.Next();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PackedVectorSequentialRead)->Arg(7)->Arg(27);

// Writing packed codes through Writer::Append, one code at a time (the
// table builders, both Step 2s), in ns per code.
void BM_PackedWrite(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 16;  // input and output stay in L2
  std::vector<uint32_t> in(n);
  Rng rng(12);
  for (uint32_t& c : in) {
    c = static_cast<uint32_t>(rng.Next() & LowBitsMask(bits));
  }
  PackedVector v(n, bits);
  double writer_ns = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    PackedVector::Writer w(v);
    for (uint64_t i = 0; i < n; ++i) w.Append(in[i]);
    benchmark::DoNotOptimize(v.words());
    benchmark::ClobberMemory();
    writer_ns += std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - t0)
                     .count();
  }
  const double codes = static_cast<double>(state.iterations()) * n;
  state.counters["writer_ns_per_code"] = writer_ns / codes;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_PackedWrite)->Arg(5)->Arg(17)->Arg(27);

void BM_CsbTreeInsert(benchmark::State& state) {
  const uint64_t domain = static_cast<uint64_t>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    state.PauseTiming();
    CsbTree<8> tree;
    state.ResumeTiming();
    for (uint32_t i = 0; i < 100000; ++i) {
      tree.Insert(Value8::FromKey(rng.Below(domain)), i);
    }
    benchmark::DoNotOptimize(tree.unique_keys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_CsbTreeInsert)->Arg(1000)->Arg(100000)->Arg(100000000);

// The same 100k draws as BM_CsbTreeInsert, handed to an empty tree as one
// batch: one radix sort, then a bottom-up bulk load.
void BM_CsbTreeInsertBatch(benchmark::State& state) {
  const uint64_t domain = static_cast<uint64_t>(state.range(0));
  Rng rng(2);
  std::vector<Value8> values(100000);
  for (auto _ : state) {
    state.PauseTiming();
    for (Value8& v : values) v = Value8::FromKey(rng.Below(domain));
    CsbTree<8> tree;
    state.ResumeTiming();
    tree.InsertBatch(values, 0);
    benchmark::DoNotOptimize(tree.unique_keys());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 100000);
}
BENCHMARK(BM_CsbTreeInsertBatch)->Arg(1000)->Arg(100000)->Arg(100000000);

void BM_CsbTreeLookup(benchmark::State& state) {
  CsbTree<8> tree;
  Rng rng(3);
  std::vector<uint64_t> keys;
  for (uint32_t i = 0; i < 100000; ++i) {
    const uint64_t k = rng.Next();
    keys.push_back(k);
    tree.Insert(Value8::FromKey(k), i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.CountOf(Value8::FromKey(keys[i])));
    i = (i + 131) % keys.size();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CsbTreeLookup);

void BM_DictionaryMerge(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  auto ka = GenerateDistinctKeys(n, 8, 4);
  auto kb = GenerateDistinctKeys(n / 10, 8, 5);
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  std::vector<Value8> a, b;
  for (uint64_t k : ka) a.push_back(Value8::FromKey(k));
  for (uint64_t k : kb) b.push_back(Value8::FromKey(k));
  for (auto _ : state) {
    auto out = MergeDictionaries<8>(a, b, /*fill_aux=*/true);
    benchmark::DoNotOptimize(out.merged.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n + n / 10));
}
BENCHMARK(BM_DictionaryMerge)->Arg(100000)->Arg(1000000);

void BM_MergePathSplit(benchmark::State& state) {
  auto ka = GenerateDistinctKeys(1 << 20, 8, 6);
  auto kb = GenerateDistinctKeys(1 << 18, 8, 7);
  std::sort(ka.begin(), ka.end());
  std::sort(kb.begin(), kb.end());
  std::vector<Value8> a, b;
  for (uint64_t k : ka) a.push_back(Value8::FromKey(k));
  for (uint64_t k : kb) b.push_back(Value8::FromKey(k));
  std::span<const Value8> as(a), bs(b);
  Rng rng(8);
  for (auto _ : state) {
    const uint64_t d = rng.Below(a.size() + b.size());
    benchmark::DoNotOptimize(MergePathSplit(as, bs, d));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_MergePathSplit);

void BM_FullColumnMerge(benchmark::State& state) {
  const uint64_t nm = static_cast<uint64_t>(state.range(0));
  const double lambda = 0.1;
  auto main = BuildMainPartition<8>(nm, lambda, 9);
  DeltaPartition<8> delta;
  for (uint64_t k : GenerateColumnKeys(nm / 100, lambda, 8, 10)) {
    delta.Insert(Value8::FromKey(k));
  }
  for (auto _ : state) {
    auto merged =
        MergeColumnPartitions<8>(main, delta, MergeOptions{});
    benchmark::DoNotOptimize(merged.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(nm + nm / 100));
}
BENCHMARK(BM_FullColumnMerge)->Arg(1 << 20)->Arg(1 << 22);

// CRC-32 over one buffer, measured on the kernel's own working set: 4 KiB
// stays in L1 (the checksum's compute roof), 8 MiB is one WAL batch payload
// streamed from memory. bytes_per_second is the figure to compare against.
void BM_Crc32(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> buf(n);
  Rng rng(22);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32(buf.data(), buf.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_Crc32)->Arg(4 << 10)->Arg(8 << 20);

// Checkpoint dictionary codec: a dictionary written to a file and read back
// with Deserialize, raw body against delta-packed, over 128k sorted unique
// values from a dense domain, a 2^20 domain and a 2^40 domain (at width 4,
// its whole 2^32 range). Each value is drawn from its own equal slice of the
// domain, so the gaps stay below two slice widths. The packed side is
// Serialize's own choice on every input here; the raw side writes the count,
// tag 0 and the value array directly. Both sides arm the running CRC, as a
// checkpoint writer and reader do. Reports encode and decode ns per entry
// and the file's bytes per entry. Decode bounds what reopen pays per
// dictionary entry: the packed decode should cost no more than the raw read
// plus its sortedness check.
template <size_t W>
void BM_DictionaryCodec(benchmark::State& state) {
  constexpr uint64_t kEntries = 128 << 10;
  const int domain_bits =
      std::min(static_cast<int>(state.range(0)), static_cast<int>(8 * W));
  const bool packed = state.range(1) != 0;
  const uint64_t slice =
      domain_bits == 0 ? 1 : (uint64_t{1} << domain_bits) / kEntries;
  Rng rng(23);
  std::vector<FixedValue<W>> values(kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) {
    values[i] = FixedValue<W>::FromKey(i * slice + rng.Below(slice));
  }
  const Dictionary<W> dict = Dictionary<W>::FromSortedUnique(values);
  auto write_raw = [&](FileWriter& out) -> Status {
    DM_RETURN_NOT_OK(out.WriteU64(kEntries));
    DM_RETURN_NOT_OK(
        out.WriteU8(static_cast<uint8_t>(DictionaryEncoding::kRaw)));
    return out.Write(values.data(), dict.byte_size());
  };
  const std::string path =
      "dm_dictionary_codec_" + std::to_string(::getpid()) + ".tmp";
  double encode_ns = 0, decode_ns = 0;
  uint64_t file_bytes = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    {
      auto out = FileWriter::Create(path);
      if (out.ok()) out.ValueOrDie()->ResetCrc();
      if (!out.ok() ||
          !(packed ? dict.Serialize(*out.ValueOrDie())
                   : write_raw(*out.ValueOrDie()))
               .ok() ||
          !out.ValueOrDie()->Close().ok()) {
        state.SkipWithError("encode failed");
        break;
      }
      file_bytes = out.ValueOrDie()->bytes_written();
    }
    if (packed && file_bytes >= dict.byte_size()) {
      state.SkipWithError("Serialize wrote the raw body");
      break;
    }
    const auto t1 = std::chrono::steady_clock::now();
    {
      auto in = FileReader::Open(path);
      if (!in.ok()) {
        state.SkipWithError("open failed");
        break;
      }
      in.ValueOrDie()->ResetCrc();
      auto back = Dictionary<W>::Deserialize(*in.ValueOrDie());
      if (!back.ok()) {
        state.SkipWithError("decode failed");
        break;
      }
      benchmark::DoNotOptimize(back.ValueOrDie().values().data());
    }
    const auto t2 = std::chrono::steady_clock::now();
    encode_ns += std::chrono::duration<double, std::nano>(t1 - t0).count();
    decode_ns += std::chrono::duration<double, std::nano>(t2 - t1).count();
  }
  (void)RemoveFile(path);
  const double entries =
      static_cast<double>(state.iterations()) * static_cast<double>(kEntries);
  state.counters["encode_ns_per_entry"] = encode_ns / entries;
  state.counters["decode_ns_per_entry"] = decode_ns / entries;
  state.counters["bytes_per_entry"] =
      static_cast<double>(file_bytes) / static_cast<double>(kEntries);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kEntries));
}
// Args: {domain bits (0 = dense), body (0 raw, 1 delta-packed)}.
BENCHMARK_TEMPLATE(BM_DictionaryCodec, 4)
    ->ArgsProduct({{0, 20, 40}, {0, 1}});
BENCHMARK_TEMPLATE(BM_DictionaryCodec, 8)
    ->ArgsProduct({{0, 20, 40}, {0, 1}});
BENCHMARK_TEMPLATE(BM_DictionaryCodec, 16)
    ->ArgsProduct({{0, 20, 40}, {0, 1}});

// ---------------------------------------------------------------------------
// SIMD scan kernels (src/simd/simd_kernels.h). Each reports cycles_per_code
// (TSC cycles per packed code processed) and, where the kernel streams a
// well-defined byte count, pct_of_bw — achieved bytes/cycle as a percentage
// of the host's measured single-thread stream bandwidth.
// ---------------------------------------------------------------------------

double StreamRoofBytesPerCycle() {
  // One-shot: the measurement itself streams a 64 MB buffer for a while.
  static const double roof = MeasureStreamBandwidth(64ull << 20, 1);
  return roof;
}

PackedVector RandomCodes(uint64_t n, uint8_t bits, uint64_t seed) {
  PackedVector v(n, bits);
  PackedVector::Writer w(v);
  Rng rng(seed);
  const uint64_t mask = LowBitsMask(bits);
  for (uint64_t i = 0; i < n; ++i) {
    w.Append(static_cast<uint32_t>(rng.Next() & mask));
  }
  return v;
}

void SetScanCounters(benchmark::State& state, uint64_t cycles,
                     uint64_t codes_processed, double bytes_per_code) {
  const double cpc = static_cast<double>(cycles) /
                     static_cast<double>(codes_processed ? codes_processed : 1);
  state.counters["cycles_per_code"] = cpc;
  if (bytes_per_code > 0.0) {
    state.counters["pct_of_bw"] =
        100.0 * (bytes_per_code / cpc) / StreamRoofBytesPerCycle();
  }
  state.SetItemsProcessed(static_cast<int64_t>(codes_processed));
}

void BM_SimdCountRangePacked(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 22;  // 4M codes: past L2 at every width measured
  const PackedVector v = RandomCodes(n, bits, 11);
  const uint64_t mask = LowBitsMask(bits);
  const uint32_t lo = static_cast<uint32_t>(mask / 4);
  const uint32_t hi = static_cast<uint32_t>(mask / 2);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountRangePacked(v, 0, n, lo, hi));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdCountRangePacked)->Arg(8)->Arg(16)->Arg(24);

// The equality kernel a one-code range dispatches to
// (query::CountMain); compare with BM_SimdCountRangePacked at each width.
void BM_SimdCountEqualPacked(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 11);
  const uint32_t code = static_cast<uint32_t>(LowBitsMask(bits) / 3);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountEqualPacked(v, 0, n, code));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdCountEqualPacked)->Arg(8)->Arg(16)->Arg(24);

void BM_SimdCollectRangePacked(benchmark::State& state) {
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 12);
  const uint64_t mask = LowBitsMask(bits);
  // ~3% selectivity: collect cost is dominated by the scan, not the output.
  const uint32_t lo = 0;
  const uint32_t hi = static_cast<uint32_t>(mask / 32);
  std::vector<uint64_t> rows;
  rows.reserve(n / 16);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    rows.clear();
    const uint64_t t0 = CycleClock::Now();
    simd::CollectRangePacked(v, 0, n, lo, hi, 0, &rows);
    cycles += CycleClock::Now() - t0;
    codes += n;
    benchmark::DoNotOptimize(rows.data());
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdCollectRangePacked);

// The two ways to sum a main partition, at a dictionary of 2^bits keys
// (17 bits is the e2e olap_scan column's code width): the translate kernel
// the read path runs, and a histogram of codes folded against the
// dictionary, the kernel behind the snapshot's GroupCount.
void BM_SimdSumPackedTranslated(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 13);
  std::vector<uint64_t> table(1ull << bits);
  Rng rng(14);
  for (auto& t : table) t = rng.Next();
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(
        simd::SumPackedTranslated(v, 0, n, table.data()));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  // No pct_of_bw: the dictionary gather's traffic is access-dependent.
  SetScanCounters(state, cycles, codes, 0.0);
}
BENCHMARK(BM_SimdSumPackedTranslated)->Arg(16)->Arg(17);

void BM_SimdHistogramPacked(benchmark::State& state) {
  const uint8_t bits = static_cast<uint8_t>(state.range(0));
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 13);
  std::vector<uint64_t> table(1ull << bits);
  Rng rng(14);
  for (auto& t : table) t = rng.Next();
  std::vector<uint64_t> histogram(table.size());
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    std::fill(histogram.begin(), histogram.end(), 0);
    simd::HistogramPacked(v, 0, n, histogram.data());
    uint64_t sum = 0;
    for (size_t c = 0; c < histogram.size(); ++c) {
      sum += table[c] * histogram[c];
    }
    benchmark::DoNotOptimize(sum);
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  SetScanCounters(state, cycles, codes, 0.0);
}
BENCHMARK(BM_SimdHistogramPacked)->Arg(16)->Arg(17);

void BM_SimdCountRangePackedMasked(benchmark::State& state) {
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 15);
  const uint64_t mask = LowBitsMask(bits);
  std::vector<uint64_t> valid((n + 63) / 64, ~0ull);
  Rng rng(16);
  for (uint64_t i = 0; i < n / 50; ++i) {  // ~2% deleted
    const uint64_t r = rng.Below(n);
    valid[r / 64] &= ~(1ull << (r % 64));
  }
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountRangePackedMasked(
        v, 0, n, static_cast<uint32_t>(mask / 4),
        static_cast<uint32_t>(mask / 2), valid.data(), 0));
    cycles += CycleClock::Now() - t0;
    codes += n;
  }
  SetScanCounters(state, cycles, codes, bits / 8.0 + 1.0 / 8.0);
}
BENCHMARK(BM_SimdCountRangePackedMasked);

void BM_SimdCountConjunctionPacked(benchmark::State& state) {
  const size_t npreds = static_cast<size_t>(state.range(0));
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const uint64_t mask = LowBitsMask(bits);
  std::vector<PackedVector> cols;
  std::vector<simd::ConjunctPredicate> preds;
  for (size_t j = 0; j < npreds; ++j) {
    cols.push_back(RandomCodes(n, bits, 17 + j));
  }
  for (size_t j = 0; j < npreds; ++j) {
    // 50% selectivity per leg; the fused kernel short-circuits emptied
    // blocks, so later legs stream fewer bytes than the first.
    preds.push_back(simd::ConjunctPredicate{
        &cols[j], 0, static_cast<uint32_t>(mask / 2)});
  }
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    const uint64_t t0 = CycleClock::Now();
    benchmark::DoNotOptimize(simd::CountConjunctionPacked(preds, 0, n));
    cycles += CycleClock::Now() - t0;
    codes += n;  // per-tuple, not per-leg: comparable across npreds
  }
  SetScanCounters(state, cycles, codes, 0.0);
}
BENCHMARK(BM_SimdCountConjunctionPacked)->Arg(2)->Arg(3)->Arg(4);

void BM_SimdMultiCountRangePacked(benchmark::State& state) {
  const size_t npreds = static_cast<size_t>(state.range(0));
  const uint8_t bits = 16;
  const uint64_t n = 1 << 22;
  const PackedVector v = RandomCodes(n, bits, 21);
  const uint64_t mask = LowBitsMask(bits);
  std::vector<simd::CodeRange> preds;
  for (size_t j = 0; j < npreds; ++j) {
    const uint32_t lo = static_cast<uint32_t>(mask * j / (2 * npreds));
    preds.push_back(
        simd::CodeRange{lo, lo + static_cast<uint32_t>(mask / 4)});
  }
  std::vector<uint64_t> counts(npreds);
  uint64_t cycles = 0, codes = 0;
  for (auto _ : state) {
    std::fill(counts.begin(), counts.end(), 0);
    const uint64_t t0 = CycleClock::Now();
    simd::MultiCountRangePacked(v, 0, n, preds, counts.data());
    cycles += CycleClock::Now() - t0;
    codes += n;  // one memory pass regardless of npreds
    benchmark::DoNotOptimize(counts.data());
  }
  SetScanCounters(state, cycles, codes, bits / 8.0);
}
BENCHMARK(BM_SimdMultiCountRangePacked)->Arg(1)->Arg(4)->Arg(8);

}  // namespace
}  // namespace deltamerge

BENCHMARK_MAIN();
