// Copyright (c) 2026 The DeltaMerge Authors.
// Unit tests for the durability subsystem: CRC framing, buffered file I/O,
// the PollThread harness, storage serialization, WAL append/replay/rotate,
// checkpoint roundtrips, and DurableTable open/recover cycles. The
// crash-point torture lives in crash_recovery_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/table.h"
#include "durable_torture_util.h"
#include "persist/checkpoint.h"
#include "persist/durable_partitioned_table.h"
#include "persist/durable_table.h"
#include "persist/wal.h"
#include "storage/dictionary.h"
#include "storage/main_partition.h"
#include "storage/packed_vector.h"
#include "parallel/task_queue.h"
#include "storage/validity.h"
#include "util/crc32.h"
#include "util/file_io.h"
#include "util/poll_thread.h"
#include "util/random.h"
#include "workload/query_gen.h"

namespace deltamerge {
namespace {

using persist::DurableTable;
using persist::DurableTableOptions;
using persist::ListWalSegments;
using persist::ReplayWal;
using persist::WalOptions;
using persist::WalRecordType;
using persist::WalRecordView;
using persist::WalSyncPolicy;
using persist::WalWriter;

// Unique scratch directory under the test's working directory; removed
// (with contents) on scope exit. Shared with the crash/fuzz tortures.
using ScratchDir = testref::TortureScratchDir;

// --- CRC-32 -----------------------------------------------------------------

// The byte-at-a-time table loop Crc32 used before the slicing-by-8 and
// PCLMULQDQ kernels: the oracle every kernel must equal bit for bit.
struct BytewiseCrc32 {
  uint32_t table[256];

  BytewiseCrc32() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      table[i] = c;
    }
  }

  /// Advances the pre-inverted register `c` by one byte.
  uint32_t Step(uint32_t c, uint8_t byte) const {
    return table[(c ^ byte) & 0xFF] ^ (c >> 8);
  }

  uint32_t operator()(const uint8_t* p, size_t n, uint32_t seed = 0) const {
    uint32_t c = seed ^ 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) c = Step(c, p[i]);
    return c ^ 0xFFFFFFFFu;
  }
};

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  std::vector<uint8_t> bytes(n);
  Rng rng(seed);
  for (auto& b : bytes) b = static_cast<uint8_t>(rng.Next());
  return bytes;
}

TEST(Crc32Test, KnownVectors) {
  // The canonical CRC-32 ("check") value for "123456789".
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  const char* data = "delta merge write-ahead log";
  const size_t n = std::strlen(data);
  const uint32_t whole = Crc32(data, n);
  for (size_t split = 0; split <= n; ++split) {
    uint32_t crc = Crc32(data, split);
    crc = Crc32(data + split, n - split, crc);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

TEST(Crc32Test, CombineMatchesIncrementalAtEverySplit) {
  // Crc32Combine(crc(A), crc(B), |B|) must equal crc(A||B) — this is what
  // lets a batch payload be checksummed outside the table lock and merged
  // with the frame header's CRC under it.
  const char* data = "one batch record covers a whole bulk-insert batch";
  const size_t n = std::strlen(data);
  const uint32_t whole = Crc32(data, n);
  for (size_t split = 0; split <= n; ++split) {
    const uint32_t a = Crc32(data, split);
    const uint32_t b = Crc32(data + split, n - split);
    EXPECT_EQ(Crc32Combine(a, b, n - split), whole) << "split at " << split;
  }
  EXPECT_EQ(Crc32Combine(whole, 0, 0), whole);  // empty suffix is identity
}

TEST(Crc32Test, CombineMatchesAcrossLengthScales) {
  // Lengths that stress different set-bit patterns of the zero-operator
  // walk, including multi-KiB payloads like real kInsertBatch records.
  Rng rng(99);
  for (const size_t len_b : {1ul, 7ul, 64ul, 255ul, 4096ul, 100'000ul}) {
    std::vector<uint8_t> a(137), b(len_b);
    for (auto& x : a) x = static_cast<uint8_t>(rng.Below(256));
    for (auto& x : b) x = static_cast<uint8_t>(rng.Below(256));
    const uint32_t crc_a = Crc32(a.data(), a.size());
    const uint32_t crc_b = Crc32(b.data(), b.size());
    const uint32_t incremental = Crc32(b.data(), b.size(), crc_a);
    EXPECT_EQ(Crc32Combine(crc_a, crc_b, len_b), incremental)
        << "len_b " << len_b;
  }
}

TEST(Crc32Test, MatchesBytewiseOracleAtEveryLengthAndOffset) {
  // Every length 0-4096 from every 16-byte alignment: crosses the fold
  // kernel's 64-byte entry, each 16-byte block boundary of its tail, and
  // every slicing-by-8 residue. The oracle's register advances one byte per
  // length, so each expected value costs a single table step.
  const BytewiseCrc32 oracle;
  constexpr size_t kMaxLen = 4096;
  for (const uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<uint8_t> buf = RandomBytes(kMaxLen + 16, seed);
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint8_t* p = buf.data() + offset;
      uint32_t reg = 0xFFFFFFFFu;
      for (size_t len = 0;; ++len) {
        ASSERT_EQ(Crc32(p, len), reg ^ 0xFFFFFFFFu)
            << "seed " << seed << " offset " << offset << " len " << len;
        if (len == kMaxLen) break;
        reg = oracle.Step(reg, p[len]);
      }
    }
  }
}

TEST(Crc32Test, MatchesBytewiseOracleOnLargeBuffer) {
  const BytewiseCrc32 oracle;
  const std::vector<uint8_t> buf = RandomBytes(8u << 20, 4);  // a WAL batch
  EXPECT_EQ(Crc32(buf.data(), buf.size()), oracle(buf.data(), buf.size()));
}

TEST(Crc32Test, SeededAndCombinedAgreeAcrossFoldBoundaries) {
  // Split points around the 16- and 64-byte fold boundaries on both sides:
  // a seeded continuation must enter the fold with the carried register,
  // and Crc32Combine must agree with both.
  const BytewiseCrc32 oracle;
  const std::vector<uint8_t> buf = RandomBytes(400, 5);
  for (const size_t n : {15ul, 16ul, 17ul, 63ul, 64ul, 65ul, 79ul, 80ul,
                         127ul, 128ul, 129ul, 143ul, 200ul, 400ul}) {
    const uint32_t whole = oracle(buf.data(), n);
    for (size_t split = 0; split <= n; ++split) {
      const uint32_t a = Crc32(buf.data(), split);
      const uint32_t b = Crc32(buf.data() + split, n - split);
      ASSERT_EQ(Crc32(buf.data() + split, n - split, a), whole)
          << "n " << n << " split " << split;
      ASSERT_EQ(Crc32Combine(a, b, n - split), whole)
          << "n " << n << " split " << split;
    }
  }
}

// --- file I/O ---------------------------------------------------------------

TEST(FileIoTest, WriteReadRoundtripWithCrc) {
  constexpr size_t kHead = 4 + 8;
  constexpr size_t kBody = 300 * 1024;
  constexpr size_t kBuf = FileReader::kDefaultBufferBytes;
  // No period that a misplaced chunk could line up with.
  const auto BodyByte = [](size_t i) {
    return static_cast<uint8_t>((i * 2654435761u) >> 24);
  };
  ScratchDir dir("fileio");
  const std::string path = dir.path() + "/blob";
  uint32_t write_crc = 0;
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    auto& out = *w.ValueOrDie();
    // The running CRC costs nothing until ResetCrc arms it (WAL segments
    // never do: their frames carry their own CRCs).
    ASSERT_TRUE(out.WriteU32(0xdecafbad).ok());
    EXPECT_EQ(out.crc(), 0u);
    out.ResetCrc();
    ASSERT_TRUE(out.WriteU64(0x0123456789abcdefull).ok());
    std::vector<uint8_t> big(kBody);  // exceeds the buffer
    for (size_t i = 0; i < big.size(); ++i) big[i] = BodyByte(i);
    ASSERT_TRUE(out.Write(big.data(), big.size()).ok());
    write_crc = out.crc();
    const uint64_t second = 0x0123456789abcdefull;
    EXPECT_EQ(write_crc, Crc32(big.data(), big.size(), Crc32(&second, 8)));
    ASSERT_TRUE(out.Sync().ok());
    ASSERT_TRUE(out.Close().ok());
  }
  auto r = FileReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto& in = *r.ValueOrDie();
  EXPECT_EQ(in.file_size(), kHead + kBody);
  uint32_t a = 0;
  uint64_t b = 0;
  ASSERT_TRUE(in.ReadU32(&a).ok());
  EXPECT_EQ(in.crc(), 0u);
  in.ResetCrc();
  ASSERT_TRUE(in.ReadU64(&b).ok());
  EXPECT_EQ(a, 0xdecafbadu);
  EXPECT_EQ(b, 0x0123456789abcdefull);
  // The first read(2) buffered the file's first kBuf bytes: drain them
  // exactly, then ask for a buffer's worth past the end of the file. That
  // request reads straight into `big`, and so does its EOF probe.
  std::vector<uint8_t> big(kBody + kBuf);
  ASSERT_TRUE(in.Read(big.data(), kBuf - kHead).ok());
  auto tail =
      in.ReadUpTo(big.data() + kBuf - kHead, big.size() - (kBuf - kHead));
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(tail.ValueOrDie(), kBody - (kBuf - kHead));
  EXPECT_EQ(in.offset(), in.file_size());
  EXPECT_EQ(in.crc(), write_crc);
  for (size_t i = 0; i < kBody; ++i) {
    ASSERT_EQ(big[i], BodyByte(i)) << "body byte " << i;
  }
  // Exact EOF: further exact reads fail, ReadUpTo reports 0.
  uint8_t extra = 0;
  EXPECT_FALSE(in.Read(&extra, 1).ok());
  auto upto = in.ReadUpTo(&extra, 1);
  ASSERT_TRUE(upto.ok());
  EXPECT_EQ(upto.ValueOrDie(), 0u);
}

TEST(FileIoTest, TruncateAndListAndRemove) {
  ScratchDir dir("fileio2");
  const std::string path = dir.path() + "/t";
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    std::vector<uint8_t> bytes(100, 7);
    ASSERT_TRUE(w.ValueOrDie()->Write(bytes.data(), bytes.size()).ok());
    ASSERT_TRUE(w.ValueOrDie()->Close().ok());
  }
  ASSERT_TRUE(TruncateFile(path, 40).ok());
  auto sz = FileSize(path);
  ASSERT_TRUE(sz.ok());
  EXPECT_EQ(sz.ValueOrDie(), 40u);
  auto names = ListDir(dir.path());
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(names.ValueOrDie().size(), 1u);
  EXPECT_TRUE(FileExists(path));
  ASSERT_TRUE(RemoveFile(path).ok());
  EXPECT_FALSE(FileExists(path));
  EXPECT_TRUE(RemoveFile(path).ok());  // idempotent
}

// --- PollThread -------------------------------------------------------------

TEST(PollThreadTest, RunsBodyAndStops) {
  std::atomic<int> calls{0};
  PollThread poller(200, [&] { calls.fetch_add(1); });
  EXPECT_FALSE(poller.running());
  poller.Start();
  EXPECT_TRUE(poller.running());
  for (int i = 0; i < 1000 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(calls.load(), 0);
  poller.Stop();
  EXPECT_FALSE(poller.running());
  const int after_stop = calls.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(calls.load(), after_stop);
}

TEST(PollThreadTest, NudgeShortcutsLongInterval) {
  std::atomic<int> calls{0};
  // 10-second interval: only a working Nudge can make the body run soon.
  PollThread poller(10'000'000, [&] { calls.fetch_add(1); });
  poller.Start();
  poller.Nudge();
  for (int i = 0; i < 2000 && calls.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(calls.load(), 0);
  poller.Stop();
  // Restartable after Stop.
  poller.Start();
  poller.Nudge();
  for (int i = 0; i < 2000 && calls.load() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(calls.load(), 2);
  poller.Stop();
}

// --- storage serialization --------------------------------------------------

template <size_t W>
void DictionaryRoundtrip() {
  std::vector<FixedValue<W>> values;
  for (uint64_t k : {3ull, 17ull, 980'555ull, (1ull << 33) + 7}) {
    values.push_back(FixedValue<W>::FromKey(k));
  }
  auto dict = Dictionary<W>::FromUnsorted(values);
  ScratchDir dir("dict");
  const std::string path = dir.path() + "/d";
  {
    auto w = FileWriter::Create(path);
    ASSERT_TRUE(w.ok());
    ASSERT_TRUE(dict.Serialize(*w.ValueOrDie()).ok());
    ASSERT_TRUE(w.ValueOrDie()->Close().ok());
  }
  auto r = FileReader::Open(path);
  ASSERT_TRUE(r.ok());
  auto back = Dictionary<W>::Deserialize(*r.ValueOrDie());
  ASSERT_TRUE(back.ok());
  const auto& d2 = back.ValueOrDie();
  ASSERT_EQ(d2.size(), dict.size());
  for (uint32_t i = 0; i < dict.size(); ++i) {
    EXPECT_EQ(d2.At(i), dict.At(i));
  }
}

TEST(StorageSerializationTest, DictionaryAllWidths) {
  DictionaryRoundtrip<4>();
  DictionaryRoundtrip<8>();
  DictionaryRoundtrip<16>();
}

// --- dictionary codec: raw and delta-packed bodies ---

// Writes the first `n` bytes of `bytes` to `path` (all of them by default).
void WriteBytes(const std::string& path, const std::vector<uint8_t>& bytes,
                size_t n = SIZE_MAX) {
  auto out = FileWriter::Create(path);
  ASSERT_TRUE(out.ok());
  ASSERT_TRUE(
      out.ValueOrDie()->Write(bytes.data(), std::min(n, bytes.size())).ok());
  ASSERT_TRUE(out.ValueOrDie()->Close().ok());
}

std::vector<uint8_t> ReadBytes(const std::string& path) {
  auto in = FileReader::Open(path);
  EXPECT_TRUE(in.ok());
  if (!in.ok()) return {};
  std::vector<uint8_t> bytes(in.ValueOrDie()->file_size());
  EXPECT_TRUE(in.ValueOrDie()->Read(bytes.data(), bytes.size()).ok());
  return bytes;
}

// Serializes through `write` (a FileWriter callback) and returns the bytes.
template <typename Fn>
std::vector<uint8_t> Encode(const std::string& path, Fn&& write) {
  {
    auto out = FileWriter::Create(path);
    EXPECT_TRUE(out.ok());
    if (!out.ok()) return {};
    const Status st = write(*out.ValueOrDie());
    EXPECT_TRUE(st.ok()) << st.ToString();
    EXPECT_TRUE(out.ValueOrDie()->Close().ok());
  }
  return ReadBytes(path);
}

template <size_t W>
Result<Dictionary<W>> DecodeDictionary(const std::string& path) {
  DM_ASSIGN_OR_RETURN(std::unique_ptr<FileReader> in, FileReader::Open(path));
  return Dictionary<W>::Deserialize(*in);
}

template <size_t W>
FixedValue<W> Val(uint64_t hi, uint64_t lo) {
  if constexpr (W == 16) {
    return FixedValue<W>::FromKeyPair(hi, lo);
  } else {
    EXPECT_EQ(hi, 0u);
    return FixedValue<W>::FromKey(lo);
  }
}

template <size_t W>
unsigned __int128 Wide(const FixedValue<W>& v) {
  if constexpr (W == 16) {
    return (static_cast<unsigned __int128>(v.repr.hi) << 64) | v.repr.lo;
  } else {
    return v.key();
  }
}

// Hand-builds a delta-packed body: count, tag, first value, then `gaps` as
// a PackedVector of `bits`-bit codes.
template <size_t W>
std::vector<uint8_t> PackedDictionaryBytes(const std::string& path,
                                           uint64_t count, FixedValue<W> first,
                                           const std::vector<uint32_t>& gaps,
                                           uint8_t bits = 32, uint8_t tag = 1) {
  return Encode(path, [&](FileWriter& out) -> Status {
    DM_RETURN_NOT_OK(out.WriteU64(count));
    DM_RETURN_NOT_OK(out.WriteU8(tag));
    DM_RETURN_NOT_OK(out.Write(&first, sizeof(first)));
    PackedVector packed(gaps.size(), bits);
    PackedVector::Writer w(packed);
    for (uint32_t g : gaps) w.Append(g);
    return packed.Serialize(out);
  });
}

// Hand-builds a raw body: count, tag 0, then the values as one array.
template <size_t W>
std::vector<uint8_t> RawDictionaryBytes(
    const std::string& path, const std::vector<FixedValue<W>>& values) {
  return Encode(path, [&](FileWriter& out) -> Status {
    DM_RETURN_NOT_OK(out.WriteU64(values.size()));
    DM_RETURN_NOT_OK(out.WriteU8(0));
    if (values.empty()) return Status::OK();
    return out.Write(values.data(), values.size() * sizeof(FixedValue<W>));
  });
}

// Round-trips `values` (sorted-unique) through both bodies and through
// Serialize's choice, and checks that choice against body sizes worked out
// here with 128-bit gaps: the packed body exists for two or more values
// whose gaps are all below 2^32, and Serialize writes it iff it is smaller.
template <size_t W>
void ExpectCodecRoundTrip(const std::string& path,
                          const std::vector<FixedValue<W>>& values,
                          const std::string& label) {
  SCOPED_TRACE(label + " W=" + std::to_string(W) +
               " n=" + std::to_string(values.size()));
  const Dictionary<W> dict = Dictionary<W>::FromSortedUnique(values);
  unsigned __int128 max_gap = 0;
  for (size_t i = 1; i < values.size(); ++i) {
    ASSERT_LT(Wide(values[i - 1]), Wide(values[i]));
    max_gap = std::max(max_gap, Wide(values[i]) - Wide(values[i - 1]));
  }
  const uint64_t raw_bytes = 9 + values.size() * W;
  const bool packable =
      values.size() >= 2 && max_gap < (static_cast<unsigned __int128>(1) << 32);
  const uint64_t packed_bytes =
      packable ? 9 + W + 17 +
                     PackedBytes(values.size() - 1,
                                 static_cast<uint8_t>(std::bit_width(
                                     static_cast<uint64_t>(max_gap))))
               : 0;
  const bool expect_packed = packable && packed_bytes < raw_bytes;

  auto expect_decodes = [&](const std::vector<uint8_t>& bytes) {
    WriteBytes(path, bytes);
    auto back = DecodeDictionary<W>(path);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_EQ(back.ValueOrDie().size(), values.size());
    for (size_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(back.ValueOrDie().At(static_cast<uint32_t>(i)), values[i])
          << "value " << i;
    }
  };

  const std::vector<uint8_t> chosen =
      Encode(path, [&](FileWriter& out) { return dict.Serialize(out); });
  ASSERT_GE(chosen.size(), 9u);
  EXPECT_EQ(chosen[8], static_cast<uint8_t>(
                           expect_packed ? DictionaryEncoding::kDeltaPacked
                                         : DictionaryEncoding::kRaw));
  EXPECT_EQ(chosen.size(), expect_packed ? packed_bytes : raw_bytes);
  expect_decodes(chosen);

  const std::vector<uint8_t> raw = RawDictionaryBytes<W>(path, values);
  EXPECT_EQ(raw.size(), raw_bytes);
  expect_decodes(raw);

  if (packable) {
    std::vector<uint32_t> gaps;
    for (size_t i = 1; i < values.size(); ++i) {
      gaps.push_back(
          static_cast<uint32_t>(Wide(values[i]) - Wide(values[i - 1])));
    }
    const std::vector<uint8_t> packed = PackedDictionaryBytes<W>(
        path, values.size(), values[0], gaps,
        static_cast<uint8_t>(std::bit_width(static_cast<uint64_t>(max_gap))));
    EXPECT_EQ(packed.size(), packed_bytes);
    expect_decodes(packed);
    if (expect_packed) {
      EXPECT_EQ(chosen, packed);
    }
  }
  if (!expect_packed) {
    EXPECT_EQ(chosen, raw);
  }
}

template <size_t W>
void DictionaryCodecCases() {
  using V = FixedValue<W>;
  ScratchDir dir("dictcodec");
  const std::string path = dir.path() + "/d";
  auto run = [&](const std::vector<uint64_t>& lows, uint64_t hi,
                 const std::string& label) {
    std::vector<V> values;
    for (uint64_t lo : lows) values.push_back(Val<W>(hi, lo));
    ExpectCodecRoundTrip<W>(path, values, label);
  };
  auto dense = [](uint64_t first, uint64_t n) {
    std::vector<uint64_t> out;
    for (uint64_t i = 0; i < n; ++i) out.push_back(first + i);
    return out;
  };
  auto sparse = [](uint64_t domain, uint64_t n, uint64_t seed) {
    std::vector<uint64_t> out;
    Rng rng(seed);
    for (uint64_t i = 0; i < n; ++i) out.push_back(rng.Below(domain));
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
  };
  const uint64_t max_lo = V::Max().key();  // the low word's top value

  run({}, 0, "empty");
  run({42}, 0, "one value");
  run(dense(7, 1000), 0, "dense run");
  run(sparse(uint64_t{1} << 20, 3000, 1), 0, "2^20 domain");
  run(dense(max_lo - 499, 500), W == 16 ? ~uint64_t{0} : 0,
      "ending at Max()");
  if constexpr (W == 4) {
    // 4-byte values hold no 2^40 domain and no gap of 2^32. The whole
    // 32-bit range in one gap is packable, but 8 raw bytes win.
    run({0, max_lo}, 0, "gap 2^32-1");
  } else {
    // 200 draws from 2^40 average a gap above 2^32: raw by the gap cap.
    run(sparse(uint64_t{1} << 40, 200, 2), 0, "2^40 domain");
    std::vector<uint64_t> below_cap = dense(0, 100);
    below_cap.push_back(99 + ((uint64_t{1} << 32) - 1));
    run(below_cap, 0, "gap 2^32-1");
    std::vector<uint64_t> at_cap = dense(0, 100);
    at_cap.push_back(99 + (uint64_t{1} << 32));
    run(at_cap, 0, "gap 2^32");
  }
  if constexpr (W == 16) {
    // Runs that carry from the low word into the high word, at 1-bit gaps
    // and at gaps of 2^31.
    std::vector<V> carry;
    for (uint64_t i = 0; i < 300; ++i) {
      const uint64_t lo = ~uint64_t{0} - 149 + i;  // wraps after i = 149
      carry.push_back(V::FromKeyPair(i < 150 ? 5 : 6, lo));
    }
    ExpectCodecRoundTrip<W>(path, carry, "carry, gap 1");
    std::vector<V> wide_carry;
    unsigned __int128 v = (static_cast<unsigned __int128>(7) << 64) -
                          (static_cast<unsigned __int128>(20) << 31);
    for (int i = 0; i < 40; ++i) {
      wide_carry.push_back(V::FromKeyPair(static_cast<uint64_t>(v >> 64),
                                          static_cast<uint64_t>(v)));
      v += static_cast<unsigned __int128>(1) << 31;
    }
    ExpectCodecRoundTrip<W>(path, wide_carry, "carry, gap 2^31");
  }
}

TEST(StorageSerializationTest, DictionaryCodecRoundTripsAndPicksSmallerBody) {
  DictionaryCodecCases<4>();
  DictionaryCodecCases<8>();
  DictionaryCodecCases<16>();
}

template <size_t W>
void DictionaryRefusalCases() {
  SCOPED_TRACE("W=" + std::to_string(W));
  using V = FixedValue<W>;
  ScratchDir dir("dictrefuse");
  const std::string path = dir.path() + "/d";
  auto refused = [&](const std::vector<uint8_t>& bytes, const char* what) {
    WriteBytes(path, bytes);
    EXPECT_FALSE(DecodeDictionary<W>(path).ok()) << what;
  };
  const V top = V::Max();
  V near_top = top;  // Max() - 2
  if constexpr (W == 16) {
    near_top.repr.lo -= 2;
  } else {
    near_top.repr.word -= 2;
  }

  // Control: a hand-built body that ends exactly at Max() decodes.
  WriteBytes(path, PackedDictionaryBytes<W>(path, 3, near_top, {1, 1}));
  auto at_max = DecodeDictionary<W>(path);
  ASSERT_TRUE(at_max.ok()) << at_max.status().ToString();
  EXPECT_EQ(at_max.ValueOrDie().At(2), top);

  refused(PackedDictionaryBytes<W>(path, 4, Val<W>(0, 10), {1, 0, 3}),
          "zero gap");
  refused(PackedDictionaryBytes<W>(path, 4, near_top, {1, 1, 1}),
          "sum one past Max()");
  refused(PackedDictionaryBytes<W>(path, 2, near_top, {~uint32_t{0}}),
          "one gap far past Max()");
  if constexpr (W == 16) {
    // A low-word carry into an all-ones high word.
    refused(PackedDictionaryBytes<W>(
                path, 2, V::FromKeyPair(~uint64_t{0}, ~uint64_t{0} - 3), {9}),
            "carry past Max()");
  }
  for (uint8_t tag : {uint8_t{2}, uint8_t{255}}) {
    refused(PackedDictionaryBytes<W>(path, 3, Val<W>(0, 1), {1, 1}, 32, tag),
            "unknown tag");
  }
  refused(PackedDictionaryBytes<W>(path, 4, Val<W>(0, 1), {1, 1}),
          "too few gaps");
  refused(PackedDictionaryBytes<W>(path, 4, Val<W>(0, 1), {1, 1, 1, 1}),
          "too many gaps");
  refused(PackedDictionaryBytes<W>(path, 1, Val<W>(0, 1), {}),
          "packed body with one value");
  refused(PackedDictionaryBytes<W>(path, 0, Val<W>(0, 1), {}),
          "packed body with no value");
  refused(RawDictionaryBytes<W>(path, {Val<W>(0, 9), Val<W>(0, 4)}),
          "unsorted raw body");

  // Truncation at every byte of a small packed dictionary.
  std::vector<V> small;
  for (uint64_t k = 100; k < 120; ++k) small.push_back(Val<W>(0, k * 3));
  const Dictionary<W> dict = Dictionary<W>::FromSortedUnique(small);
  const std::vector<uint8_t> full =
      Encode(path, [&](FileWriter& out) { return dict.Serialize(out); });
  ASSERT_EQ(full[8], static_cast<uint8_t>(DictionaryEncoding::kDeltaPacked));
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteBytes(path, full, cut);
    EXPECT_FALSE(DecodeDictionary<W>(path).ok()) << "cut at byte " << cut;
  }
  WriteBytes(path, full);
  EXPECT_TRUE(DecodeDictionary<W>(path).ok());
}

TEST(StorageSerializationTest, DictionaryDecoderRefusesCorruptBodies) {
  DictionaryRefusalCases<4>();
  DictionaryRefusalCases<8>();
  DictionaryRefusalCases<16>();
}

TEST(StorageSerializationTest, PackedVectorRoundtrip) {
  Rng rng(7);
  for (uint8_t bits : {1, 7, 13, 32}) {
    PackedVector v(777, bits);
    PackedVector::Writer w(v);
    std::vector<uint32_t> expect;
    for (int i = 0; i < 777; ++i) {
      const uint32_t code = static_cast<uint32_t>(
          rng.Below(uint64_t{1} << bits));
      expect.push_back(code);
      w.Append(code);
    }
    ScratchDir dir("pv");
    const std::string path = dir.path() + "/v";
    {
      auto out = FileWriter::Create(path);
      ASSERT_TRUE(out.ok());
      ASSERT_TRUE(v.Serialize(*out.ValueOrDie()).ok());
      ASSERT_TRUE(out.ValueOrDie()->Close().ok());
    }
    auto in = FileReader::Open(path);
    ASSERT_TRUE(in.ok());
    auto back = PackedVector::Deserialize(*in.ValueOrDie());
    ASSERT_TRUE(back.ok());
    const PackedVector& v2 = back.ValueOrDie();
    ASSERT_EQ(v2.size(), 777u);
    ASSERT_EQ(v2.bits(), bits);
    for (int i = 0; i < 777; ++i) {
      ASSERT_EQ(v2.Get(static_cast<uint64_t>(i)),
                expect[static_cast<size_t>(i)]);
    }
  }
}

TEST(StorageSerializationTest, MainPartitionRoundtripAndCorruptionCaught) {
  std::vector<FixedValue<8>> values;
  Rng rng(11);
  for (int i = 0; i < 5000; ++i) {
    values.push_back(FixedValue<8>::FromKey(rng.Below(500)));
  }
  auto main = MainPartition<8>::FromValues(values);
  ScratchDir dir("mp");
  const std::string path = dir.path() + "/m";
  {
    auto out = FileWriter::Create(path);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(main.Serialize(*out.ValueOrDie()).ok());
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }
  {
    auto in = FileReader::Open(path);
    ASSERT_TRUE(in.ok());
    auto back = MainPartition<8>::Deserialize(*in.ValueOrDie());
    ASSERT_TRUE(back.ok());
    const auto& m2 = back.ValueOrDie();
    ASSERT_EQ(m2.size(), main.size());
    ASSERT_EQ(m2.unique_values(), main.unique_values());
    for (uint64_t i = 0; i < main.size(); i += 97) {
      EXPECT_EQ(m2.GetValue(i), main.GetValue(i));
    }
  }
  // A truncated file must fail deserialization, not fabricate a partition.
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, size.ValueOrDie() / 2).ok());
  auto in = FileReader::Open(path);
  ASSERT_TRUE(in.ok());
  EXPECT_FALSE(MainPartition<8>::Deserialize(*in.ValueOrDie()).ok());
}

TEST(StorageSerializationTest, ValidityPrefixRoundtrip) {
  ValidityVector v;
  v.Append(200);
  for (uint64_t row : {0ull, 63ull, 64ull, 65ull, 130ull, 199ull}) {
    v.Invalidate(row);
  }
  for (uint64_t rows : {0ull, 1ull, 64ull, 127ull, 128ull, 200ull}) {
    auto words = v.CopyWordsPrefix(rows);
    const uint64_t valid = v.CountValidPrefix(rows);
    ValidityVector back = ValidityVector::FromWords(std::move(words), rows);
    ASSERT_EQ(back.size(), rows);
    ASSERT_EQ(back.valid_count(), valid);
    for (uint64_t row = 0; row < rows; ++row) {
      ASSERT_EQ(back.IsValid(row), v.IsValid(row)) << "row " << row;
    }
  }
}

// --- WAL --------------------------------------------------------------------

std::vector<uint8_t> Payload(std::initializer_list<uint64_t> words) {
  std::vector<uint8_t> out;
  for (uint64_t w : words) {
    const size_t off = out.size();
    out.resize(off + 8);
    std::memcpy(out.data() + off, &w, 8);
  }
  return out;
}

TEST(WalTest, AppendReplayRoundtrip) {
  ScratchDir dir("wal");
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    auto& wal = *w.ValueOrDie();
    EXPECT_EQ(wal.Append(WalRecordType::kInsert, Payload({11, 22})), 1u);
    EXPECT_EQ(wal.Append(WalRecordType::kUpdate, Payload({0, 33, 44})), 2u);
    EXPECT_EQ(wal.Append(WalRecordType::kDelete, Payload({0})), 3u);
    wal.Acknowledge(3);
    EXPECT_GE(wal.durable_lsn(), 3u);
  }
  std::vector<std::pair<WalRecordType, uint64_t>> seen;
  auto replay = ReplayWal(dir.path(), 1, [&](const WalRecordView& rec) {
    seen.emplace_back(rec.type, rec.lsn);
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  const auto& result = replay.ValueOrDie();
  EXPECT_EQ(result.applied, 3u);
  EXPECT_EQ(result.last_lsn, 3u);
  EXPECT_FALSE(result.torn_tail);
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0].first, WalRecordType::kInsert);
  EXPECT_EQ(seen[1].first, WalRecordType::kUpdate);
  EXPECT_EQ(seen[2].first, WalRecordType::kDelete);
}

TEST(WalTest, BatchRecordRoundtripWithPrecomputedCrc) {
  // A kInsertBatch frame appended with the payload CRC precomputed
  // (Crc32Combine path) must replay byte-identically to one framed the
  // ordinary way — same frame CRC, same payload.
  ScratchDir dir("walbatch");
  const std::vector<uint8_t> payload =
      Payload({3, 2, 11, 22, 33, 44, 55, 66});  // 3 rows x 2 cols + header
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    auto& wal = *w.ValueOrDie();
    EXPECT_EQ(wal.Append(WalRecordType::kInsert, Payload({7, 8})), 1u);
    const uint32_t payload_crc = Crc32(payload.data(), payload.size());
    EXPECT_EQ(wal.Append(WalRecordType::kInsertBatch, payload, payload_crc),
              2u);
    wal.Acknowledge(2);
  }
  uint64_t batch_records = 0;
  auto replay =
      ReplayWal(dir.path(), 1, [&](const WalRecordView& rec) -> Status {
        if (rec.lsn == 2) {
          EXPECT_EQ(rec.type, WalRecordType::kInsertBatch);
          EXPECT_EQ(rec.payload.size(), payload.size());
          if (rec.payload.size() == payload.size()) {
            EXPECT_EQ(std::memcmp(rec.payload.data(), payload.data(),
                                  payload.size()),
                      0);
          }
          ++batch_records;
        }
        return Status::OK();
      });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.ValueOrDie().applied, 2u);  // CRC validated both frames
  EXPECT_EQ(batch_records, 1u);
  EXPECT_FALSE(replay.ValueOrDie().torn_tail);
}

TEST(WalTest, TornTailIsToleratedAndCutAtEveryByte) {
  // Write 4 records, then truncate the segment at every possible byte
  // length: replay must recover exactly the records whose frames survived
  // intact and flag the torn tail, never error or fabricate.
  ScratchDir dir("waltorn");
  std::vector<uint64_t> frame_ends;  // cumulative byte offsets
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    auto& wal = *w.ValueOrDie();
    for (uint64_t i = 0; i < 4; ++i) {
      wal.Append(WalRecordType::kInsert, Payload({i, i * 7}));
      wal.Acknowledge(i + 1);
      auto segs = ListWalSegments(dir.path());
      ASSERT_TRUE(segs.ok());
      auto sz = FileSize(dir.path() + "/" + segs.ValueOrDie()[0].second);
      ASSERT_TRUE(sz.ok());
      frame_ends.push_back(sz.ValueOrDie());
    }
  }
  auto segs = ListWalSegments(dir.path());
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.ValueOrDie().size(), 1u);
  const std::string seg = dir.path() + "/" + segs.ValueOrDie()[0].second;
  const uint64_t full = frame_ends.back();

  // Walk the cut point from just-before-the-end down to an empty file;
  // truncation is monotone, so each iteration only shaves further.
  for (uint64_t cut = full; cut-- > 0;) {
    ASSERT_TRUE(TruncateFile(seg, cut).ok());
    uint64_t applied = 0;
    auto replay = ReplayWal(dir.path(), 1, [&](const WalRecordView&) {
      ++applied;
      return Status::OK();
    });
    ASSERT_TRUE(replay.ok()) << "cut at " << cut;
    uint64_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= cut) {
      ++expect;
    }
    EXPECT_EQ(applied, expect) << "cut at " << cut;
    // A cut exactly on a frame boundary (or the empty file) reads as a
    // clean end; anywhere else is a torn tail.
    const bool boundary =
        cut == 0 || std::find(frame_ends.begin(), frame_ends.end(), cut) !=
                        frame_ends.end();
    EXPECT_EQ(replay.ValueOrDie().torn_tail, !boundary) << "cut at " << cut;
  }
}

TEST(WalTest, RotationPartitionsAndDropReclaims) {
  ScratchDir dir("walrot");
  auto w =
      WalWriter::Open(dir.path(), 1, {WalSyncPolicy::kEveryCommit, 1000});
  ASSERT_TRUE(w.ok());
  auto& wal = *w.ValueOrDie();
  wal.Append(WalRecordType::kInsert, Payload({1}));
  wal.Append(WalRecordType::kInsert, Payload({2}));
  const uint64_t replay_lsn = wal.RotateSegment();
  EXPECT_EQ(replay_lsn, 3u);
  wal.Append(WalRecordType::kInsert, Payload({3}));
  // Rotation defers the outgoing segment's fdatasync; the next group
  // commit must cover records in BOTH segments before claiming lsn 3.
  wal.Acknowledge(3);
  EXPECT_GE(wal.durable_lsn(), 3u);
  {
    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.ValueOrDie().size(), 2u);
    EXPECT_EQ(segs.ValueOrDie()[0].first, 1u);
    EXPECT_EQ(segs.ValueOrDie()[1].first, 3u);
  }
  // Checkpoint durable at replay_lsn: the pre-rotation segment dies.
  ASSERT_TRUE(wal.DropSegmentsBefore(replay_lsn).ok());
  auto segs = ListWalSegments(dir.path());
  ASSERT_TRUE(segs.ok());
  ASSERT_EQ(segs.ValueOrDie().size(), 1u);
  EXPECT_EQ(segs.ValueOrDie()[0].first, 3u);
  // The surviving record replays; nothing below replay_lsn remains.
  wal.Acknowledge(3);
  uint64_t applied = 0;
  auto replay = ReplayWal(dir.path(), replay_lsn, [&](const WalRecordView& rec) {
    EXPECT_EQ(rec.lsn, 3u);
    ++applied;
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(applied, 1u);
}

TEST(WalTest, LsnDiscontinuityStopsReplayAtExactPrefix) {
  // A later segment whose records do not continue the LSN sequence means
  // an earlier tail was lost (e.g. a rotated-away segment whose deferred
  // fdatasync never hit the disk while the newer segment's pages did).
  // Replaying past the jump would land every record on shifted row ids,
  // so replay must stop at the discontinuity and report it.
  ScratchDir dir("walgap");
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    for (uint64_t i = 1; i <= 3; ++i) {
      w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({i}));
    }
  }
  {
    // Simulates the lost tail: records 4..9 are missing entirely.
    auto w = WalWriter::Open(dir.path(), 10,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({10}));
  }
  uint64_t applied = 0;
  auto replay = ReplayWal(dir.path(), 1, [&](const WalRecordView& rec) {
    EXPECT_LE(rec.lsn, 3u);
    ++applied;
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(replay.ValueOrDie().last_lsn, 3u);
  EXPECT_TRUE(replay.ValueOrDie().lsn_gap);
}

TEST(WalTest, HoleBelowMinLsnDoesNotAbortTheTail) {
  // A hole among records the checkpoint already covers (e.g. a partially
  // failed segment cleanup left wal-1 but deleted wal-4) is harmless: the
  // continuity requirement starts at min_lsn, so the acknowledged tail
  // must replay in full rather than being misread as a dead timeline.
  ScratchDir dir("walhole");
  {
    auto w = WalWriter::Open(dir.path(), 1,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    for (uint64_t i = 1; i <= 3; ++i) {
      w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({i}));
    }
  }
  {
    // Records 4..9 are gone — but min_lsn = 10 never needs them.
    auto w = WalWriter::Open(dir.path(), 10,
                             {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(w.ok());
    for (uint64_t i = 10; i <= 12; ++i) {
      w.ValueOrDie()->Append(WalRecordType::kInsert, Payload({i}));
    }
  }
  uint64_t applied = 0;
  auto replay = ReplayWal(dir.path(), 10, [&](const WalRecordView& rec) {
    EXPECT_GE(rec.lsn, 10u);
    ++applied;
    return Status::OK();
  });
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(applied, 3u);
  EXPECT_EQ(replay.ValueOrDie().skipped, 3u);  // 1..3, checkpoint-covered
  EXPECT_FALSE(replay.ValueOrDie().lsn_gap);
  EXPECT_EQ(replay.ValueOrDie().last_lsn, 12u);
}

TEST(WalTest, IntervalPolicySyncsInBackground) {
  ScratchDir dir("walint");
  auto w =
      WalWriter::Open(dir.path(), 1, {WalSyncPolicy::kInterval, 200});
  ASSERT_TRUE(w.ok());
  auto& wal = *w.ValueOrDie();
  const uint64_t lsn = wal.Append(WalRecordType::kInsert, Payload({9}));
  wal.Acknowledge(lsn);  // returns immediately under kInterval
  for (int i = 0; i < 2000 && wal.durable_lsn() < lsn; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(wal.durable_lsn(), lsn);
  EXPECT_GE(wal.sync_count(), 1u);
}

// --- DurableTable -----------------------------------------------------------

Schema TestSchema() {
  Schema schema;
  schema.columns = {{8, "a"}, {4, "b"}, {16, "c"}};
  return schema;
}

TEST(DurableTableTest, EmptyOpenWriteReopen) {
  ScratchDir dir("dt");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t rows = 0, valid = 0, sum0 = 0, sum1 = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& t = opened.ValueOrDie()->table();
    const uint64_t r0 = t.InsertRow({5, 6, 7});
    t.InsertRow({8, 9, 10});
    t.UpdateRow(r0, {50, 60, 70});
    ASSERT_TRUE(t.DeleteRow(1).ok());
    rows = t.num_rows();
    valid = t.valid_rows();
    sum0 = t.SumColumn(0);
    sum1 = t.SumColumn(1);
    EXPECT_FALSE(opened.ValueOrDie()->recovery().checkpoint_loaded);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_EQ(dt.recovery().wal_records_applied, 4u);
  EXPECT_FALSE(dt.recovery().checkpoint_loaded);
  EXPECT_FALSE(dt.recovery().torn_tail);
  const Table& t = dt.table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum0);
  EXPECT_EQ(t.SumColumn(1), sum1);
  EXPECT_FALSE(t.IsRowValid(0));  // superseded by the update
  EXPECT_FALSE(t.IsRowValid(1));  // deleted
  EXPECT_TRUE(t.IsRowValid(2));
}

TEST(DurableTableTest, MergeWritesCheckpointAndTruncatesWal) {
  ScratchDir dir("dtckpt");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t sum = 0, rows = 0, valid = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& dt = *opened.ValueOrDie();
    Table& t = dt.table();
    for (uint64_t i = 0; i < 500; ++i) t.InsertRow({i, i * 3, i * 7});
    ASSERT_TRUE(t.DeleteRow(13).ok());

    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
    EXPECT_EQ(dt.durability().checkpoints_written(), 1u);
    EXPECT_EQ(dt.durability().checkpoint_failures(), 0u);

    // The WAL truncated to the freeze point: exactly one segment remains
    // and it starts at the checkpoint's replay LSN (501 inserts+delete).
    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.ValueOrDie().size(), 1u);
    EXPECT_EQ(segs.ValueOrDie()[0].first, 502u);

    // Post-checkpoint traffic -> the replay tail.
    for (uint64_t i = 0; i < 50; ++i) t.InsertRow({1000 + i, i, i});
    t.UpdateRow(2, {7, 7, 7});
    ASSERT_TRUE(t.DeleteRow(3).ok());
    rows = t.num_rows();
    valid = t.valid_rows();
    sum = t.SumColumn(0);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_TRUE(dt.recovery().checkpoint_loaded);
  EXPECT_EQ(dt.recovery().checkpoint_rows, 500u);
  EXPECT_EQ(dt.recovery().wal_records_applied, 52u);
  const Table& t = dt.table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum);
  EXPECT_FALSE(t.IsRowValid(13));  // tombstone from before the checkpoint
  EXPECT_FALSE(t.IsRowValid(2));   // superseded after the checkpoint
  EXPECT_FALSE(t.IsRowValid(3));   // deleted after the checkpoint
  // The recovered main partition is the checkpointed one.
  EXPECT_EQ(t.column(0).main_size(), 500u);
}

TEST(DurableTableTest, SchemaMismatchRefused) {
  ScratchDir dir("dtschema");
  DurableTableOptions options;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 16; ++i) t.InsertRow({i, i, i});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());  // persist a checkpoint with widths
  }
  Schema wrong = TestSchema();
  wrong.columns[1].value_width = 8;  // was 4
  auto reopened = DurableTable::Open(dir.path(), wrong, options);
  EXPECT_FALSE(reopened.ok());

  Schema fewer = TestSchema();
  fewer.columns.pop_back();
  EXPECT_FALSE(DurableTable::Open(dir.path(), fewer, options).ok());

  // Same shape but different column names: silently reinterpreting another
  // schema's bytes is exactly what recovery must refuse.
  Schema renamed = TestSchema();
  renamed.columns[0].name = "not_a";
  EXPECT_FALSE(DurableTable::Open(dir.path(), renamed, options).ok());

  // The original schema still opens.
  EXPECT_TRUE(DurableTable::Open(dir.path(), TestSchema(), options).ok());
}

TEST(DurableTableTest, CorruptCheckpointWithoutHistoryIsAnError) {
  ScratchDir dir("dtcorrupt");
  DurableTableOptions options;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
  }
  // Flip a byte inside the (only) checkpoint. Its WAL segments are gone, so
  // recovery must fail loudly rather than silently dropping 64 rows.
  auto ckpts = persist::ListCheckpoints(dir.path());
  ASSERT_TRUE(ckpts.ok());
  ASSERT_EQ(ckpts.ValueOrDie().size(), 1u);
  const std::string path =
      dir.path() + "/" + ckpts.ValueOrDie()[0].second;
  auto size = FileSize(path);
  ASSERT_TRUE(size.ok());
  ASSERT_TRUE(TruncateFile(path, size.ValueOrDie() - 5).ok());
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  EXPECT_FALSE(reopened.ok());
}

TEST(DurableTableTest, OlderCheckpointVersionIsRefused) {
  ScratchDir dir("dtversion");
  DurableTableOptions options;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
    TableMergeOptions merge;
    ASSERT_TRUE(t.Merge(merge).ok());
  }
  auto ckpts = persist::ListCheckpoints(dir.path());
  ASSERT_TRUE(ckpts.ok());
  ASSERT_EQ(ckpts.ValueOrDie().size(), 1u);
  const std::string path = dir.path() + "/" + ckpts.ValueOrDie()[0].second;
  const std::vector<uint8_t> bytes = ReadBytes(path);
  ASSERT_GT(bytes.size(), 16u);
  // Rewrites the version field (after the 8-byte magic) and re-seals the
  // CRC trailer over everything after the magic, so the version is the
  // file's only defect.
  auto write_version = [&](uint32_t version) {
    std::vector<uint8_t> patched = bytes;
    std::memcpy(patched.data() + 8, &version, sizeof(version));
    const uint32_t crc = Crc32(patched.data() + 8, patched.size() - 12);
    std::memcpy(patched.data() + patched.size() - 4, &crc, sizeof(crc));
    WriteBytes(path, patched);
  };
  write_version(3);  // control: the re-sealed current version still reads
  ASSERT_TRUE(persist::ReadCheckpoint(path).ok());
  for (uint32_t old_version : {1u, 2u}) {
    SCOPED_TRACE("version " + std::to_string(old_version));
    write_version(old_version);
    auto read = persist::ReadCheckpoint(path);
    ASSERT_FALSE(read.ok());
    EXPECT_NE(read.status().ToString().find("unsupported checkpoint version"),
              std::string::npos)
        << read.status().ToString();
    // Recovery skips the file; with no older checkpoint and the covered
    // WAL segments gone, the open fails instead of dropping 64 rows.
    EXPECT_FALSE(DurableTable::Open(dir.path(), TestSchema(), options).ok());
  }
}

TEST(DurableTableTest, RestoredRowsAreVisibleToEverySnapshotAndKeepHistory) {
  // Checkpoints carry no insert timestamps: recovery loads every restored
  // row at ts 0. Every post-restart snapshot must see every restored row,
  // and a snapshot must still see a restored row's old version after a
  // later update or delete.
  ScratchDir dir("dtrestored");
  constexpr uint64_t kCapacity = 150;
  constexpr uint64_t kRows = 400;  // two sealed segments and a tail
  DurableTableOptions options;
  {
    auto opened = persist::DurablePartitionedTable::Open(
        dir.path(), TestSchema(), kCapacity, options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    PartitionedTable& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < kRows; ++i) t.InsertRow({i, i % 7, i * 3});
    ASSERT_TRUE(t.DeleteRow(5).ok());
    t.MergeAll(TableMergeOptions{});  // every segment checkpoints
    ASSERT_TRUE(t.DeleteRow(160).ok());  // replay tail
  }
  auto reopened = persist::DurablePartitionedTable::Open(
      dir.path(), TestSchema(), kCapacity, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& segments = reopened.ValueOrDie()->recovery().segments;
  ASSERT_EQ(segments.size(), 3u);
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_TRUE(segments[i].checkpoint_loaded) << "segment " << i;
    EXPECT_EQ(segments[i].checkpoint_rows, i < 2 ? kCapacity : 100u);
  }
  PartitionedTable& t = reopened.ValueOrDie()->table();
  uint64_t valid_sum = 0;
  for (uint64_t row = 0; row < kRows; ++row) {
    if (row != 5 && row != 160) valid_sum += row;
  }
  auto expect_restored_state = [&](const PartitionedSnapshot& snap) {
    for (uint64_t row = 0; row < kRows; ++row) {
      ASSERT_EQ(snap.GetKey(0, row), row);
      ASSERT_EQ(snap.IsRowValid(row), row != 5 && row != 160) << row;
    }
    EXPECT_EQ(snap.CountRange(0, 0, kRows, /*only_valid=*/false), kRows);
    EXPECT_EQ(snap.CountRange(0, 0, kRows, /*only_valid=*/true), kRows - 2);
    EXPECT_EQ(snap.SumColumn(0, /*only_valid=*/true), valid_sum);
  };

  const PartitionedSnapshot first = t.CreateSnapshot();
  ASSERT_EQ(first.num_rows(), kRows);
  EXPECT_EQ(first.valid_rows(), kRows - 2);
  expect_restored_state(first);

  // Update a restored row of segment 0 and delete one of segment 1 (both
  // loaded from checkpoints), with a snapshot taken before the writes.
  const PartitionedSnapshot before = t.CreateSnapshot();
  const uint64_t new_row = t.UpdateRow(10, {1000, 1, 1});
  ASSERT_TRUE(t.DeleteRow(200).ok());
  const PartitionedSnapshot after = t.CreateSnapshot();

  for (const PartitionedSnapshot* snap : {&first, &before}) {
    EXPECT_EQ(snap->num_rows(), kRows);
    expect_restored_state(*snap);  // still the old versions
  }
  ASSERT_EQ(after.num_rows(), kRows + 1);
  EXPECT_FALSE(after.IsRowValid(10));
  EXPECT_FALSE(after.IsRowValid(200));
  EXPECT_TRUE(after.IsRowValid(new_row));
  EXPECT_EQ(after.GetKey(0, new_row), 1000u);
  EXPECT_TRUE(after.IsRowValid(11));
  EXPECT_EQ(after.CountRange(0, 0, kRows, /*only_valid=*/true), kRows - 4);
  EXPECT_EQ(after.SumColumn(0, /*only_valid=*/true),
            valid_sum - 10 - 200 + 1000);
}

TEST(DurableTableTest, MidMergeTombstoneBelongsToReplayTailNotCheckpoint) {
  // A delete that lands while the merge body runs has an LSN >= the
  // checkpoint's replay LSN — so its effect must live in the WAL tail,
  // NOT in the checkpoint's validity bits. If the record then never
  // becomes durable (crash before its fsync), recovery must surface the
  // row as still valid; a checkpoint that baked the tombstone in would
  // resurrect an operation the log never recorded.
  ScratchDir dir("dtmidmerge");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  uint64_t delete_lsn = 0;
  uint64_t replay_lsn = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& dt = *opened.ValueOrDie();
    Table& t = dt.table();
    for (uint64_t i = 0; i < 2000; ++i) t.InsertRow({i, i, i});

    TableMergeOptions merge;
    merge.inter_column_delay_us = 30'000;  // stretch the merge body
    std::thread merger([&] { (void)t.Merge(merge); });
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    ASSERT_TRUE(t.DeleteRow(5).ok());  // lands inside (or after) the body
    delete_lsn = dt.wal().next_lsn() - 1;
    merger.join();

    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    replay_lsn = segs.ValueOrDie().back().first;
    EXPECT_GE(dt.durability().checkpoints_written(), 1u);
    EXPECT_FALSE(t.IsRowValid(5));
  }
  if (delete_lsn < replay_lsn) {
    GTEST_SKIP() << "delete landed before the freeze on this run";
  }
  // Crash simulation in which the delete record never became durable:
  // wipe the replay tail entirely.
  auto segs = ListWalSegments(dir.path());
  ASSERT_TRUE(segs.ok());
  ASSERT_TRUE(
      TruncateFile(dir.path() + "/" + segs.ValueOrDie().back().second, 0)
          .ok());
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Table& t = reopened.ValueOrDie()->table();
  EXPECT_EQ(t.num_rows(), 2000u);
  EXPECT_TRUE(t.IsRowValid(5))
      << "checkpoint resurrected a tombstone whose record was never durable";
}

TEST(DurableTableTest, UnopenableWalSegmentIsAnErrorNotACrash) {
  // A directory already occupies the first segment's name, so the WAL
  // cannot open it; Open must surface the Status (and the half-built
  // writer's destructor must cope with having no segment).
  ScratchDir dir("dtnoseg");
  ASSERT_TRUE(
      EnsureDir(dir.path() + "/wal-00000000000000000001.log").ok());
  auto opened = DurableTable::Open(dir.path(), TestSchema(), {});
  EXPECT_FALSE(opened.ok());
  ::remove((dir.path() + "/wal-00000000000000000001.log").c_str());
}

TEST(DurableTableTest, OutOfRangeUpdateRecoversWithLiveSemantics) {
  // The live write path accepts UpdateRow targets beyond the current row
  // count (append, no invalidate) and acknowledges them — replay must
  // accept the same records, or recovery bricks on a valid log.
  ScratchDir dir("dtoor");
  DurableTableOptions options;
  uint64_t rows = 0, valid = 0, sum = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 4; ++i) t.InsertRow({i, i, i});
    t.UpdateRow(1000, {77, 77, 77});  // far beyond the 4 live rows
    rows = t.num_rows();
    valid = t.valid_rows();
    sum = t.SumColumn(0);
    EXPECT_EQ(rows, 5u);
    EXPECT_EQ(valid, 5u);  // nothing was invalidated
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const Table& t = reopened.ValueOrDie()->table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum);
}

TEST(DurableTableTest, BatchInsertSurvivesReopenAsOneRecord) {
  // InsertRows on a durable table logs ONE kInsertBatch record; recovery
  // decodes it back through the same column-parallel path and reports the
  // per-record row-delta in wal_ops_applied.
  ScratchDir dir("dtbatch");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  std::vector<uint64_t> keys;
  for (uint64_t r = 0; r < 100; ++r) {
    for (uint64_t c = 0; c < 3; ++c) keys.push_back(r * 10 + c);
  }
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& dt = *opened.ValueOrDie();
    TaskQueue queue(2);
    EXPECT_EQ(dt.table().InsertRows(keys, 100, &queue), 0u);
    EXPECT_EQ(dt.table().InsertRow({1, 2, 3}), 100u);
    // One batch record + one row record were framed: LSNs 1 and 2.
    EXPECT_EQ(dt.wal().next_lsn(), 3u);
    EXPECT_GE(dt.wal().durable_lsn(), 2u);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_EQ(dt.recovery().wal_records_applied, 2u);
  EXPECT_EQ(dt.recovery().wal_ops_applied, 101u);
  const Table& t = dt.table();
  ASSERT_EQ(t.num_rows(), 101u);
  for (uint64_t r = 0; r < 100; ++r) {
    EXPECT_EQ(t.GetKey(0, r), r * 10);
    EXPECT_EQ(t.GetKey(1, r), r * 10 + 1);
    EXPECT_EQ(t.GetKey(2, r), r * 10 + 2);
  }
  EXPECT_EQ(t.GetKey(0, 100), 1u);
}

TEST(DurableTableTest, OversizedBatchIsChunkedIntoMultipleRecords) {
  // A batch whose keys exceed the journal's per-record bound must be split
  // into several records (none may outgrow the WAL frame-length field or
  // replay's cap), and the chunk sequence must recover like any record
  // prefix. A tiny bound forces the path without gigabyte payloads.
  class TinyBatchJournal final : public TableJournal {
   public:
    explicit TinyBatchJournal(TableJournal* inner) : inner_(inner) {}
    uint64_t LogInsert(std::span<const uint64_t> keys) override {
      return inner_->LogInsert(keys);
    }
    uint64_t LogUpdate(uint64_t old_row,
                       std::span<const uint64_t> keys) override {
      return inner_->LogUpdate(old_row, keys);
    }
    uint64_t LogDelete(uint64_t row) override {
      return inner_->LogDelete(row);
    }
    PreparedBatch PrepareInsertBatch(std::span<const uint64_t> keys,
                                     uint64_t num_rows,
                                     uint64_t num_columns) const override {
      return inner_->PrepareInsertBatch(keys, num_rows, num_columns);
    }
    uint64_t LogInsertBatch(const PreparedBatch& batch) override {
      return inner_->LogInsertBatch(batch);
    }
    void Acknowledge(uint64_t lsn) override { inner_->Acknowledge(lsn); }
    uint64_t OnMergeFreezeLocked() override {
      return inner_->OnMergeFreezeLocked();
    }
    void OnMergeCommitted(CheckpointCapture capture) override {
      inner_->OnMergeCommitted(std::move(capture));
    }
    uint64_t MaxBatchKeys() const override { return 9; }  // 3 rows x 3 cols

   private:
    TableJournal* inner_;
  };

  ScratchDir dir("dtchunk");
  std::vector<uint64_t> keys;
  for (uint64_t r = 0; r < 10; ++r) {
    for (uint64_t c = 0; c < 3; ++c) keys.push_back(r * 100 + c);
  }
  {
    auto wal = WalWriter::Open(dir.path(), 1,
                               {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(wal.ok());
    persist::DurabilityManager manager(dir.path(), wal.ValueOrDie().get());
    TinyBatchJournal tiny(&manager);
    Table table(TestSchema());
    table.AttachJournal(&tiny);
    EXPECT_EQ(table.InsertRows(keys, 10), 0u);
    // 10 rows at 3 rows per chunk -> 4 records (3+3+3+1), one ack.
    EXPECT_EQ(wal.ValueOrDie()->next_lsn(), 5u);
    EXPECT_GE(wal.ValueOrDie()->durable_lsn(), 4u);
    table.AttachJournal(nullptr);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  EXPECT_EQ(dt.recovery().wal_records_applied, 4u);
  EXPECT_EQ(dt.recovery().wal_ops_applied, 10u);
  ASSERT_EQ(dt.table().num_rows(), 10u);
  for (uint64_t r = 0; r < 10; ++r) {
    EXPECT_EQ(dt.table().GetKey(0, r), r * 100);
    EXPECT_EQ(dt.table().GetKey(2, r), r * 100 + 2);
  }
}

TEST(DurableTableTest, RowAndBatchLoggingRecoverIdenticalTables) {
  // The differential at the heart of PR 4: the same logical schedule run
  // with per-row records and with insert runs coalesced into kInsertBatch
  // records must recover, after checkpoints and a clean close, into tables
  // that are identical to each other and to the reference model.
  const uint64_t kOps = 400;
  const std::vector<WriteOp> ops = GenerateWriteOps(
      3, kOps, testref::kTortureKeyDomain, /*seed=*/0xd1ff);
  const std::vector<WriteOp> batched = CoalesceInsertBatches(ops, 32);

  // Unbounded capacity: each run is one durable segment that never seals.
  auto run = [&](const std::vector<WriteOp>& schedule,
                 const std::string& tag) {
    auto dir = std::make_unique<ScratchDir>(tag);
    DurableTableOptions options;
    options.wal.policy = WalSyncPolicy::kEveryCommit;
    {
      auto opened = persist::DurablePartitionedTable::Open(
          dir->path(), TestSchema(), testref::kUnboundedCapacity, options);
      EXPECT_TRUE(opened.ok());
      WriteScheduleOptions sched_options;
      sched_options.merge_every = 90;
      RunWriteSchedule(&opened.ValueOrDie()->table(), schedule,
                       sched_options);
    }
    auto reopened = persist::DurablePartitionedTable::Open(
        dir->path(), TestSchema(), testref::kUnboundedCapacity, options);
    EXPECT_TRUE(reopened.ok()) << reopened.status().ToString();
    return std::make_pair(std::move(dir),
                          std::move(reopened).ValueOrDie());
  };

  auto [row_dir, row_dt] = run(ops, "dtdiffrow");
  auto [batch_dir, batch_dt] = run(batched, "dtdiffbatch");

  // Both recover the complete schedule (clean close)...
  const testref::ReferenceModel model = testref::ModelPrefix(ops, kOps);
  testref::ExpectTableMatchesModel(row_dt->table(), model, 0xd1ff);
  testref::ExpectTableMatchesModel(batch_dt->table(), model, 0xd1ff);

  // ...and are cell-for-cell identical to each other.
  const PartitionedTable& a = row_dt->table();
  const PartitionedTable& b = batch_dt->table();
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.valid_rows(), b.valid_rows());
  for (uint64_t row = 0; row < a.num_rows(); ++row) {
    ASSERT_EQ(a.IsRowValid(row), b.IsRowValid(row)) << "row " << row;
    for (size_t c = 0; c < 3; ++c) {
      ASSERT_EQ(a.GetKey(c, row), b.GetKey(c, row))
          << "row " << row << " col " << c;
    }
  }
  // Both runs exercised real checkpoints, so recovery spliced a batch tail
  // onto checkpointed state rather than replaying from scratch.
  ASSERT_EQ(row_dt->recovery().segments.size(), 1u);
  ASSERT_EQ(batch_dt->recovery().segments.size(), 1u);
  EXPECT_TRUE(row_dt->recovery().segments[0].checkpoint_loaded);
  EXPECT_TRUE(batch_dt->recovery().segments[0].checkpoint_loaded);
}

TEST(DurableTableTest, DaemonMergesProduceCheckpoints) {
  // The autonomous path: the merge daemon on a durable table checkpoints on
  // every commit without any explicit persistence calls. Unbounded
  // capacity keeps the table one durable segment that never seals.
  ScratchDir dir("dtdaemon");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kNone;  // speed; durability not probed
  auto opened = persist::DurablePartitionedTable::Open(
      dir.path(), TestSchema(), std::numeric_limits<uint64_t>::max(),
      options);
  ASSERT_TRUE(opened.ok());
  auto& dpt = *opened.ValueOrDie();

  MergeDaemonPolicy policy;
  policy.delta_fraction = 0.01;
  policy.min_delta_rows = 256;
  policy.poll_interval_us = 200;
  PartitionedMergeDaemon daemon(&dpt.table(), policy, TableMergeOptions{});
  daemon.Start();
  for (uint64_t i = 0; i < 5000; ++i) {
    dpt.table().InsertRow({i, i, i});
  }
  daemon.Nudge();
  const persist::DurabilityManager& durability =
      dpt.durable_segment(0).durability();
  for (int i = 0; i < 5000 && durability.checkpoints_written() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  ASSERT_EQ(dpt.num_durable_segments(), 1u);
  EXPECT_GE(durability.checkpoints_written(), 1u);
  EXPECT_EQ(durability.checkpoint_failures(), 0u);
}

TEST(DurableTableTest, CompactionCheckpointTruncatesTombstoneTail) {
  // The sealed-segment aging scenario: after the final merge only
  // tombstone records land in the WAL, and before PR 7 they replayed on
  // every reopen, forever. A validity-only compaction checkpoint must
  // re-anchor the durable image at the current frontier: one checkpoint,
  // one (empty) WAL segment, zero records to replay.
  ScratchDir dir("dtcompact");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  const uint64_t kDeletes = 40;
  uint64_t rows = 0, valid = 0, sum = 0;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    auto& dt = *opened.ValueOrDie();
    Table& t = dt.table();
    for (uint64_t i = 0; i < 500; ++i) t.InsertRow({i, i * 3, i * 7});
    ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
    EXPECT_EQ(dt.durability_stats().uncheckpointed_records, 0u);

    // Tombstone-only traffic grows the un-checkpointed backlog 1:1.
    for (uint64_t i = 0; i < kDeletes; ++i) {
      ASSERT_TRUE(t.DeleteRow(i * 3).ok());
    }
    EXPECT_EQ(dt.durability_stats().uncheckpointed_records, kDeletes);

    // Inserts took LSNs 1..500, the merge froze at 501, deletes took
    // 501..540 — the compaction rotates at the frontier, 541.
    auto compacted = t.CompactCheckpoint();
    ASSERT_TRUE(compacted.ok()) << compacted.status().ToString();
    EXPECT_EQ(compacted.ValueOrDie(), 501u + kDeletes);

    const persist::DurabilityStats stats = dt.durability_stats();
    EXPECT_EQ(stats.compaction_checkpoints, 1u);
    EXPECT_EQ(stats.checkpoints_written, 2u);  // merge + compaction
    EXPECT_EQ(stats.checkpoint_failures, 0u);
    EXPECT_EQ(stats.cleanup_failures, 0u);
    EXPECT_EQ(stats.installed_replay_lsn, 501u + kDeletes);
    EXPECT_EQ(stats.uncheckpointed_records, 0u);

    // The superseded checkpoint and WAL history are gone: exactly one of
    // each remains, both anchored at the compaction's replay LSN.
    auto ckpts = persist::ListCheckpoints(dir.path());
    ASSERT_TRUE(ckpts.ok());
    ASSERT_EQ(ckpts.ValueOrDie().size(), 1u);
    EXPECT_EQ(ckpts.ValueOrDie()[0].first, 501u + kDeletes);
    auto segs = ListWalSegments(dir.path());
    ASSERT_TRUE(segs.ok());
    ASSERT_EQ(segs.ValueOrDie().size(), 1u);
    EXPECT_EQ(segs.ValueOrDie()[0].first, 501u + kDeletes);

    rows = t.num_rows();
    valid = t.valid_rows();
    sum = t.SumColumn(0);
  }
  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const auto& dt = *reopened.ValueOrDie();
  // Bounded replay: the tombstones are baked into the checkpoint's
  // validity bits, so recovery replays NOTHING.
  EXPECT_TRUE(dt.recovery().checkpoint_loaded);
  EXPECT_EQ(dt.recovery().checkpoint_rows, 500u);
  EXPECT_EQ(dt.recovery().wal_records_applied, 0u);
  const Table& t = dt.table();
  EXPECT_EQ(t.num_rows(), rows);
  EXPECT_EQ(t.valid_rows(), valid);
  EXPECT_EQ(t.SumColumn(0), sum);
  EXPECT_FALSE(t.IsRowValid(0));   // deleted (i * 3 for i = 0)
  EXPECT_TRUE(t.IsRowValid(1));
  const persist::DurabilityStats stats = dt.durability_stats();
  EXPECT_EQ(stats.checkpoint_failures, 0u);
  EXPECT_EQ(stats.cleanup_failures, 0u);
  EXPECT_EQ(stats.uncheckpointed_records, 0u);
  // The recovered manager keeps counting from the compaction's LSN, so
  // the trigger arithmetic stays exact across reopens.
  EXPECT_EQ(stats.installed_replay_lsn, 501u + kDeletes);
}

TEST(DurableTableTest, CompactionCheckpointRequiresEmptyDelta) {
  // The checkpoint format persists the main partition only; compacting
  // with live delta rows would drop them below the rotated replay LSN.
  // The precondition must refuse — and a journal-less table has no
  // checkpoint stream to compact at all.
  ScratchDir dir("dtcompactpre");
  auto opened = DurableTable::Open(dir.path(), TestSchema(), {});
  ASSERT_TRUE(opened.ok());
  Table& t = opened.ValueOrDie()->table();
  t.InsertRow({1, 2, 3});
  EXPECT_FALSE(t.CompactCheckpoint().ok());  // unmerged delta row
  ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
  EXPECT_TRUE(t.CompactCheckpoint().ok());  // delta drained: fine now

  Table plain(TestSchema());
  EXPECT_FALSE(plain.CompactCheckpoint().ok());  // no journal attached
}

TEST(DurableTableTest, CorruptNewerCheckpointIsSweptAfterFallback) {
  // A torn rename or bit rot can leave a junk checkpoint that sorts
  // newer than the good one while the WAL history behind it is intact.
  // Recovery falls back — and must delete the corpse, or every future
  // open pays the same fallback (and a later compaction's
  // DropCheckpointsBefore could make the junk file newest-and-only).
  ScratchDir dir("dtsweep");
  DurableTableOptions options;
  options.wal.policy = WalSyncPolicy::kEveryCommit;
  {
    auto opened = DurableTable::Open(dir.path(), TestSchema(), options);
    ASSERT_TRUE(opened.ok());
    auto& t = opened.ValueOrDie()->table();
    for (uint64_t i = 0; i < 64; ++i) t.InsertRow({i, i, i});
    ASSERT_TRUE(t.Merge(TableMergeOptions{}).ok());
    for (uint64_t i = 0; i < 5; ++i) t.InsertRow({100 + i, i, i});
  }
  const std::string junk =
      dir.path() + "/" + persist::CheckpointFileName(uint64_t{1} << 20);
  {
    auto out = FileWriter::Create(junk);
    ASSERT_TRUE(out.ok());
    ASSERT_TRUE(out.ValueOrDie()->Write("not a checkpoint", 16).ok());
    ASSERT_TRUE(out.ValueOrDie()->Close().ok());
  }

  auto reopened = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ(reopened.ValueOrDie()->recovery().invalid_checkpoints, 1u);
  EXPECT_EQ(reopened.ValueOrDie()->table().num_rows(), 69u);
  EXPECT_FALSE(FileExists(junk));  // dead file cannot shadow later opens

  auto again = DurableTable::Open(dir.path(), TestSchema(), options);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.ValueOrDie()->recovery().invalid_checkpoints, 0u);
  EXPECT_EQ(again.ValueOrDie()->table().num_rows(), 69u);
}

TEST(DurableTableTest, OutOfRangeDeleteInWalFailsRecovery) {
  // Unlike out-of-range updates (which the live path accepts with append
  // semantics), the live path never acknowledges a delete of a
  // nonexistent row — such a record can only mean corruption, and replay
  // must refuse it WITHOUT having counted it as applied.
  ScratchDir dir("dtbaddel");
  {
    auto wal = WalWriter::Open(dir.path(), 1,
                               {WalSyncPolicy::kEveryCommit, 1000});
    ASSERT_TRUE(wal.ok());
    wal.ValueOrDie()->Append(WalRecordType::kInsert, Payload({1, 2, 3}));
    wal.ValueOrDie()->Append(WalRecordType::kDelete, Payload({99}));
  }
  EXPECT_FALSE(DurableTable::Open(dir.path(), TestSchema(), {}).ok());
}

// --- on-disk format compatibility -------------------------------------------

struct GoldenFile {
  const char* path;  ///< relative to the table directory
  uint64_t size;
  uint32_t crc;      ///< Crc32 of the whole file
};

// Every file of the fixed-seed directory FormatCompatTest writes, recorded
// with the byte-at-a-time Crc32 that wrote the format's first directories.
// A mismatch means the bytes a WAL frame, checkpoint or manifest puts on
// disk changed — directories written by older builds would no longer be
// the ones this build writes (and, for a CRC kernel change, would no
// longer validate).
constexpr GoldenFile kGoldenFiles[] = {
    {"manifest-00000000000000000004.dmpm", 103, 0xaaa72ff0},
    {"seg-000000/ckpt-00000000000000000217.dmck", 2092, 0x04fdbe0b},
    {"seg-000000/wal-00000000000000000217.log", 6983, 0x935f3f7a},
    {"seg-000001/ckpt-00000000000000000206.dmck", 2084, 0x23ac98bf},
    {"seg-000001/wal-00000000000000000206.log", 1601, 0xaec340a7},
    {"seg-000002/ckpt-00000000000000000159.dmck", 1596, 0xeede8a4f},
    {"seg-000002/wal-00000000000000000159.log", 4669, 0xb86dcec2},
    {"seg-000003/wal-00000000000000000001.log", 5952, 0x3ca71d68},
};

TEST(FormatCompatTest, FixedSeedDirectoryIsByteIdenticalAndReopens) {
  using testref::kTortureKeyDomain;
  constexpr uint64_t kSeed = 1212;
  constexpr uint64_t kCapacity = 300;
  const std::vector<WriteOp> ops =
      GenerateWriteOps(3, 1200, kTortureKeyDomain, kSeed);
  // Row, batch, update, delete and transaction records all reach the WAL.
  const std::vector<WriteOp> schedule = GroupIntoTransactions(
      CoalesceInsertBatches(ops, 32), /*max_txn_ops=*/6, kSeed);
  ScratchDir dir("golden");
  {
    auto opened = persist::DurablePartitionedTable::Open(
        dir.path(), testref::TortureSchema(), kCapacity, {});
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    WriteScheduleOptions sched;
    sched.merge_every = 250;  // checkpoints, rotated and dropped WAL segments
    RunWriteSchedule(&opened.ValueOrDie()->table(), schedule, sched);
  }

  // Every file the directory holds, sorted by relative path.
  std::vector<std::string> files;
  auto top = ListDir(dir.path());
  ASSERT_TRUE(top.ok());
  for (const std::string& name : top.ValueOrDie()) {
    auto inner = ListDir(dir.path() + "/" + name);
    if (!inner.ok()) {
      files.push_back(name);
      continue;
    }
    for (const std::string& leaf : inner.ValueOrDie()) {
      files.push_back(name + "/" + leaf);
    }
  }
  std::sort(files.begin(), files.end());
  std::string actual;
  for (const std::string& file : files) {
    auto in = FileReader::Open(dir.path() + "/" + file);
    ASSERT_TRUE(in.ok());
    std::vector<uint8_t> bytes(in.ValueOrDie()->file_size());
    ASSERT_TRUE(in.ValueOrDie()->Read(bytes.data(), bytes.size()).ok());
    char line[160];
    std::snprintf(line, sizeof(line), "    {\"%s\", %zu, 0x%08x},\n",
                  file.c_str(), bytes.size(),
                  Crc32(bytes.data(), bytes.size()));
    actual += line;
  }
  std::string expected;
  for (const GoldenFile& g : kGoldenFiles) {
    char line[160];
    std::snprintf(line, sizeof(line), "    {\"%s\", %llu, 0x%08x},\n",
                  g.path, static_cast<unsigned long long>(g.size), g.crc);
    expected += line;
  }
  EXPECT_EQ(actual, expected);

  // The directory reopens to exactly the logical state that wrote it.
  auto reopened = persist::DurablePartitionedTable::Open(
      dir.path(), testref::TortureSchema(), kCapacity, {});
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_TRUE(reopened.ValueOrDie()->recovery().manifest_loaded);
  testref::ExpectTableMatchesModel(reopened.ValueOrDie()->table(),
                                   testref::ModelPrefix(ops, ops.size()),
                                   kSeed);
}

}  // namespace
}  // namespace deltamerge
