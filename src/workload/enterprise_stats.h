// Copyright (c) 2026 The DeltaMerge Authors.
// Enterprise data characteristics (paper §2).
//
// The paper's §2 analyses 12 SAP Business Suite customer systems (73,979
// tables, 32B records). The raw customer data is proprietary; this module is
// the documented substitution (docs/BENCHMARKS.md, "Documented
// deviations"): it encodes the *published* statistics — Figure 1's
// query-type mix, Figure 2's table-size histogram,
// Figure 3's 144 large tables, Figure 4's distinct-value buckets, and the
// VBAP merge-duration scenario — and synthesizes table populations and
// workloads drawn from those distributions. Everything the merge algorithm
// is sensitive to (value-domain sizes, table shapes, read/write mix) is
// preserved by construction.
//
// Bar values for Figures 1 and 4 are digitized from the paper's charts and
// consistent with the quoted aggregate facts (>80% reads OLTP, >90% OLAP,
// ~17%/~7% writes, TPC-C 46% writes).

#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/random.h"

namespace deltamerge {

// ---------------------------------------------------------------------------
// Figure 1: query-type distribution.
// ---------------------------------------------------------------------------

enum class QueryType : uint8_t {
  kLookup = 0,
  kTableScan = 1,
  kRangeSelect = 2,
  kInsert = 3,
  kModification = 4,
  kDelete = 5,
};
inline constexpr int kNumQueryTypes = 6;

std::string_view QueryTypeToString(QueryType t);
bool IsWrite(QueryType t);

/// Fractions per query type; sums to 1.
struct QueryMix {
  std::array<double, kNumQueryTypes> fraction{};

  double read_fraction() const;
  double write_fraction() const;
};

/// Figure 1's three workloads.
QueryMix OltpMix();   // ~83% reads / ~17% writes
QueryMix OlapMix();   // ~93% reads / ~7% writes
QueryMix TpccMix();   // 54% reads / 46% writes (the contrast case)

/// The paper's measured sustained update-rate band (§2: "an update rate
/// varying from 3,000 to 18,000 updates/second") — the two dashed target
/// lines of Figure 9.
inline constexpr double kLowTargetUpdatesPerSec = 3000.0;
inline constexpr double kHighTargetUpdatesPerSec = 18000.0;

// ---------------------------------------------------------------------------
// Figure 2: all 73,979 customer tables clustered by row count.
// ---------------------------------------------------------------------------

struct TableSizeBucket {
  uint64_t min_rows;
  uint64_t max_rows;  ///< inclusive; UINT64_MAX for the open top bucket
  uint32_t table_count;
  const char* label;
};

/// The eight-bucket histogram (counts sum to 73,979).
std::span<const TableSizeBucket> CustomerTableHistogram();

/// Total number of tables in the histogram.
uint64_t CustomerTableCount();

/// Draws a table row count from the histogram (log-uniform within a bucket).
uint64_t SampleTableRows(Rng& rng);

// ---------------------------------------------------------------------------
// Figure 3: the 144 largest tables (rows 10M..1.6B, avg 65M; columns 2..399,
// avg 70).
// ---------------------------------------------------------------------------

struct LargeTableProfile {
  uint64_t rows;
  uint32_t columns;
};

/// Synthesizes the 144-table population: a power-law row-count curve fit to
/// the quoted min/max/average, and a log-normal column-count distribution
/// clamped to [2, 399] with mean ≈ 70.
std::vector<LargeTableProfile> SynthesizeLargeTables(uint64_t seed);

// ---------------------------------------------------------------------------
// Figure 4: distinct values per column domain.
// ---------------------------------------------------------------------------

struct DistinctValueBuckets {
  double frac_1_to_32;
  double frac_33_to_1023;
  double frac_1024_plus;
};

DistinctValueBuckets InventoryManagementDistincts();
DistinctValueBuckets FinancialAccountingDistincts();

/// Draws a column's distinct-value count from the bucket distribution
/// (log-uniform within a bucket; the open bucket spans 1024..1e8).
uint64_t SampleColumnDistincts(const DistinctValueBuckets& b, Rng& rng);

// ---------------------------------------------------------------------------
// §2 "Merge Duration": the VBAP scenario.
// ---------------------------------------------------------------------------

struct VbapScenario {
  uint64_t rows = 33'000'000;         ///< 3 years of sales order items
  uint32_t columns = 230;
  uint64_t bytes = 15ull << 30;       ///< 15 GB
  uint64_t delta_rows = 750'000;      ///< one month of new orders
  double naive_merge_cycles = 1.8e12; ///< "1.8 trillion CPU cycles"
  double naive_merge_minutes = 12.0;
  double naive_updates_per_sec = 1000.0;
  double system_bytes = 1.5e12;       ///< full system: 1.5 TB
  double monthly_merge_hours = 20.0;
};

VbapScenario PaperVbapScenario();

}  // namespace deltamerge
