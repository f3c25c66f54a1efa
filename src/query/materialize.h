// Copyright (c) 2026 The DeltaMerge Authors.
// Row materialization: reconstructing full tuples from the decomposed
// columnar layout. Because the implicit tuple offset "is always valid for
// all attributes of a table" (§3 — the reason the paper rejects per-column
// re-sorting), a row is simply the same offset read from every column; no
// surrogate-id joins are needed.

#pragma once

#include <cstdint>
#include <vector>

#include "core/table.h"

namespace deltamerge::query {

/// Materializes the given columns of one row into `out` (resized to match).
inline void MaterializeRow(const Table& table, uint64_t row,
                           const std::vector<size_t>& columns,
                           std::vector<uint64_t>* out) {
  out->resize(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    (*out)[i] = table.GetKey(columns[i], row);
  }
}

/// Materializes a projection of all valid rows in [first_row, last_row).
/// Returns row-major keys; invalid (deleted / superseded) rows are skipped.
inline std::vector<std::vector<uint64_t>> MaterializeValidRows(
    const Table& table, uint64_t first_row, uint64_t last_row,
    const std::vector<size_t>& columns) {
  std::vector<std::vector<uint64_t>> out;
  std::vector<uint64_t> row_buf;
  for (uint64_t row = first_row; row < last_row && row < table.num_rows();
       ++row) {
    if (!table.IsRowValid(row)) continue;
    MaterializeRow(table, row, columns, &row_buf);
    out.push_back(row_buf);
  }
  return out;
}

/// Index-to-value join: materializes the projection for an explicit row-id
/// list (e.g. the output of Snapshot::CollectRange).
inline std::vector<std::vector<uint64_t>> MaterializeRows(
    const Table& table, const std::vector<uint64_t>& rows,
    const std::vector<size_t>& columns) {
  std::vector<std::vector<uint64_t>> out;
  out.reserve(rows.size());
  std::vector<uint64_t> row_buf;
  for (uint64_t row : rows) {
    MaterializeRow(table, row, columns, &row_buf);
    out.push_back(row_buf);
  }
  return out;
}

}  // namespace deltamerge::query
