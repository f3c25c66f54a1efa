// Copyright (c) 2026 The DeltaMerge Authors.
// Umbrella header: the public API of the DeltaMerge library.
//
// DeltaMerge is a dictionary-compressed in-memory column store with a
// write-optimized delta partition and a linear-time, multi-core merge,
// reproducing Krueger et al., "Fast Updates on Read-Optimized Databases
// Using Multi-Core CPUs", VLDB 2011. See README.md for a quickstart and
// docs/ARCHITECTURE.md for the architecture.

#pragma once

// The tree requires C++20 (std::span, designated initializers, concepts).
// Fail here with one clear message instead of a cascade of template errors
// when a build bypasses CMake's CMAKE_CXX_STANDARD 20 enforcement.
#if defined(__cplusplus) && __cplusplus < 202002L
#error "DeltaMerge requires C++20; compile with -std=c++20 (or let CMake set it)"
#endif

#include "core/column_handle.h"    // IWYU pragma: export
#include "core/durability_hooks.h" // IWYU pragma: export
#include "core/merge_algorithms.h" // IWYU pragma: export
#include "core/snapshot.h"         // IWYU pragma: export
#include "core/merge_types.h"      // IWYU pragma: export
#include "core/partitioned_table.h"// IWYU pragma: export
#include "core/table.h"            // IWYU pragma: export
#include "model/cost_model.h"      // IWYU pragma: export
#include "model/machine_profile.h" // IWYU pragma: export
#include "model/read_cost.h"       // IWYU pragma: export
#include "persist/durable_partitioned_table.h"  // IWYU pragma: export
#include "persist/durable_table.h" // IWYU pragma: export
#include "persist/manifest.h"      // IWYU pragma: export
#include "persist/wal.h"           // IWYU pragma: export
#include "query/aggregate.h"       // IWYU pragma: export
#include "query/range_select.h"    // IWYU pragma: export
#include "storage/column.h"        // IWYU pragma: export
#include "storage/unsorted_delta.h"// IWYU pragma: export
#include "workload/enterprise_stats.h"  // IWYU pragma: export
#include "workload/query_gen.h"    // IWYU pragma: export
#include "workload/table_builder.h"// IWYU pragma: export
#include "workload/value_generator.h"   // IWYU pragma: export
