// Copyright (c) 2026 The DeltaMerge Authors.
// CRC-32 (IEEE 802.3 polynomial, reflected) for framing durable records.
//
// Every write-ahead-log record and checkpoint file carries a CRC so that
// recovery can distinguish "the tail of the log was torn mid-write by the
// crash" (expected; recover everything before it) from "this record is
// intact" (replay it).
//
// Kernel selection is compile-time, like simd/simd_kernels.h: with PCLMULQDQ
// and SSE4.1 available (-march=native on any x86 since 2010), buffers of 64
// bytes or more fold four 128-bit lanes per 64-byte step with carry-less
// multiplies and Barrett-reduce (Gopal et al., Intel 2009); everything else,
// and the sub-16-byte tail, runs slicing-by-8 tables. Both produce the same
// CRC as the byte-at-a-time definition, so on-disk formats do not depend on
// the build.

#pragma once

#include <cstddef>
#include <cstdint>

namespace deltamerge {

/// CRC-32 of `data[0..n)`, continuing from `seed` (pass the previous call's
/// return value to checksum a logical stream across multiple buffers; pass 0
/// to start a fresh checksum).
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

/// CRC-32 of the concatenation A||B given only crc_a = Crc32(A), crc_b =
/// Crc32(B), and B's length — without touching the bytes again (zlib's
/// crc32_combine, via precomputed GF(2) zero-operators, O(log len_b)).
///
/// This is what lets a bulk-insert batch be checksummed *outside* the table
/// lock: the caller CRCs the payload with no lock held, and the WAL derives
/// the frame CRC (header bytes ++ payload) under the lock in ~a dozen
/// 32x32-bit matrix-vector products instead of rescanning the payload.
uint32_t Crc32Combine(uint32_t crc_a, uint32_t crc_b, uint64_t len_b);

}  // namespace deltamerge
