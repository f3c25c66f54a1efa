// Copyright (c) 2026 The DeltaMerge Authors.

#include "persist/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace deltamerge::persist {

namespace {

constexpr uint64_t kMagic = 0x313054504B434D44ULL;  // "DMCKPT01" little-endian
// v2 appended the commit clock and one 8-byte insert timestamp per row
// after the validity words. v3 drops the timestamps — no reader survives a
// restart, so every restored row is visible to every later read — and lets
// each dictionary carry a delta-packed body
// (Dictionary::Serialize). Older versions are refused as unsupported;
// recovery falls back to an older file or, with none valid, fails the open
// (the format predates any deployment promise).
constexpr uint32_t kVersion = 3;

}  // namespace

std::string CheckpointFileName(uint64_t replay_lsn) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020" PRIu64 ".dmck", replay_lsn);
  return std::string(buf);
}

namespace {

/// Body of WriteCheckpoint up to (not including) the atomic rename; split
/// out so a failure can unlink the partial .tmp file.
Status WriteCheckpointTmp(const std::string& tmp_path,
                          const CheckpointCapture& capture) {
  {
    DM_ASSIGN_OR_RETURN(std::unique_ptr<FileWriter> out,
                        FileWriter::Create(tmp_path));
    DM_RETURN_NOT_OK(out->WriteU64(kMagic));
    out->ResetCrc();  // the trailer CRC covers everything after the magic
    DM_RETURN_NOT_OK(out->WriteU32(kVersion));
    DM_RETURN_NOT_OK(
        out->WriteU32(static_cast<uint32_t>(capture.columns.size())));
    DM_RETURN_NOT_OK(out->WriteU64(capture.replay_lsn));
    DM_RETURN_NOT_OK(out->WriteU64(capture.main_rows));
    DM_RETURN_NOT_OK(out->WriteU64(capture.valid_main_rows));
    for (const CheckpointCapture::ColumnMain& col : capture.columns) {
      DM_RETURN_NOT_OK(
          out->WriteU32(static_cast<uint32_t>(col.value_width)));
      DM_RETURN_NOT_OK(out->WriteU32(static_cast<uint32_t>(col.name.size())));
      if (!col.name.empty()) {
        DM_RETURN_NOT_OK(out->Write(col.name.data(), col.name.size()));
      }
      DM_RETURN_NOT_OK(col.serialize(*out));
    }
    DM_RETURN_NOT_OK(out->WriteU64(capture.validity_words.size()));
    if (!capture.validity_words.empty()) {
      DM_RETURN_NOT_OK(out->Write(capture.validity_words.data(),
                                  capture.validity_words.size() *
                                      sizeof(uint64_t)));
    }
    DM_RETURN_NOT_OK(out->WriteU64(capture.commit_clock));
    const uint32_t crc = out->crc();
    DM_RETURN_NOT_OK(out->WriteU32(crc));
    DM_RETURN_NOT_OK(out->Sync());
    DM_RETURN_NOT_OK(out->Close());
  }
  return Status::OK();
}

}  // namespace

Status WriteCheckpoint(const std::string& dir,
                       const CheckpointCapture& capture) {
  const std::string final_name = CheckpointFileName(capture.replay_lsn);
  const std::string tmp_path = dir + "/" + final_name + ".tmp";
  const Status st = WriteCheckpointTmp(tmp_path, capture);
  if (!st.ok()) {
    (void)RemoveFile(tmp_path);  // don't leave partial files behind
    return st;
  }
  return AtomicRename(tmp_path, dir + "/" + final_name, dir);
}

Result<CheckpointContents> ReadCheckpoint(const std::string& path) {
  DM_ASSIGN_OR_RETURN(std::unique_ptr<FileReader> in, FileReader::Open(path));
  uint64_t magic = 0;
  DM_RETURN_NOT_OK(in->ReadU64(&magic));
  if (magic != kMagic) {
    return Status::Internal("not a checkpoint file: " + path);
  }
  in->ResetCrc();
  uint32_t version = 0, num_columns = 0;
  DM_RETURN_NOT_OK(in->ReadU32(&version));
  if (version != kVersion) {
    return Status::Internal("unsupported checkpoint version");
  }
  DM_RETURN_NOT_OK(in->ReadU32(&num_columns));
  // Untrusted until the CRC trailer validates: bound before reserving
  // (every column costs ≥ 25 bytes in the file; 2^16 columns dwarfs any
  // real schema — the paper's widest table has 399).
  if (num_columns > (uint32_t{1} << 16) ||
      num_columns > in->file_size() / 25) {
    return Status::Internal("checkpoint column count implausible");
  }
  CheckpointContents out;
  uint64_t valid_main_rows = 0;
  DM_RETURN_NOT_OK(in->ReadU64(&out.replay_lsn));
  DM_RETURN_NOT_OK(in->ReadU64(&out.main_rows));
  DM_RETURN_NOT_OK(in->ReadU64(&valid_main_rows));
  // Untrusted until the CRC trailer validates: keep (main_rows + 63) and
  // the downstream word arithmetic far from overflow.
  if (out.main_rows > uint64_t{1} << 48) {
    return Status::Internal("checkpoint row count implausible");
  }
  out.columns.reserve(num_columns);
  out.column_names.reserve(num_columns);
  for (uint32_t c = 0; c < num_columns; ++c) {
    uint32_t width = 0, name_len = 0;
    DM_RETURN_NOT_OK(in->ReadU32(&width));
    DM_RETURN_NOT_OK(in->ReadU32(&name_len));
    if (name_len > 4096) {
      return Status::Internal("checkpoint column name implausibly long");
    }
    std::string name(name_len, '\0');
    if (name_len > 0) {
      DM_RETURN_NOT_OK(in->Read(name.data(), name_len));
    }
    DM_ASSIGN_OR_RETURN(std::unique_ptr<ColumnBase> col,
                        DeserializeColumnMain(width, *in));
    if (col->main_size() != out.main_rows) {
      return Status::Internal("checkpoint column row count mismatch");
    }
    out.columns.push_back(std::move(col));
    out.column_names.push_back(std::move(name));
  }
  uint64_t word_count = 0;
  DM_RETURN_NOT_OK(in->ReadU64(&word_count));
  // Bound the untrusted count by the file size (division, no overflow)
  // before allocating; CRC validation only happens at the trailer.
  if (word_count > in->file_size() / sizeof(uint64_t) ||
      word_count != (out.main_rows + 63) / 64) {
    return Status::Internal("checkpoint validity word count mismatch");
  }
  std::vector<uint64_t> words(word_count);
  if (word_count > 0) {
    DM_RETURN_NOT_OK(in->Read(words.data(), word_count * sizeof(uint64_t)));
  }
  DM_RETURN_NOT_OK(in->ReadU64(&out.commit_clock));
  const uint32_t body_crc = in->crc();
  uint32_t trailer = 0;
  DM_RETURN_NOT_OK(in->ReadU32(&trailer));
  if (trailer != body_crc) {
    return Status::Internal("checkpoint CRC mismatch: " + path);
  }
  out.validity = ValidityVector::FromWords(std::move(words), out.main_rows);
  if (out.validity.valid_count() != valid_main_rows) {
    return Status::Internal("checkpoint valid-row count mismatch");
  }
  return out;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListCheckpoints(
    const std::string& dir) {
  DM_ASSIGN_OR_RETURN(const std::vector<std::string> names, ListDir(dir));
  std::vector<std::pair<uint64_t, std::string>> out;
  for (const std::string& name : names) {
    if (name.rfind("ckpt-", 0) != 0 || name.size() <= 10 ||
        name.substr(name.size() - 5) != ".dmck") {
      continue;
    }
    const std::string digits = name.substr(5, name.size() - 10);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::strtoull(digits.c_str(), nullptr, 10), name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status DropCheckpointsBefore(const std::string& dir, uint64_t lsn) {
  DM_ASSIGN_OR_RETURN(const auto checkpoints, ListCheckpoints(dir));
  Status st = Status::OK();
  bool dropped = false;
  for (const auto& [replay_lsn, name] : checkpoints) {
    if (replay_lsn >= lsn) continue;
    const Status rm = RemoveFile(dir + "/" + name);
    if (!rm.ok() && st.ok()) st = rm;
    dropped = true;
  }
  if (dropped && st.ok()) st = SyncDir(dir);
  return st;
}

}  // namespace deltamerge::persist
