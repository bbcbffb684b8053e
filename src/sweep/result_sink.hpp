// Structured results for sweep campaigns.
//
// A Record is one flat, ordered row of named cells (text or numeric); the
// SweepEngine emits one per (case, app). ResultSinks consume records in
// case order — the engine serializes emission, so a campaign writes the
// same bytes for any worker count and sinks need no locking of their own.
//
//  * TableSink  — in-memory rows for the bench binaries to pivot/normalize;
//  * CsvSink    — header derived from the first record, RFC-4180 escaping;
//  * JsonlSink  — one JSON object per line (numbers unquoted, non-finite
//                 values serialized as null).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <fstream>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hars {

/// Shortest round-trip decimal form of `v` (std::to_chars), so formatted
/// output is deterministic and parses back to the same double.
std::string format_number(double v);

struct RecordCell {
  std::string key;
  std::string text;      ///< Formatted value (format_number for numerics).
  bool numeric = false;
  double number = 0.0;   ///< Valid only when `numeric`.
};

class Record {
 public:
  /// Sets `key` to `value`. Keys are unique: setting an existing key
  /// replaces its value in place (original column position kept), so a
  /// CaseRunner column that collides with an axis name overrides the
  /// coordinate instead of producing duplicate CSV/JSON keys.
  Record& set(std::string key, std::string value);
  Record& set(std::string key, const char* value);
  Record& set(std::string key, double value);
  Record& set(std::string key, std::int64_t value);
  Record& set(std::string key, int value) {
    return set(std::move(key), static_cast<std::int64_t>(value));
  }
  /// Sets a cell verbatim — text, numeric flag and numeric value all
  /// supplied by the caller, no reformatting. The svc wire layer uses
  /// this to reconstruct a streamed record byte-identically (int64 and
  /// double cells format differently, so re-deriving the text from the
  /// number alone would not round-trip).
  Record& set_cell(RecordCell cell);

  const std::vector<RecordCell>& cells() const { return cells_; }
  const RecordCell* find(std::string_view key) const;
  /// Numeric value of `key`; NaN when absent or non-numeric.
  double number(std::string_view key) const;
  /// Text of `key`; empty when absent.
  std::string_view text(std::string_view key) const;

 private:
  std::vector<RecordCell> cells_;
};

/// First record matching every (key, text) pair; null when none does.
const Record* find_record(
    std::span<const Record> rows,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        where);

/// number(column) of the matching record; NaN when no record matches.
double record_number(
    std::span<const Record> rows,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        where,
    std::string_view column);

class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void write(const Record& record) = 0;
  virtual void flush() {}
};

/// Collects records in memory.
class TableSink final : public ResultSink {
 public:
  void write(const Record& record) override { rows_.push_back(record); }
  const std::vector<Record>& rows() const { return rows_; }

 private:
  std::vector<Record> rows_;
};

/// CSV with a header row taken from the first record's keys. Later records
/// are emitted under that header: matching keys land in their column,
/// missing keys leave the cell empty.
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(&out) {}
  explicit CsvSink(const std::string& path);

  bool ok() const;
  void write(const Record& record) override;
  void flush() override;

 private:
  std::ofstream file_;
  std::ostream* out_ = nullptr;
  std::vector<std::string> columns_;
};

/// JSON-lines: one object per record, keys in cell order.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(std::ostream& out) : out_(&out) {}
  explicit JsonlSink(const std::string& path);

  bool ok() const;
  void write(const Record& record) override;
  void flush() override;

 private:
  std::ofstream file_;
  std::ostream* out_ = nullptr;
};

}  // namespace hars
