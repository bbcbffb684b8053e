#include "sweep/result_sink.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <ostream>

#include "util/csv.hpp"
#include "util/json.hpp"

namespace hars {

std::string format_number(double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  if (ec != std::errc{}) return "nan";
  return std::string(buf, end);
}

namespace {

// Existing cell for `key` (keeping its column position), or a fresh one
// appended at the end — Record keys are unique by construction.
RecordCell& upsert_cell(std::vector<RecordCell>& cells, std::string key) {
  for (RecordCell& cell : cells) {
    if (cell.key == key) return cell;
  }
  cells.push_back(RecordCell{std::move(key), {}, false, 0.0});
  return cells.back();
}

}  // namespace

Record& Record::set(std::string key, std::string value) {
  RecordCell& cell = upsert_cell(cells_, std::move(key));
  cell.text = std::move(value);
  cell.numeric = false;
  cell.number = 0.0;
  return *this;
}

Record& Record::set(std::string key, const char* value) {
  return set(std::move(key), std::string(value));
}

Record& Record::set(std::string key, double value) {
  RecordCell& cell = upsert_cell(cells_, std::move(key));
  cell.text = format_number(value);
  cell.numeric = true;
  cell.number = value;
  return *this;
}

Record& Record::set_cell(RecordCell cell) {
  RecordCell& slot = upsert_cell(cells_, std::move(cell.key));
  slot.text = std::move(cell.text);
  slot.numeric = cell.numeric;
  slot.number = cell.number;
  return *this;
}

Record& Record::set(std::string key, std::int64_t value) {
  RecordCell& cell = upsert_cell(cells_, std::move(key));
  cell.text = std::to_string(value);
  cell.numeric = true;
  cell.number = static_cast<double>(value);
  return *this;
}

const RecordCell* Record::find(std::string_view key) const {
  for (const RecordCell& cell : cells_) {
    if (cell.key == key) return &cell;
  }
  return nullptr;
}

double Record::number(std::string_view key) const {
  const RecordCell* cell = find(key);
  if (cell == nullptr || !cell->numeric) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return cell->number;
}

std::string_view Record::text(std::string_view key) const {
  const RecordCell* cell = find(key);
  return cell != nullptr ? std::string_view(cell->text) : std::string_view();
}

const Record* find_record(
    std::span<const Record> rows,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        where) {
  for (const Record& row : rows) {
    bool all = true;
    for (const auto& [key, value] : where) {
      if (row.text(key) != value) {
        all = false;
        break;
      }
    }
    if (all) return &row;
  }
  return nullptr;
}

double record_number(
    std::span<const Record> rows,
    std::initializer_list<std::pair<std::string_view, std::string_view>>
        where,
    std::string_view column) {
  const Record* row = find_record(rows, where);
  if (row == nullptr) return std::numeric_limits<double>::quiet_NaN();
  return row->number(column);
}

CsvSink::CsvSink(const std::string& path) : file_(path), out_(&file_) {}

bool CsvSink::ok() const { return out_ != nullptr && out_->good(); }

void CsvSink::write(const Record& record) {
  if (columns_.empty()) {
    std::string header;
    for (const RecordCell& cell : record.cells()) {
      columns_.push_back(cell.key);
      if (!header.empty()) header += ',';
      header += csv_escape(cell.key);
    }
    *out_ << header << '\n';
  }
  std::string line;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) line += ',';
    const RecordCell* cell = record.find(columns_[i]);
    if (cell != nullptr) line += csv_escape(cell->text);
  }
  *out_ << line << '\n';
}

void CsvSink::flush() { out_->flush(); }

JsonlSink::JsonlSink(const std::string& path) : file_(path), out_(&file_) {}

bool JsonlSink::ok() const { return out_ != nullptr && out_->good(); }

void JsonlSink::write(const Record& record) {
  std::string line = "{";
  bool first = true;
  for (const RecordCell& cell : record.cells()) {
    if (!first) line += ',';
    first = false;
    line += '"';
    line += json::escape(cell.key);
    line += "\":";
    if (cell.numeric) {
      line += std::isfinite(cell.number) ? cell.text : "null";
    } else {
      line += '"';
      line += json::escape(cell.text);
      line += '"';
    }
  }
  line += '}';
  *out_ << line << '\n';
}

void JsonlSink::flush() { out_->flush(); }

}  // namespace hars
