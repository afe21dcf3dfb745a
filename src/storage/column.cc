#include "storage/column.h"

#include "common/thread_pool.h"

namespace gpl {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kInt32:
      return "int32";
    case DataType::kInt64:
      return "int64";
    case DataType::kFloat64:
      return "float64";
    case DataType::kDate:
      return "date";
    case DataType::kString:
      return "string";
  }
  return "?";
}

Column::Column(DataType type, std::shared_ptr<Dictionary> dict)
    : type_(type), dict_(std::move(dict)) {
  if (type_ == DataType::kString && dict_ == nullptr) {
    dict_ = std::make_shared<Dictionary>();
  }
}

Column::Column(const Column& other) : type_(other.type_), dict_(other.dict_) {
  const auto copy = [](auto rows, auto* buf) {
    using T = typename decltype(rows)::value_type;
    if (!rows.empty()) {
      *buf = std::make_shared<std::vector<T>>(rows.begin(), rows.end());
    }
  };
  copy(other.data32(), &data32_);
  copy(other.data64(), &data64_);
  copy(other.dataf(), &dataf_);
}

Column& Column::operator=(const Column& other) {
  if (this != &other) *this = Column(other);
  return *this;
}

int64_t Column::size() const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      return static_cast<int64_t>(data32().size());
    case DataType::kInt64:
      return static_cast<int64_t>(data64().size());
    case DataType::kFloat64:
      return static_cast<int64_t>(dataf().size());
  }
  return 0;
}

void Column::Reserve(int64_t n) {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      data32().reserve(static_cast<size_t>(n));
      break;
    case DataType::kInt64:
      data64().reserve(static_cast<size_t>(n));
      break;
    case DataType::kFloat64:
      dataf().reserve(static_cast<size_t>(n));
      break;
  }
}

double Column::AsDouble(int64_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      return static_cast<double>(Int32At(i));
    case DataType::kInt64:
      return static_cast<double>(Int64At(i));
    case DataType::kFloat64:
      return DoubleAt(i);
  }
  return 0.0;
}

int64_t Column::AsInt64(int64_t i) const {
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      return Int32At(i);
    case DataType::kInt64:
      return Int64At(i);
    case DataType::kFloat64:
      return static_cast<int64_t>(DoubleAt(i));
  }
  return 0;
}

namespace {

// out[i] = src[indices[i]] into a pre-sized buffer, morsel-parallel when the
// current scope allows: output position i takes row indices[i], so
// concurrent chunks write disjoint ranges and the values are trivially
// identical to a serial loop.
template <typename T>
void GatherInto(std::span<const T> src, const std::vector<int64_t>& indices,
                std::vector<T>* dst) {
  const int64_t n = static_cast<int64_t>(indices.size());
  dst->resize(static_cast<size_t>(n));
  T* out = dst->data();
  const T* in = src.data();
  const int64_t* idx = indices.data();
  ParallelFor(0, n, kMorselRows, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) out[i] = in[idx[i]];
  });
}

template <typename T>
void AppendRows(std::span<const T> rows, std::vector<T>* dst) {
  dst->insert(dst->end(), rows.begin(), rows.end());
}

}  // namespace

Column Column::Gather(const std::vector<int64_t>& indices) const {
  Column out(type_, dict_);
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      GatherInto(data32(), indices, &out.data32());
      break;
    case DataType::kInt64:
      GatherInto(data64(), indices, &out.data64());
      break;
    case DataType::kFloat64:
      GatherInto(dataf(), indices, &out.dataf());
      break;
  }
  return out;
}

Column Column::Slice(int64_t begin, int64_t len) const {
  GPL_CHECK(begin >= 0 && len >= 0 && begin + len <= size())
      << "slice out of range: [" << begin << ", " << begin + len << ") of " << size();
  Column out(type_, dict_);
  out.data32_ = data32_;
  out.data64_ = data64_;
  out.dataf_ = dataf_;
  out.view_ = true;
  out.offset_ = offset_ + begin;
  out.view_rows_ = len;
  return out;
}

Status Column::AppendColumn(const Column& other) {
  if (other.type_ != type_) {
    return Status::InvalidArgument("AppendColumn: mismatched types");
  }
  if (type_ == DataType::kString && other.dict_ != dict_) {
    return Status::InvalidArgument("AppendColumn: mismatched dictionaries");
  }
  switch (type_) {
    case DataType::kInt32:
    case DataType::kDate:
    case DataType::kString:
      AppendRows(other.data32(), &data32());
      break;
    case DataType::kInt64:
      AppendRows(other.data64(), &data64());
      break;
    case DataType::kFloat64:
      AppendRows(other.dataf(), &dataf());
      break;
  }
  return Status::OK();
}

}  // namespace gpl
