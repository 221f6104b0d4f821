#include "storage/serializer.h"

#include <algorithm>
#include <cstring>

namespace exodus::storage {

using object::Value;
using object::ValueKind;
using util::Result;
using util::Status;

namespace {

enum class Tag : uint8_t {
  kNull = 0,
  kInt = 1,
  kFloat = 2,
  kBool = 3,
  kString = 4,
  kEnum = 5,
  kAdt = 6,
  kTuple = 7,
  kSet = 8,
  kArray = 9,
  kRef = 10,
};

/// Every encoded value takes at least one byte, so a count larger than
/// the bytes left is corrupt; reserving it could exhaust memory.
size_t ReserveBound(uint64_t count, const std::string& bytes, size_t pos) {
  return static_cast<size_t>(std::min<uint64_t>(count, bytes.size() - pos));
}

}  // namespace

void Serializer::PutU64(uint64_t v, std::string* out) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void Serializer::PutString(const std::string& s, std::string* out) {
  PutU64(s.size(), out);
  out->append(s);
}

Result<uint64_t> Serializer::GetU64(const std::string& bytes, size_t* pos) {
  if (*pos + 8 > bytes.size()) {
    return Status::IoError("truncated record (u64)");
  }
  uint64_t v;
  std::memcpy(&v, bytes.data() + *pos, 8);
  *pos += 8;
  return v;
}

Result<std::string> Serializer::GetString(const std::string& bytes,
                                          size_t* pos) {
  EXODUS_ASSIGN_OR_RETURN(uint64_t len, GetU64(bytes, pos));
  if (len > bytes.size() - *pos) {
    return Status::IoError("truncated record (string)");
  }
  std::string out = bytes.substr(*pos, len);
  *pos += len;
  return out;
}

Status Serializer::EncodeTo(const Value& v, std::string* out) const {
  switch (v.kind()) {
    case ValueKind::kNull:
      out->push_back(static_cast<char>(Tag::kNull));
      return Status::OK();
    case ValueKind::kInt: {
      out->push_back(static_cast<char>(Tag::kInt));
      PutU64(static_cast<uint64_t>(v.AsInt()), out);
      return Status::OK();
    }
    case ValueKind::kFloat: {
      out->push_back(static_cast<char>(Tag::kFloat));
      uint64_t bits;
      double d = v.AsFloat();
      std::memcpy(&bits, &d, 8);
      PutU64(bits, out);
      return Status::OK();
    }
    case ValueKind::kBool:
      out->push_back(static_cast<char>(Tag::kBool));
      out->push_back(v.AsBool() ? 1 : 0);
      return Status::OK();
    case ValueKind::kString:
      out->push_back(static_cast<char>(Tag::kString));
      PutString(v.AsString(), out);
      return Status::OK();
    case ValueKind::kEnum:
      out->push_back(static_cast<char>(Tag::kEnum));
      PutString(v.enum_type() != nullptr ? v.enum_type()->name() : "", out);
      PutU64(static_cast<uint64_t>(v.enum_ordinal()), out);
      return Status::OK();
    case ValueKind::kAdt: {
      const adt::AdtType* t = adts_->FindTypeById(v.adt_id());
      if (t == nullptr || !t->serialize) {
        return Status::NotImplemented(
            "ADT has no registered serialization hook");
      }
      out->push_back(static_cast<char>(Tag::kAdt));
      PutString(t->name, out);
      PutString(t->serialize(v.adt_payload()), out);
      return Status::OK();
    }
    case ValueKind::kTuple: {
      out->push_back(static_cast<char>(Tag::kTuple));
      const auto& td = v.tuple();
      PutString(td.type != nullptr ? td.type->name() : "", out);
      PutU64(td.fields.size(), out);
      for (const Value& f : td.fields) {
        EXODUS_RETURN_IF_ERROR(EncodeTo(f, out));
      }
      return Status::OK();
    }
    case ValueKind::kSet: {
      out->push_back(static_cast<char>(Tag::kSet));
      PutU64(v.set().elems.size(), out);
      for (const Value& e : v.set().elems) {
        EXODUS_RETURN_IF_ERROR(EncodeTo(e, out));
      }
      return Status::OK();
    }
    case ValueKind::kArray: {
      out->push_back(static_cast<char>(Tag::kArray));
      PutU64(v.array().elems.size(), out);
      for (const Value& e : v.array().elems) {
        EXODUS_RETURN_IF_ERROR(EncodeTo(e, out));
      }
      return Status::OK();
    }
    case ValueKind::kRef:
      out->push_back(static_cast<char>(Tag::kRef));
      PutU64(v.AsRef(), out);
      return Status::OK();
  }
  return Status::Internal("unknown value kind");
}

Result<std::string> Serializer::Encode(const Value& v) const {
  std::string out;
  EXODUS_RETURN_IF_ERROR(EncodeTo(v, &out));
  return out;
}

Result<Value> Serializer::DecodeFrom(const std::string& bytes,
                                     size_t* pos) const {
  if (*pos >= bytes.size()) return Status::IoError("truncated record (tag)");
  Tag tag = static_cast<Tag>(bytes[*pos]);
  ++*pos;
  switch (tag) {
    case Tag::kNull:
      return Value::Null();
    case Tag::kInt: {
      EXODUS_ASSIGN_OR_RETURN(uint64_t v, GetU64(bytes, pos));
      return Value::Int(static_cast<int64_t>(v));
    }
    case Tag::kFloat: {
      EXODUS_ASSIGN_OR_RETURN(uint64_t bits, GetU64(bytes, pos));
      double d;
      std::memcpy(&d, &bits, 8);
      return Value::Float(d);
    }
    case Tag::kBool: {
      if (*pos >= bytes.size()) return Status::IoError("truncated bool");
      bool b = bytes[*pos] != 0;
      ++*pos;
      return Value::Bool(b);
    }
    case Tag::kString: {
      EXODUS_ASSIGN_OR_RETURN(std::string s, GetString(bytes, pos));
      return Value::String(std::move(s));
    }
    case Tag::kEnum: {
      EXODUS_ASSIGN_OR_RETURN(std::string name, GetString(bytes, pos));
      EXODUS_ASSIGN_OR_RETURN(uint64_t ordinal, GetU64(bytes, pos));
      EXODUS_ASSIGN_OR_RETURN(const extra::Type* t,
                              catalog_->FindType(name));
      return Value::Enum(t, static_cast<int>(ordinal));
    }
    case Tag::kAdt: {
      EXODUS_ASSIGN_OR_RETURN(std::string name, GetString(bytes, pos));
      EXODUS_ASSIGN_OR_RETURN(std::string payload, GetString(bytes, pos));
      const adt::AdtType* t = adts_->FindType(name);
      if (t == nullptr || !t->deserialize) {
        return Status::NotImplemented("ADT '" + name +
                                      "' has no deserialization hook");
      }
      return t->deserialize(payload);
    }
    case Tag::kTuple: {
      EXODUS_ASSIGN_OR_RETURN(std::string type_name, GetString(bytes, pos));
      const extra::Type* type = nullptr;
      if (!type_name.empty()) {
        EXODUS_ASSIGN_OR_RETURN(type, catalog_->FindType(type_name));
      }
      EXODUS_ASSIGN_OR_RETURN(uint64_t count, GetU64(bytes, pos));
      std::vector<Value> fields;
      fields.reserve(ReserveBound(count, bytes, *pos));
      for (uint64_t i = 0; i < count; ++i) {
        EXODUS_ASSIGN_OR_RETURN(Value f, DecodeFrom(bytes, pos));
        fields.push_back(std::move(f));
      }
      return Value::MakeTuple(type, std::move(fields));
    }
    case Tag::kSet: {
      EXODUS_ASSIGN_OR_RETURN(uint64_t count, GetU64(bytes, pos));
      auto data = std::make_shared<object::SetData>();
      data->elems.reserve(ReserveBound(count, bytes, *pos));
      for (uint64_t i = 0; i < count; ++i) {
        EXODUS_ASSIGN_OR_RETURN(Value e, DecodeFrom(bytes, pos));
        data->elems.push_back(std::move(e));
      }
      return Value::Set(std::move(data));
    }
    case Tag::kArray: {
      EXODUS_ASSIGN_OR_RETURN(uint64_t count, GetU64(bytes, pos));
      auto data = std::make_shared<object::ArrayData>();
      data->elems.reserve(ReserveBound(count, bytes, *pos));
      for (uint64_t i = 0; i < count; ++i) {
        EXODUS_ASSIGN_OR_RETURN(Value e, DecodeFrom(bytes, pos));
        data->elems.push_back(std::move(e));
      }
      return Value::Array(std::move(data));
    }
    case Tag::kRef: {
      EXODUS_ASSIGN_OR_RETURN(uint64_t oid, GetU64(bytes, pos));
      return Value::Ref(oid);
    }
  }
  return Status::IoError("unknown value tag in record");
}

Result<Value> Serializer::Decode(const std::string& bytes) const {
  size_t pos = 0;
  EXODUS_ASSIGN_OR_RETURN(Value v, DecodeFrom(bytes, &pos));
  if (pos != bytes.size()) {
    return Status::IoError("trailing bytes after value");
  }
  return v;
}

}  // namespace exodus::storage
