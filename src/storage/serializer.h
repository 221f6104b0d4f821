#ifndef EXODUS_STORAGE_SERIALIZER_H_
#define EXODUS_STORAGE_SERIALIZER_H_

#include <string>

#include "adt/registry.h"
#include "extra/catalog.h"
#include "object/value.h"
#include "util/result.h"
#include "util/status.h"

namespace exodus::storage {

/// Encodes and decodes EXTRA runtime values to/from flat byte strings
/// for checkpoint image records (wal/wal_format.h). Schema and enum types
/// are referenced by name (resolved against the catalog on decode); ADT
/// payloads round-trip through the per-ADT serialization hooks in the
/// registry.
class Serializer {
 public:
  Serializer(const extra::Catalog* catalog, const adt::Registry* adts)
      : catalog_(catalog), adts_(adts) {}

  util::Result<std::string> Encode(const object::Value& v) const;
  util::Result<object::Value> Decode(const std::string& bytes) const;

  /// Appends the encoding of `v` to `out` (for composite records).
  util::Status EncodeTo(const object::Value& v, std::string* out) const;
  /// Decodes one value starting at `*pos`, advancing it.
  util::Result<object::Value> DecodeFrom(const std::string& bytes,
                                         size_t* pos) const;

  // Primitive helpers, shared with the checkpointer's record formats.
  static void PutU64(uint64_t v, std::string* out);
  static void PutString(const std::string& s, std::string* out);
  static util::Result<uint64_t> GetU64(const std::string& bytes, size_t* pos);
  static util::Result<std::string> GetString(const std::string& bytes,
                                             size_t* pos);

 private:
  const extra::Catalog* catalog_;
  const adt::Registry* adts_;
};

}  // namespace exodus::storage

#endif  // EXODUS_STORAGE_SERIALIZER_H_
