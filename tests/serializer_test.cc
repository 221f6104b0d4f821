// Value serialization round-trips, including typed tuples, enums, ADT
// payloads and nested composites; plus a randomized property sweep.

#include "storage/serializer.h"

#include <gtest/gtest.h>

#include <random>

#include "adt/complex.h"
#include "adt/date.h"
#include "excess/database.h"

namespace exodus::storage {
namespace {

using object::Value;

class SerializerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto r = db_.Execute(R"(
      define enum Color (red, green, blue)
      define type Point (x: float8, y: float8)
    )");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    serializer_ = std::make_unique<Serializer>(db_.catalog(), db_.adts());
  }

  void ExpectRoundTrip(const Value& v) {
    auto bytes = serializer_->Encode(v);
    ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
    auto back = serializer_->Decode(*bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(object::ValueEquals(v, *back))
        << v.ToString() << " vs " << back->ToString();
  }

  exodus::Database db_;
  std::unique_ptr<Serializer> serializer_;
};

TEST_F(SerializerTest, Scalars) {
  ExpectRoundTrip(Value::Null());
  ExpectRoundTrip(Value::Int(0));
  ExpectRoundTrip(Value::Int(-123456789012345));
  ExpectRoundTrip(Value::Float(3.25));
  ExpectRoundTrip(Value::Float(-0.0));
  ExpectRoundTrip(Value::Bool(true));
  ExpectRoundTrip(Value::String(""));
  ExpectRoundTrip(Value::String("hello \"world\"\n"));
  ExpectRoundTrip(Value::Ref(987654321));
}

TEST_F(SerializerTest, EnumsResolveThroughCatalog) {
  const extra::Type* color = *db_.catalog()->FindType("Color");
  ExpectRoundTrip(Value::Enum(color, 2));
  auto back = serializer_->Decode(*serializer_->Encode(Value::Enum(color, 1)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->enum_type(), color);
  EXPECT_EQ(back->ToString(), "green");
}

TEST_F(SerializerTest, AdtPayloads) {
  ExpectRoundTrip(adt::MakeDate(1988, 8, 23));
  ExpectRoundTrip(adt::MakeComplex(1.5, -2.5));
  auto back = serializer_->Decode(*serializer_->Encode(adt::MakeDate(2000, 2, 29)));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->ToString(), "2/29/2000");
}

TEST_F(SerializerTest, TypedTuples) {
  const extra::Type* point = *db_.catalog()->FindType("Point");
  Value v = Value::MakeTuple(point, {Value::Float(1.0), Value::Float(2.0)});
  ExpectRoundTrip(v);
  auto back = serializer_->Decode(*serializer_->Encode(v));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tuple().type, point);  // type identity restored by name
}

TEST_F(SerializerTest, NestedComposites) {
  auto set = std::make_shared<object::SetData>();
  object::SetInsert(set.get(), Value::Int(1));
  object::SetInsert(set.get(),
                    Value::MakeArray({Value::String("x"), Value::Null()}));
  Value v = Value::MakeTuple(
      nullptr, {Value::Set(set), Value::Ref(42),
                Value::MakeTuple(nullptr, {Value::Bool(false)})});
  ExpectRoundTrip(v);
}

TEST_F(SerializerTest, CorruptInputRejected) {
  EXPECT_FALSE(serializer_->Decode("").ok());
  EXPECT_FALSE(serializer_->Decode("\xff").ok());
  auto bytes = serializer_->Encode(Value::Int(5));
  ASSERT_TRUE(bytes.ok());
  EXPECT_FALSE(serializer_->Decode(bytes->substr(0, 3)).ok());     // truncated
  EXPECT_FALSE(serializer_->Decode(*bytes + "junk").ok());          // trailing
}

// Lengths and counts come from the bytes being decoded: one larger
// than what is left must fail cleanly, not wrap the position or
// reserve memory for elements that are not there.
TEST_F(SerializerTest, OversizedLengthsAndCountsRejected) {
  std::string huge_string;
  Serializer::PutU64(~uint64_t{0}, &huge_string);
  huge_string += "abc";
  size_t pos = 0;
  EXPECT_FALSE(Serializer::GetString(huge_string, &pos).ok());

  for (char tag : {char{7}, char{8}, char{9}}) {  // tuple, set, array
    std::string bytes(1, tag);
    if (tag == 7) Serializer::PutString("", &bytes);  // untyped tuple
    Serializer::PutU64(uint64_t{1} << 60, &bytes);
    EXPECT_FALSE(serializer_->Decode(bytes).ok()) << int{tag};
  }
}

TEST_F(SerializerTest, UnknownTypeNameOnDecodeFails) {
  const extra::Type* point = *db_.catalog()->FindType("Point");
  Value v = Value::MakeTuple(point, {Value::Float(1.0), Value::Float(2.0)});
  auto bytes = serializer_->Encode(v);
  ASSERT_TRUE(bytes.ok());
  exodus::Database other;  // Point not defined here
  Serializer other_ser(other.catalog(), other.adts());
  EXPECT_FALSE(other_ser.Decode(*bytes).ok());
}

class SerializerPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SerializerPropertyTest, RandomValuesRoundTrip) {
  exodus::Database db;
  Serializer serializer(db.catalog(), db.adts());
  std::mt19937 rng(static_cast<unsigned>(GetParam()));

  std::function<Value(int)> random_value = [&](int depth) -> Value {
    int max_kind = depth > 0 ? 8 : 5;
    switch (std::uniform_int_distribution<int>(0, max_kind)(rng)) {
      case 0:
        return Value::Null();
      case 1:
        return Value::Int(std::uniform_int_distribution<int64_t>(
            -1000000, 1000000)(rng));
      case 2:
        return Value::Float(
            std::uniform_int_distribution<int>(-100, 100)(rng) / 7.0);
      case 3:
        return Value::Bool(std::uniform_int_distribution<int>(0, 1)(rng));
      case 4: {
        std::string s(std::uniform_int_distribution<size_t>(0, 20)(rng), 'q');
        return Value::String(std::move(s));
      }
      case 5:
        return Value::Ref(std::uniform_int_distribution<uint64_t>(
            1, 1000)(rng));
      case 6: {
        std::vector<Value> fields;
        int n = std::uniform_int_distribution<int>(0, 4)(rng);
        for (int i = 0; i < n; ++i) fields.push_back(random_value(depth - 1));
        return Value::MakeTuple(nullptr, std::move(fields));
      }
      case 7: {
        auto data = std::make_shared<object::SetData>();
        int n = std::uniform_int_distribution<int>(0, 4)(rng);
        for (int i = 0; i < n; ++i) {
          object::SetInsert(data.get(), random_value(depth - 1));
        }
        return Value::Set(std::move(data));
      }
      default: {
        std::vector<Value> elems;
        int n = std::uniform_int_distribution<int>(0, 4)(rng);
        for (int i = 0; i < n; ++i) elems.push_back(random_value(depth - 1));
        return Value::MakeArray(std::move(elems));
      }
    }
  };

  for (int i = 0; i < 100; ++i) {
    Value v = random_value(3);
    auto bytes = serializer.Encode(v);
    ASSERT_TRUE(bytes.ok());
    auto back = serializer.Decode(*bytes);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_TRUE(object::ValueEquals(v, *back)) << v.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializerPropertyTest,
                         ::testing::Values(7, 8, 9, 10));

}  // namespace
}  // namespace exodus::storage
