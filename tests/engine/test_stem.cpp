#include "engine/stem.hpp"

#include <gtest/gtest.h>

#include "../test_util.hpp"

namespace amri::engine {
namespace {

QuerySpec query4() { return make_complete_join_query(4, seconds_to_micros(10)); }

index::CostModel model() {
  index::WorkloadParams p;
  p.lambda_d = 100;
  p.lambda_r = 100;
  p.window_units = 10;
  return index::CostModel(p);
}

StemOptions amri_options() {
  StemOptions o;
  o.backend = IndexBackend::kAmri;
  o.initial_config = index::IndexConfig({4, 4, 4});
  tuner::TunerOptions t;
  t.reassess_every = 100;
  t.optimizer.bit_budget = 12;
  t.optimizer.max_bits_per_attr = 8;
  o.amri_tuner = t;
  return o;
}

Tuple arrival(StreamId s, TimeMicros ts, std::initializer_list<Value> vals) {
  Tuple t = testutil::make_tuple(vals, 0, ts, s);
  return t;
}

// One rule for an initial IC whose width differs from the state's JAS:
// its bit budget is kept and spread round-robin over the JAS positions.
TEST(StemOperator, InitialConfigOfAnotherWidthKeepsItsBitBudget) {
  StemOptions o = amri_options();
  o.backend = IndexBackend::kStaticBitmap;
  o.initial_config = index::IndexConfig({3, 3});
  const QuerySpec wide = query4();  // 3 join attributes per state
  const StemOperator three(0, wide.layout(0), wide.window(), o, model());
  EXPECT_EQ(three.current_config()->to_string(),
            index::IndexConfig({2, 2, 2}).to_string());
  const QuerySpec narrow = make_complete_join_query(2, seconds_to_micros(10));
  const StemOperator one(0, narrow.layout(0), narrow.window(), o, model());
  EXPECT_EQ(one.current_config()->to_string(),
            index::IndexConfig({6}).to_string());
}

TEST(StemOperator, InsertProbeExpireCycle) {
  const QuerySpec q = query4();
  StemOperator stem(1, q.layout(1), q.window(), amri_options(), model());
  stem.insert(arrival(1, seconds_to_micros(1), {5, 6, 7}));
  stem.insert(arrival(1, seconds_to_micros(2), {5, 8, 9}));
  EXPECT_EQ(stem.stored_tuples(), 2u);

  index::ProbeKey k;
  k.mask = 0b001;
  k.values = {5, 0, 0};
  std::vector<const Tuple*> out;
  stem.probe(k, out);
  EXPECT_EQ(out.size(), 2u);

  // Window is 10s: at t=11.5s the first tuple expires.
  stem.expire(seconds_to_micros(11.5));
  EXPECT_EQ(stem.stored_tuples(), 1u);
  out.clear();
  stem.probe(k, out);
  EXPECT_EQ(out.size(), 1u);

  stem.expire(seconds_to_micros(13));
  EXPECT_EQ(stem.stored_tuples(), 0u);
}

TEST(StemOperator, InsertReturnsStableStoredCopy) {
  const QuerySpec q = query4();
  StemOperator stem(0, q.layout(0), q.window(), amri_options(), model());
  const Tuple* p1 = stem.insert(arrival(0, 1, {1, 2, 3}));
  const Tuple* p2 = stem.insert(arrival(0, 2, {4, 5, 6}));
  EXPECT_EQ(p1->at(0), 1);
  EXPECT_EQ(p2->at(2), 6);
  EXPECT_NE(p1, p2);
}

TEST(StemOperator, ContinuousTuningMigratesUnderSkew) {
  const QuerySpec q = query4();
  StemOptions o = amri_options();
  o.initial_config = index::IndexConfig({12, 0, 0});
  StemOperator stem(2, q.layout(2), q.window(), o, model());
  for (int i = 0; i < 50; ++i) {
    stem.insert(arrival(2, i, {i % 10, i % 10, i % 10}));
  }
  // Flood probes that bind only JAS position 2.
  index::ProbeKey k;
  k.mask = 0b100;
  k.values = {0, 0, 3};
  std::vector<const Tuple*> out;
  for (int i = 0; i < 300; ++i) {
    out.clear();
    stem.probe(k, out);
  }
  ASSERT_NE(stem.current_config(), nullptr);
  EXPECT_GT(stem.current_config()->bits(2), 0);
  EXPECT_GE(stem.migrations(), 1u);
}

TEST(StemOperator, StaticBitmapTunesOnlyAtWarmup) {
  const QuerySpec q = query4();
  StemOptions o = amri_options();
  o.backend = IndexBackend::kStaticBitmap;
  o.initial_config = index::IndexConfig({12, 0, 0});
  StemOperator stem(0, q.layout(0), q.window(), o, model());
  index::ProbeKey k;
  k.mask = 0b010;
  k.values = {0, 1, 0};
  std::vector<const Tuple*> out;
  for (int i = 0; i < 300; ++i) stem.probe(k, out);
  // No continuous migration despite skew...
  EXPECT_EQ(stem.current_config()->bits(1), 0);
  // ...until warm-up finishes, applying the trained config once.
  stem.finish_warmup();
  EXPECT_GT(stem.current_config()->bits(1), 0);
  // After warm-up the tuner is gone: further skew changes nothing.
  index::ProbeKey k2;
  k2.mask = 0b100;
  k2.values = {0, 0, 1};
  for (int i = 0; i < 300; ++i) stem.probe(k2, out);
  EXPECT_EQ(stem.current_config()->bits(2), 0);
}

TEST(StemOperator, AccessModulesBackendServesAndTunes) {
  const QuerySpec q = query4();
  StemOptions o;
  o.backend = IndexBackend::kAccessModules;
  o.initial_modules = {0b001};
  tuner::HashTunerOptions ht;
  ht.reassess_every = 100;
  ht.max_modules = 2;
  o.module_tuner = ht;
  StemOperator stem(0, q.layout(0), q.window(), o, model());
  for (int i = 0; i < 20; ++i) stem.insert(arrival(0, i, {i, i, i}));
  index::ProbeKey k;
  k.mask = 0b110;
  k.values = {0, 3, 3};
  std::vector<const Tuple*> out;
  for (int i = 0; i < 150; ++i) {
    out.clear();
    stem.probe(k, out);
  }
  EXPECT_GE(stem.migrations(), 1u);  // module set retuned to <*,B,C>
  EXPECT_FALSE(out.empty());
}

TEST(StemOperator, ScanBackendHasNoTuner) {
  const QuerySpec q = query4();
  StemOptions o;
  o.backend = IndexBackend::kScan;
  StemOperator stem(0, q.layout(0), q.window(), o, model());
  stem.insert(arrival(0, 1, {1, 2, 3}));
  index::ProbeKey k;
  k.mask = 0b001;
  k.values = {1, 0, 0};
  std::vector<const Tuple*> out;
  for (int i = 0; i < 200; ++i) stem.probe(k, out);
  EXPECT_EQ(stem.migrations(), 0u);
  stem.finish_warmup();  // no-op, must not crash
  EXPECT_EQ(stem.probes_served(), 200u);
}

TEST(StemOperator, MemoryAccountsTuplesAndIndex) {
  const QuerySpec q = query4();
  MemoryTracker mem;
  CostMeter meter;
  {
    StemOperator stem(0, q.layout(0), q.window(), amri_options(), model(),
                      &meter, &mem);
    for (int i = 0; i < 100; ++i) {
      stem.insert(arrival(0, i, {i, i * 2, i * 3}));
    }
    EXPECT_GT(mem.category(MemCategory::kStateTuples), 0u);
    EXPECT_GT(mem.category(MemCategory::kIndexStructure), 0u);
    stem.expire(q.window() + seconds_to_micros(100));
    EXPECT_EQ(mem.category(MemCategory::kStateTuples), 0u);
  }
  EXPECT_EQ(mem.total(), 0u);
}

TEST(StemOperator, InvariantsHoldAcrossWindowCycle) {
  const QuerySpec q = query4();
  StemOperator stem(1, q.layout(1), q.window(), amri_options(), model());
  for (TimeMicros i = 1; i <= 300; ++i) {
    stem.insert(arrival(1, seconds_to_micros(0.05 * static_cast<double>(i)),
                        {static_cast<Value>(i % 9),
                         static_cast<Value>(i % 5),
                         static_cast<Value>(i % 3)}));
    if (i % 60 == 0) stem.check_invariants();
  }
  stem.check_invariants();
  stem.expire(seconds_to_micros(12));
  stem.check_invariants();
  stem.expire(seconds_to_micros(100));
  EXPECT_EQ(stem.stored_tuples(), 0u);
  stem.check_invariants();
}

}  // namespace
}  // namespace amri::engine
