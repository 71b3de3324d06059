// Deterministic seed-driven fuzzer for the wire-message codecs
// (src/net/messages.cpp). Three attack surfaces:
//
//   1. round-trip: randomized instances of every message type encode and
//      decode back to equal values (including quantized features, within
//      quantization error);
//   2. structured mutation: valid encodings with bit flips, truncations and
//      splices must either decode or throw CodecError — nothing else;
//   3. in-flight corruption: the exact mutation model the fault injector
//      applies (net/faults.hpp) replayed against every decoder.
//
// Run under the asan-ubsan preset this is the "corruption surfaces as
// CodecError drops, never UB" acceptance check in executable form.
//
// The same seeds also drive the other text-to-structure parser an operator
// feeds directly: LadderSpec::parse (core/rungs/ladder.hpp), over generated
// and mutated specs. Each input must throw std::invalid_argument or parse
// into a spec that round-trips through to_string().

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "src/core/rungs/ladder.hpp"
#include "src/net/faults.hpp"
#include "src/net/messages.hpp"
#include "src/util/rng.hpp"
#include "src/util/vecmath.hpp"

namespace apx {
namespace {

FeatureVec random_unit(Rng& rng, std::size_t dim) {
  FeatureVec v(dim);
  for (float& x : v) x = static_cast<float>(rng.normal());
  normalize(v);
  return v;
}

WireEntry random_entry(Rng& rng, std::size_t dim, bool quantize) {
  WireEntry e;
  e.feature = random_unit(rng, dim);
  e.label = static_cast<Label>(rng.uniform_u64(10000));
  e.confidence = static_cast<float>(rng.uniform());
  e.hop_count = static_cast<std::uint8_t>(rng.uniform_u64(8));
  e.source_device = static_cast<std::uint32_t>(rng.next_u64());
  e.age = static_cast<SimDuration>(rng.uniform_u64(3'600'000'000ULL));
  e.quantize_on_wire = quantize;
  return e;
}

/// Decoding any payload with any decoder must produce a value or throw
/// CodecError; anything else (other exception, crash, sanitizer report)
/// fails the test.
void exercise_all_decoders(const std::vector<std::uint8_t>& payload) {
  try { (void)peek_type(payload); } catch (const CodecError&) {}
  try { (void)decode_hello(payload); } catch (const CodecError&) {}
  try { (void)decode_lookup_request(payload); } catch (const CodecError&) {}
  try { (void)decode_lookup_response(payload); } catch (const CodecError&) {}
  try { (void)decode_entry_advert(payload); } catch (const CodecError&) {}
}

class CodecFuzzer : public ::testing::TestWithParam<std::uint64_t> {};

// --------------------------------------------------------- 1. round trips

TEST_P(CodecFuzzer, HelloRoundTrips) {
  Rng rng{GetParam()};
  for (int i = 0; i < 200; ++i) {
    HelloMsg msg;
    msg.sender = static_cast<NodeId>(rng.next_u64());
    msg.cache_size = static_cast<std::uint32_t>(rng.next_u64());
    const HelloMsg back = decode_hello(encode(msg));
    EXPECT_EQ(back.sender, msg.sender);
    EXPECT_EQ(back.cache_size, msg.cache_size);
  }
}

TEST_P(CodecFuzzer, LookupRequestRoundTrips) {
  Rng rng{GetParam() ^ 0x11ULL};
  for (int i = 0; i < 200; ++i) {
    LookupRequestMsg msg;
    msg.request_id = rng.next_u64();
    msg.sender = static_cast<NodeId>(rng.next_u64());
    msg.k = static_cast<std::uint32_t>(1 + rng.uniform_u64(16));
    msg.query = random_unit(rng, 1 + rng.uniform_u64(64));
    const LookupRequestMsg back = decode_lookup_request(encode(msg));
    EXPECT_EQ(back.request_id, msg.request_id);
    EXPECT_EQ(back.sender, msg.sender);
    EXPECT_EQ(back.k, msg.k);
    EXPECT_EQ(back.query, msg.query);
  }
}

TEST_P(CodecFuzzer, ResponseAndAdvertRoundTripsIncludingQuantized) {
  Rng rng{GetParam() ^ 0x22ULL};
  for (int i = 0; i < 100; ++i) {
    const std::size_t dim = 2 + rng.uniform_u64(48);
    const bool quantize = rng.chance(0.5);
    LookupResponseMsg resp;
    resp.request_id = rng.next_u64();
    resp.sender = static_cast<NodeId>(rng.next_u64());
    EntryAdvertMsg advert;
    advert.sender = resp.sender;
    const std::size_t n = rng.uniform_u64(8);
    for (std::size_t k = 0; k < n; ++k) {
      resp.entries.push_back(random_entry(rng, dim, quantize));
      advert.entries.push_back(random_entry(rng, dim, quantize));
    }
    const LookupResponseMsg r = decode_lookup_response(encode(resp));
    const EntryAdvertMsg a = decode_entry_advert(encode(advert));
    ASSERT_EQ(r.entries.size(), n);
    ASSERT_EQ(a.entries.size(), n);
    for (std::size_t k = 0; k < n; ++k) {
      EXPECT_EQ(r.entries[k].label, resp.entries[k].label);
      EXPECT_EQ(r.entries[k].hop_count, resp.entries[k].hop_count);
      EXPECT_EQ(r.entries[k].source_device, resp.entries[k].source_device);
      EXPECT_EQ(r.entries[k].age, resp.entries[k].age);
      ASSERT_EQ(r.entries[k].feature.size(), dim);
      for (std::size_t j = 0; j < dim; ++j) {
        // Quantized features round-trip within 8-bit affine error on unit
        // vectors; float features round-trip exactly.
        const float tol = quantize ? 0.02f : 0.0f;
        EXPECT_NEAR(r.entries[k].feature[j], resp.entries[k].feature[j], tol);
      }
    }
  }
}

// --------------------------------------------------------- 2. mutations

std::vector<std::vector<std::uint8_t>> corpus(Rng& rng) {
  std::vector<std::vector<std::uint8_t>> out;
  HelloMsg hello;
  hello.sender = static_cast<NodeId>(rng.next_u64());
  out.push_back(encode(hello));
  LookupRequestMsg req;
  req.request_id = rng.next_u64();
  req.query = random_unit(rng, 16);
  out.push_back(encode(req));
  LookupResponseMsg resp;
  resp.request_id = rng.next_u64();
  for (int i = 0; i < 3; ++i) {
    resp.entries.push_back(random_entry(rng, 16, rng.chance(0.5)));
  }
  out.push_back(encode(resp));
  EntryAdvertMsg advert;
  for (int i = 0; i < 3; ++i) {
    advert.entries.push_back(random_entry(rng, 16, rng.chance(0.5)));
  }
  out.push_back(encode(advert));
  return out;
}

TEST_P(CodecFuzzer, BitFlippedMessagesThrowOrParse) {
  Rng rng{GetParam() ^ 0x33ULL};
  for (int round = 0; round < 50; ++round) {
    for (const auto& base : corpus(rng)) {
      auto bytes = base;
      const std::uint64_t flips = 1 + rng.uniform_u64(8);
      for (std::uint64_t f = 0; f < flips; ++f) {
        bytes[rng.uniform_u64(bytes.size())] ^=
            static_cast<std::uint8_t>(1u << rng.uniform_u64(8));
      }
      exercise_all_decoders(bytes);
    }
  }
}

TEST_P(CodecFuzzer, EveryTruncationThrowsOrParses) {
  Rng rng{GetParam() ^ 0x44ULL};
  for (const auto& base : corpus(rng)) {
    for (std::size_t cut = 0; cut < base.size(); ++cut) {
      exercise_all_decoders(
          {base.begin(), base.begin() + static_cast<long>(cut)});
    }
  }
}

TEST_P(CodecFuzzer, SplicedMessagesThrowOrParse) {
  // Concatenate the head of one valid message with the tail of another —
  // the nastiest inputs: valid type byte, internally inconsistent body.
  Rng rng{GetParam() ^ 0x55ULL};
  for (int round = 0; round < 100; ++round) {
    const auto msgs = corpus(rng);
    const auto& a = msgs[rng.uniform_u64(msgs.size())];
    const auto& b = msgs[rng.uniform_u64(msgs.size())];
    std::vector<std::uint8_t> spliced(
        a.begin(), a.begin() + static_cast<long>(rng.uniform_u64(a.size())));
    const std::size_t tail = rng.uniform_u64(b.size());
    spliced.insert(spliced.end(), b.end() - static_cast<long>(tail), b.end());
    exercise_all_decoders(spliced);
  }
}

TEST_P(CodecFuzzer, HostileLengthPrefixesAreRejectedNotAllocated) {
  // A handcrafted advert claiming 2^60 entries must throw, not reserve.
  Rng rng{GetParam() ^ 0x66ULL};
  for (int round = 0; round < 50; ++round) {
    EntryAdvertMsg advert;
    advert.entries.push_back(random_entry(rng, 8, false));
    auto bytes = encode(advert);
    // The entry count varint sits right after the type byte and sender;
    // stomp a huge LEB128 value over a random position instead of guessing
    // the layout — decoders must reject any inflated count they meet.
    const std::size_t pos = 1 + rng.uniform_u64(bytes.size() - 1);
    const std::vector<std::uint8_t> huge = {0xff, 0xff, 0xff, 0xff, 0xff,
                                            0xff, 0xff, 0xff, 0x7f};
    bytes.resize(pos);
    bytes.insert(bytes.end(), huge.begin(), huge.end());
    exercise_all_decoders(bytes);
  }
}

// --------------------------------------------------------- 3. injector model

TEST_P(CodecFuzzer, FaultInjectorCorruptionOnlyEverThrowsCodecError) {
  Rng rng{GetParam() ^ 0x77ULL};
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  FaultInjector inj{plan, GetParam()};
  for (int round = 0; round < 200; ++round) {
    for (auto& bytes : corpus(rng)) {
      inj.maybe_corrupt(bytes);
      exercise_all_decoders(bytes);
    }
  }
}

// ------------------------------------------------------ 4. ladder specs

/// One registered rung and its argument keys, in ladder rank order.
struct FuzzRung {
  const char* name;
  std::vector<const char*> keys;
};

const std::vector<FuzzRung>& fuzz_rungs() {
  static const std::vector<FuzzRung> rungs{
      {"imu", {}},
      {"temporal", {}},
      {"regions", {"grid", "max_changed", "ttl"}},
      {"warm", {}},
      {"local", {"q8", "qalsh", "c", "delta", "beta"}},
      {"exact", {}},
      {"p2p", {}},
      {"edge", {"shards", "capacity", "ttl", "error_budget"}},
      {"dnn", {}},
  };
  return rungs;
}

template <typename T>
const T& pick(Rng& rng, const std::vector<T>& from) {
  return from[rng.uniform_u64(from.size())];
}

/// A value drawn from every kind's valid and invalid forms.
std::string fuzz_value(Rng& rng) {
  static const std::vector<std::string> values{
      "4",   "1",    "2048", "0",    "-1",   "30s", "500ms", "250us", "7",
      "0s",  "s",    "ms",   "0.25", "1",    "0.0", "1.5",   "2",     "64",
      "65",  "nan",  "inf",  "1e-3", "abc",  "",    " 8 ",   "4x",    "1e309",
      "0x1", "0.5s", "=",    "(4)",  "9999999999999999999"};
  return pick(rng, values);
}

/// A plausible spec: rungs in rank order, each with a random argument
/// list, so a useful share of inputs gets past the parser.
std::string generated_spec(Rng& rng) {
  std::string out;
  for (const FuzzRung& rung : fuzz_rungs()) {
    if (!rng.chance(0.5) && std::string_view{rung.name} != "dnn") continue;
    if (!out.empty()) out += rng.chance(0.95) ? "," : " , ";
    out += rung.name;
    if (rung.keys.empty() || !rng.chance(0.5)) continue;
    out += '(';
    const std::size_t n = 1 + rng.uniform_u64(3);
    for (std::size_t i = 0; i < n; ++i) {
      if (i > 0) out += ',';
      out += pick(rng, rung.keys);
      if (rng.chance(0.7)) {
        out += '=';
        out += fuzz_value(rng);
      }
    }
    out += ')';
  }
  return out;
}

/// Mutates `spec` in place: inserted grammar characters and random bytes,
/// deletions, spliced slices and truncations.
void mutate_spec(Rng& rng, std::string& spec) {
  static const std::string grammar = ",()= ";
  const std::size_t edits = 1 + rng.uniform_u64(4);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t at = rng.uniform_u64(spec.size() + 1);
    switch (rng.uniform_u64(5)) {
      case 0:
        spec.insert(at, 1, grammar[rng.uniform_u64(grammar.size())]);
        break;
      case 1:
        spec.insert(at, 1, static_cast<char>(rng.uniform_u64(256)));
        break;
      case 2:
        if (at < spec.size()) spec.erase(at, 1 + rng.uniform_u64(3));
        break;
      case 3: {
        const std::size_t from = rng.uniform_u64(spec.size() + 1);
        spec.insert(at, spec.substr(from, rng.uniform_u64(8)));
        break;
      }
      default:
        spec.resize(at);
        break;
    }
  }
}

TEST_P(CodecFuzzer, LadderSpecsThrowInvalidArgumentOrRoundTrip) {
  Rng rng{GetParam() ^ 0x1add3eULL};
  std::size_t parsed = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string text = generated_spec(rng);
    if (rng.chance(0.5)) mutate_spec(rng, text);
    LadderSpec spec;
    try {
      spec = LadderSpec::parse(text);
    } catch (const std::invalid_argument&) {
      continue;  // rejected: the only other allowed outcome
    }
    ++parsed;
    const std::string canonical = spec.to_string();
    const LadderSpec again = LadderSpec::parse(canonical);
    EXPECT_EQ(again.tokens, spec.tokens) << "input: " << text;
    EXPECT_EQ(again.args, spec.args) << "input: " << text;
    EXPECT_EQ(again.to_string(), canonical) << "input: " << text;
  }
  // The generator reaches past the parser's front door, not only errors.
  EXPECT_GT(parsed, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzzer,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

}  // namespace
}  // namespace apx
