// The serving-runtime suite (tier1): nn/serialize's versioned weight
// format (v1 header round trip, transparent v0 reads, corrupt-file
// rejection), serve::ModelCheckpoint (shape-digest validation),
// serve::RequestQueue (bounded admission, FIFO, deadline expiry — the
// contracts the TSan job stresses), serve::BatchScheduler decision logic,
// and serve::PipelineServer — including the acceptance-criteria invariant:
// served outputs bitwise-equal to the sequential model.forward across
// worker counts, stage counts, batch sizes and both batch policies.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "src/core/stage_load.h"
#include "src/nn/activations.h"
#include "src/nn/linear.h"
#include "src/nn/model.h"
#include "src/nn/serialize.h"
#include "src/nn/transformer.h"
#include "src/sched/worker_pool.h"
#include "src/serve/batch_scheduler.h"
#include "src/serve/checkpoint.h"
#include "src/serve/pipeline_server.h"
#include "src/serve/request_queue.h"
#include "src/serve/serve_cli.h"
#include "src/util/cli.h"
#include "src/util/rng.h"

namespace pipemare::serve {
namespace {

using tensor::Tensor;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "pipemare_serve_" + name;
}

nn::Model make_mlp(int width, int hidden_layers, int classes) {
  nn::Model model;
  model.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
  model.add(std::make_unique<nn::ReLU>());
  for (int i = 0; i < hidden_layers; ++i) {
    model.add(std::make_unique<nn::Linear>(width, width, /*relu_init=*/true));
    model.add(std::make_unique<nn::ReLU>());
  }
  model.add(std::make_unique<nn::Linear>(width, classes));
  return model;
}

std::vector<float> init_weights(const nn::Model& model, std::uint64_t seed) {
  std::vector<float> w(static_cast<std::size_t>(model.param_count()));
  util::Rng rng(seed);
  model.init_params(w, rng);
  return w;
}

ModelCheckpoint checkpoint_for(const nn::Model& model, std::vector<float> weights) {
  ModelCheckpoint ckpt;
  ckpt.digest = shape_digest(model);
  ckpt.weights = std::move(weights);
  return ckpt;
}

Tensor input_rows(int rows, int width, std::uint64_t seed) {
  Tensor x({rows, width});
  util::Rng rng(seed);
  for (std::int64_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.normal()) * 0.5f;
  }
  return x;
}

Tensor sequential_forward(const nn::Model& model, std::span<const float> w,
                          const Tensor& x, const Tensor* aux = nullptr) {
  nn::Flow f;
  f.x = x;
  if (aux != nullptr) f.aux = *aux;
  auto caches = model.make_caches();
  return model.forward(std::move(f), w, caches).x;
}

void expect_bitwise_equal(const Tensor& a, const Tensor& b, const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  for (std::int64_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << what << " diverges at element " << i;
  }
}

/// Parameter-free module whose forward throws when the first input element
/// equals the poison value — the worker-side error-path probe.
class PoisonModule : public nn::Module {
 public:
  static constexpr float kPoison = 1e6f;

  std::string name() const override { return "Poison"; }
  nn::Flow forward(const nn::Flow& in, std::span<const float> /*w*/,
                   nn::Cache& /*cache*/) const override {
    if (in.x.size() > 0 && in.x[0] == kPoison) {
      throw std::runtime_error("poisoned request");
    }
    return in;
  }
  nn::Flow backward(const nn::Flow& dout, std::span<const float> /*w*/,
                    const nn::Cache& /*cache*/,
                    std::span<float> /*grad*/) const override {
    return dout;
  }
};

util::Cli make_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return util::Cli(static_cast<int>(argv.size()), argv.data());
}

// ---------------------------------------------------------------------------
// nn/serialize: v1 header, v0 compatibility, corruption rejection
// ---------------------------------------------------------------------------

TEST(Serialize, V1RoundTripPreservesBits) {
  const std::string path = temp_path("v1_roundtrip.bin");
  std::vector<float> w = {0.0f, -1.5f, 3.25e-7f, 1e20f, -0.0f};
  nn::save_weights(path, w);
  auto r = nn::load_weights(path);
  ASSERT_EQ(r.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(r[i], w[i]);
  std::remove(path.c_str());
}

TEST(Serialize, ReadsHeaderlessV0Files) {
  const std::string path = temp_path("v0_compat.bin");
  std::vector<float> w = {1.0f, 2.0f, -3.0f};
  {
    // The original headerless format: "PMWT" + uint64 count + payload.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("PMWT", 4);
    std::uint64_t count = w.size();
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(w.data()),
              static_cast<std::streamsize>(w.size() * sizeof(float)));
  }
  auto r = nn::load_weights(path);
  ASSERT_EQ(r.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(r[i], w[i]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsBadMagic) {
  const std::string path = temp_path("bad_magic.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("NOPE", 4);
    std::uint64_t count = 0;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
  }
  EXPECT_THROW(nn::load_weights(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsUnsupportedVersion) {
  const std::string path = temp_path("future_version.bin");
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write("PMWV", 4);
    std::uint32_t version = nn::kWeightsFormatVersion + 1;
    std::uint64_t count = 0, checksum = 0;
    out.write(reinterpret_cast<const char*>(&version), sizeof(version));
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  }
  EXPECT_THROW(nn::load_weights(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsTruncatedPayload) {
  const std::string path = temp_path("truncated.bin");
  std::vector<float> w(16, 1.0f);
  nn::save_weights(path, w);
  {
    // Chop the last 8 payload bytes off.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 8);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(nn::load_weights(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsChecksumMismatch) {
  const std::string path = temp_path("bitrot.bin");
  std::vector<float> w(16, 1.0f);
  nn::save_weights(path, w);
  {
    // Flip one bit in the payload; the count and sizes stay plausible.
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    char last = 0;
    f.seekg(-1, std::ios::end);
    f.get(last);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(last ^ 0x40));
  }
  try {
    nn::load_weights(path);
    FAIL() << "bit-rotted file loaded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  std::remove(path.c_str());
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <class T>
void append_pod(std::string& bytes, const T& value) {
  bytes.append(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// A "PMCK" container header (current version, digest 0) in front of `blob`.
std::string checkpoint_around(const std::string& blob) {
  std::string bytes = "PMCK";
  append_pod(bytes, kCheckpointFormatVersion);
  append_pod(bytes, std::uint64_t{0});
  return bytes + blob;
}

/// An input stream buffer over bytes that cannot seek (tellg() == -1),
/// like a pipe: read_weights must fall back to bounded chunked reads.
class UnseekableBuf : public std::streambuf {
 public:
  explicit UnseekableBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

std::vector<float> read_unseekable(const std::string& bytes) {
  UnseekableBuf buf(bytes);
  std::istream in(&buf);
  return nn::read_weights(in, "unseekable stream");
}

TEST(Serialize, HostileElementCountsThrowRuntimeError) {
  // A header claiming far more floats than the file holds must be rejected
  // as truncation before anything of that size is allocated (2^62 would
  // otherwise escape as std::length_error, 2^40 as std::bad_alloc).
  const std::string path = temp_path("hostile_count.bin");
  for (std::uint64_t count : {std::uint64_t{1} << 62, std::uint64_t{1} << 40}) {
    std::string v1 = "PMWV";
    append_pod(v1, nn::kWeightsFormatVersion);
    append_pod(v1, count);
    append_pod(v1, std::uint64_t{0});  // checksum
    std::string v0 = "PMWT";
    append_pod(v0, count);
    for (std::string blob : {v1, v0}) {
      blob.append(12, '\0');  // a few payload bytes, far short of `count`
      SCOPED_TRACE(blob.substr(0, 4) + " count " + std::to_string(count));
      write_bytes(path, blob);
      EXPECT_THROW(nn::load_weights(path), std::runtime_error);
      EXPECT_THROW(read_unseekable(blob), std::runtime_error);
      write_bytes(path, checkpoint_around(blob));
      EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    }
  }
  std::remove(path.c_str());
}

TEST(Serialize, EveryTruncationThrowsRuntimeError) {
  const std::string path = temp_path("truncated_everywhere.bin");
  const std::vector<float> w = {1.0f, -2.0f, 0.5f, 3.0f, -0.25f};
  nn::save_weights(path, w);
  const std::string v1 = read_bytes(path);
  std::string v0 = "PMWT";
  append_pod(v0, std::uint64_t{w.size()});
  v0.append(reinterpret_cast<const char*>(w.data()), w.size() * sizeof(float));
  for (const std::string& blob : {v1, v0}) {
    const std::string ckpt = checkpoint_around(blob);
    for (std::size_t len = 0; len < blob.size(); ++len) {
      SCOPED_TRACE(blob.substr(0, 4) + " truncated to " + std::to_string(len));
      write_bytes(path, blob.substr(0, len));
      EXPECT_THROW(nn::load_weights(path), std::runtime_error);
      EXPECT_THROW(read_unseekable(blob.substr(0, len)), std::runtime_error);
    }
    for (std::size_t len = 0; len < ckpt.size(); ++len) {
      SCOPED_TRACE("PMCK truncated to " + std::to_string(len));
      write_bytes(path, ckpt.substr(0, len));
      EXPECT_THROW(load_checkpoint(path), std::runtime_error);
    }
    // Untruncated, every reader gets the weights back.
    EXPECT_EQ(read_unseekable(blob), w);
    write_bytes(path, ckpt);
    EXPECT_EQ(load_checkpoint(path).weights, w);
  }
  std::remove(path.c_str());
}

TEST(Serialize, UnseekableStreamReadsAcrossChunks) {
  // More floats than one bounded chunk, through the non-seeking path.
  std::vector<float> w(70000);
  for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i) * 0.5f;
  std::ostringstream out;
  nn::write_weights(out, w);
  EXPECT_EQ(read_unseekable(out.str()), w);
}

TEST(Serialize, Fnv1aChainsAndDiscriminates) {
  const char a[] = "abc";
  const char b[] = "abd";
  EXPECT_NE(nn::fnv1a(a, 3), nn::fnv1a(b, 3));
  // Chaining: hash(ab|c) via seed == hash(abc) in one call.
  auto h2 = nn::fnv1a(a + 2, 1, nn::fnv1a(a, 2));
  EXPECT_EQ(h2, nn::fnv1a(a, 3));
}

// ---------------------------------------------------------------------------
// serve::ModelCheckpoint
// ---------------------------------------------------------------------------

TEST(Checkpoint, SaveLoadValidateRoundTrip) {
  const std::string path = temp_path("ckpt_roundtrip.bin");
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 7);
  save_checkpoint(path, model, w);

  ModelCheckpoint ckpt = load_checkpoint(path);
  EXPECT_EQ(ckpt.format_version, kCheckpointFormatVersion);
  EXPECT_EQ(ckpt.digest, shape_digest(model));
  ASSERT_EQ(ckpt.weights.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) EXPECT_EQ(ckpt.weights[i], w[i]);
  EXPECT_NO_THROW(ckpt.validate_against(model));
  std::remove(path.c_str());
}

TEST(Checkpoint, DigestMismatchNamesTheProblem) {
  nn::Model trained = make_mlp(8, 1, 4);
  nn::Model served = make_mlp(8, 2, 4);  // one more hidden layer
  EXPECT_NE(shape_digest(trained), shape_digest(served));

  ModelCheckpoint ckpt = checkpoint_for(trained, init_weights(trained, 7));
  try {
    ckpt.validate_against(served);
    FAIL() << "digest mismatch accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("digest"), std::string::npos);
  }
}

TEST(Checkpoint, ParamCountMismatchRejected) {
  nn::Model model = make_mlp(8, 1, 4);
  ModelCheckpoint ckpt = checkpoint_for(model, init_weights(model, 7));
  ckpt.weights.pop_back();
  EXPECT_THROW(ckpt.validate_against(model), std::runtime_error);
}

TEST(Checkpoint, SaveRejectsWrongSizedWeights) {
  nn::Model model = make_mlp(8, 1, 4);
  std::vector<float> w(static_cast<std::size_t>(model.param_count()) - 1, 0.0f);
  EXPECT_THROW(save_checkpoint(temp_path("never.bin"), model, w),
               std::invalid_argument);
}

TEST(Checkpoint, LoadRejectsForeignFile) {
  const std::string path = temp_path("ckpt_foreign.bin");
  // A bare weights file is not a checkpoint container.
  nn::save_weights(path, std::vector<float>{1.0f, 2.0f});
  EXPECT_THROW(load_checkpoint(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// serve::Ticket / serve::RequestQueue
// ---------------------------------------------------------------------------

TEST(Ticket, CompletesExactlyOnceAndWakesWaiter) {
  auto ticket = std::make_shared<Ticket>();
  EXPECT_FALSE(ticket->done());

  std::thread completer([ticket] {
    Response r;
    r.status = Status::Ok;
    r.batch_requests = 3;
    EXPECT_TRUE(ticket->complete(std::move(r)));
    Response again;
    again.status = Status::Error;
    EXPECT_FALSE(ticket->complete(std::move(again)));  // second completion ignored
  });

  const Response& r = ticket->wait();
  EXPECT_EQ(r.status, Status::Ok);
  EXPECT_EQ(r.batch_requests, 3);
  EXPECT_TRUE(ticket->done());
  completer.join();
  // The first completion stuck.
  EXPECT_EQ(ticket->wait().status, Status::Ok);
}

Request make_request(std::uint64_t id,
                     Clock::time_point deadline = Clock::time_point::max()) {
  Request r;
  r.id = id;
  r.input.x = Tensor({1, 2});
  r.enqueue_time = Clock::now();
  r.deadline = deadline;
  return r;
}

TEST(RequestQueue, BoundedFifoAndClose) {
  RequestQueue q(2);
  EXPECT_EQ(q.capacity(), 2);
  EXPECT_EQ(q.try_push(make_request(1)), RequestQueue::Admit::Ok);
  EXPECT_EQ(q.try_push(make_request(2)), RequestQueue::Admit::Ok);
  EXPECT_EQ(q.try_push(make_request(3)), RequestQueue::Admit::Full);
  EXPECT_EQ(q.size(), 2u);

  Request out;
  auto always = [](const Request&) { return true; };
  ASSERT_TRUE(q.pop_if(always, out));
  EXPECT_EQ(out.id, 1u);  // FIFO
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.try_push(make_request(4)), RequestQueue::Admit::Closed);
  ASSERT_TRUE(q.pop_if(always, out));  // queued requests stay poppable
  EXPECT_EQ(out.id, 2u);
  EXPECT_FALSE(q.pop_if(always, out));
}

TEST(RequestQueue, PopIfRespectsPredicate) {
  RequestQueue q(4);
  q.try_push(make_request(10));
  Request out;
  EXPECT_FALSE(q.pop_if([](const Request& r) { return r.id != 10; }, out));
  EXPECT_EQ(q.size(), 1u);  // rejected front stays queued
  EXPECT_TRUE(q.pop_if([](const Request& r) { return r.id == 10; }, out));
}

TEST(RequestQueue, ExpireRemovesOnlyDueDeadlinesPreservingOrder) {
  RequestQueue q(8);
  const auto now = Clock::now();
  q.try_push(make_request(1));                                       // no deadline
  q.try_push(make_request(2, now - std::chrono::milliseconds(1)));   // expired
  q.try_push(make_request(3, now + std::chrono::seconds(60)));       // future
  q.try_push(make_request(4, now - std::chrono::milliseconds(5)));   // expired

  std::vector<Request> expired;
  EXPECT_EQ(q.expire_before(now, expired), 2);
  ASSERT_EQ(expired.size(), 2u);
  EXPECT_EQ(expired[0].id, 2u);
  EXPECT_EQ(expired[1].id, 4u);
  EXPECT_EQ(q.size(), 2u);

  Request out;
  auto always = [](const Request&) { return true; };
  ASSERT_TRUE(q.pop_if(always, out));
  EXPECT_EQ(out.id, 1u);  // survivors keep their order
  ASSERT_TRUE(q.pop_if(always, out));
  EXPECT_EQ(out.id, 3u);

  Clock::time_point dl;
  EXPECT_FALSE(q.earliest_deadline(dl));
}

TEST(RequestQueue, EarliestDeadlineIgnoresUnbounded) {
  RequestQueue q(4);
  const auto now = Clock::now();
  q.try_push(make_request(1));
  Clock::time_point dl;
  EXPECT_FALSE(q.earliest_deadline(dl));  // max() = no deadline
  q.try_push(make_request(2, now + std::chrono::seconds(5)));
  q.try_push(make_request(3, now + std::chrono::seconds(2)));
  ASSERT_TRUE(q.earliest_deadline(dl));
  EXPECT_EQ(dl, now + std::chrono::seconds(2));
}

TEST(RequestQueue, ConcurrentProducersNeverExceedCapacity) {
  constexpr int kCapacity = 16;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 64;
  RequestQueue q(kCapacity);

  std::atomic<int> accepted{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, &accepted, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        auto r = make_request(static_cast<std::uint64_t>(p * kPerProducer + i));
        if (q.try_push(std::move(r)) == RequestQueue::Admit::Ok) {
          accepted.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(accepted.load(), kCapacity);  // bounded: exactly capacity admitted
  EXPECT_EQ(q.size(), static_cast<std::size_t>(kCapacity));
}

// ---------------------------------------------------------------------------
// serve::BatchScheduler
// ---------------------------------------------------------------------------

TEST(BatchScheduler, ContinuousDispatchesWhateverIsQueued) {
  BatchScheduler s({BatchPolicy::Continuous, 4, 50.0});
  const auto now = Clock::now();
  EXPECT_EQ(s.decide(0, now, now, false).admit, 0);
  EXPECT_EQ(s.decide(1, now, now, false).admit, 1);  // partial, immediately
  EXPECT_EQ(s.decide(3, now, now, false).admit, 3);
  EXPECT_EQ(s.decide(9, now, now, false).admit, 4);  // capped at max_batch
}

TEST(BatchScheduler, FixedWaitsThenFlushesPartialBatches) {
  BatchScheduler s({BatchPolicy::Fixed, 4, 50.0});
  const auto t0 = Clock::now();
  // Partial and young: keep waiting, recheck = time to the flush deadline.
  auto d = s.decide(2, t0, t0 + std::chrono::milliseconds(10), false);
  EXPECT_EQ(d.admit, 0);
  EXPECT_EQ(d.recheck, std::chrono::milliseconds(40));
  // Full: dispatch immediately (and never more than max_batch).
  EXPECT_EQ(s.decide(4, t0, t0, false).admit, 4);
  EXPECT_EQ(s.decide(7, t0, t0, false).admit, 4);
  // Oldest waited past max_wait: flush the partial batch.
  EXPECT_EQ(s.decide(2, t0, t0 + std::chrono::milliseconds(51), false).admit, 2);
  // Draining (server stopping): flush regardless of age.
  EXPECT_EQ(s.decide(2, t0, t0, true).admit, 2);
}

TEST(BatchScheduler, PolicyParsingAndValidation) {
  EXPECT_EQ(parse_batch_policy("fixed"), BatchPolicy::Fixed);
  EXPECT_EQ(parse_batch_policy("continuous"), BatchPolicy::Continuous);
  EXPECT_THROW(parse_batch_policy("adaptive"), std::invalid_argument);
  EXPECT_EQ(batch_policy_name(BatchPolicy::Fixed), "fixed");
  EXPECT_EQ(batch_policy_name(BatchPolicy::Continuous), "continuous");
  EXPECT_THROW(validate_batch_config({BatchPolicy::Fixed, 0, 5.0}),
               std::invalid_argument);
  EXPECT_THROW(validate_batch_config({BatchPolicy::Fixed, 4, -1.0}),
               std::invalid_argument);
}

TEST(BatchAssembly, CompatibilityConcatAndSplit) {
  nn::Flow a, b, c, d;
  a.x = input_rows(2, 4, 1);
  b.x = input_rows(3, 4, 2);
  c.x = input_rows(1, 5, 3);  // different row width
  d.x = input_rows(1, 4, 4);
  d.aux = input_rows(1, 2, 5);  // aux where a has none
  EXPECT_TRUE(batch_compatible(a, b));
  EXPECT_FALSE(batch_compatible(a, c));
  EXPECT_FALSE(batch_compatible(a, d));

  std::vector<Request> reqs(2);
  reqs[0].input = a;
  reqs[1].input = b;
  nn::Flow joined = concat_inputs(reqs);
  EXPECT_FALSE(joined.training);
  ASSERT_EQ(joined.x.shape(), (std::vector<int>{5, 4}));
  for (std::int64_t i = 0; i < a.x.size(); ++i) EXPECT_EQ(joined.x[i], a.x[i]);
  for (std::int64_t i = 0; i < b.x.size(); ++i) {
    EXPECT_EQ(joined.x[a.x.size() + i], b.x[i]);
  }

  const std::vector<int> rows = {2, 3};
  auto parts = split_output_rows(joined.x, rows);
  ASSERT_EQ(parts.size(), 2u);
  expect_bitwise_equal(parts[0], a.x, "split row block 0");
  expect_bitwise_equal(parts[1], b.x, "split row block 1");

  const std::vector<int> bad_rows = {2, 2};
  EXPECT_THROW(split_output_rows(joined.x, bad_rows), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// sched::WorkerPool begin/wait split (the serving-session barrier halves)
// ---------------------------------------------------------------------------

TEST(WorkerPoolSplit, BeginAndWaitEqualOneGeneration) {
  std::atomic<int> runs{0};
  sched::WorkerPool pool(3, [&runs](int) { runs.fetch_add(1); });
  pool.begin_generation();
  pool.wait_generation();
  EXPECT_EQ(runs.load(), 3);
  pool.run_generation();  // the fused form still works afterwards
  EXPECT_EQ(runs.load(), 6);
}

// ---------------------------------------------------------------------------
// serve::PipelineServer
// ---------------------------------------------------------------------------

ServeConfig serve_config(int stages, int workers, BatchPolicy policy,
                         int max_batch, double max_wait_ms = 5.0) {
  ServeConfig cfg;
  cfg.num_stages = stages;
  cfg.workers = workers;
  cfg.batch.policy = policy;
  cfg.batch.max_batch = max_batch;
  cfg.batch.max_wait_ms = max_wait_ms;
  return cfg;
}

TEST(PipelineServer, BitwiseParityAcrossWorkersStagesAndPolicies) {
  constexpr int kWidth = 12;
  nn::Model model = make_mlp(kWidth, 2, 6);
  auto w = init_weights(model, 11);

  // Reference: every request forwarded alone, sequentially.
  constexpr int kRequests = 12;
  std::vector<Tensor> inputs, expected;
  for (int i = 0; i < kRequests; ++i) {
    inputs.push_back(input_rows(1 + i % 3, kWidth, 100 + static_cast<std::uint64_t>(i)));
    expected.push_back(sequential_forward(model, w, inputs.back()));
  }

  for (int stages : {1, 3}) {
    for (int workers : {1, 3}) {
      for (BatchPolicy policy : {BatchPolicy::Fixed, BatchPolicy::Continuous}) {
        for (int max_batch : {1, 4}) {
          PipelineServer server(model, checkpoint_for(model, w),
                                serve_config(stages, workers, policy, max_batch,
                                             /*max_wait_ms=*/1.0));
          server.start();
          std::vector<TicketPtr> tickets;
          for (const Tensor& x : inputs) {
            nn::Flow f;
            f.x = x;
            tickets.push_back(server.submit(std::move(f)));
          }
          for (int i = 0; i < kRequests; ++i) {
            const Response& r = tickets[static_cast<std::size_t>(i)]->wait();
            ASSERT_EQ(r.status, Status::Ok)
                << "stages=" << stages << " workers=" << workers
                << " policy=" << batch_policy_name(policy)
                << " max_batch=" << max_batch << ": " << r.error;
            EXPECT_LE(r.batch_requests, max_batch);
            expect_bitwise_equal(
                r.output, expected[static_cast<std::size_t>(i)],
                "request " + std::to_string(i) + " (stages=" +
                    std::to_string(stages) + " workers=" +
                    std::to_string(workers) + " policy=" +
                    std::string(batch_policy_name(policy)) + ")");
          }
          server.stop();
          auto counters = server.counters();
          EXPECT_EQ(counters.submitted, static_cast<std::uint64_t>(kRequests));
          EXPECT_EQ(counters.completed_ok, static_cast<std::uint64_t>(kRequests));
          EXPECT_EQ(counters.admitted, static_cast<std::uint64_t>(kRequests));
          EXPECT_GE(counters.batches, 1u);
        }
      }
    }
  }
}

TEST(PipelineServer, TransformerRequestsMatchSequentialForward) {
  nn::TransformerConfig tcfg;
  tcfg.vocab = 16;
  tcfg.d_model = 8;
  tcfg.heads = 2;
  tcfg.enc_layers = 1;
  tcfg.dec_layers = 1;
  tcfg.ffn_hidden = 16;
  tcfg.max_len = 8;
  nn::Model model = nn::make_transformer(tcfg);
  auto w = init_weights(model, 3);

  constexpr int kSeq = 6;
  constexpr int kCur = 3;
  auto token_tensor = [&](int rows, std::uint64_t seed, int len) {
    Tensor t({rows, len});
    util::Rng rng(seed);
    for (std::int64_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<float>(3 + static_cast<int>(rng.uniform() * (tcfg.vocab - 3)));
    }
    return t;
  };

  PipelineServer server(model, checkpoint_for(model, w),
                        serve_config(2, 2, BatchPolicy::Continuous, 4));
  server.start();

  std::vector<Tensor> srcs, tgts, expected;
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 6; ++i) {
    const int rows = 1 + i % 2;
    srcs.push_back(token_tensor(rows, 40 + static_cast<std::uint64_t>(i), kSeq));
    tgts.push_back(token_tensor(rows, 70 + static_cast<std::uint64_t>(i), kCur));
    expected.push_back(sequential_forward(model, w, srcs.back(), &tgts.back()));
    nn::Flow f;
    f.x = srcs.back();
    f.aux = tgts.back();
    tickets.push_back(server.submit(std::move(f)));
  }
  for (std::size_t i = 0; i < tickets.size(); ++i) {
    const Response& r = tickets[i]->wait();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    expect_bitwise_equal(r.output, expected[i],
                         "transformer request " + std::to_string(i));
  }
  server.stop();
}

TEST(PipelineServer, FixedFormsFullBatchesContinuousStartsPartials) {
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 5);

  {
    // Fixed with a long max_wait: partial batches cannot flush before the
    // 5s timeout, so the only way these 4 requests complete promptly is as
    // one full batch — deterministically batch_requests == 4 for each.
    PipelineServer server(model, checkpoint_for(model, w),
                          serve_config(1, 1, BatchPolicy::Fixed, 4,
                                       /*max_wait_ms=*/5000.0));
    std::vector<TicketPtr> tickets;
    server.start();
    for (int i = 0; i < 4; ++i) {
      nn::Flow f;
      f.x = input_rows(1, 8, static_cast<std::uint64_t>(i));
      tickets.push_back(server.submit(std::move(f)));
    }
    for (auto& t : tickets) {
      const Response& r = t->wait();
      ASSERT_EQ(r.status, Status::Ok) << r.error;
      EXPECT_EQ(r.batch_requests, 4);
    }
    server.stop();
    EXPECT_EQ(server.counters().batches, 1u);
  }
  {
    // Continuous: a lone request is dispatched without waiting for peers.
    PipelineServer server(model, checkpoint_for(model, w),
                          serve_config(1, 1, BatchPolicy::Continuous, 4));
    server.start();
    nn::Flow f;
    f.x = input_rows(1, 8, 9);
    // Hold the TicketPtr: the Response reference lives inside the ticket,
    // and the server drops its own reference after completion.
    TicketPtr ticket = server.submit(std::move(f));
    const Response& r = ticket->wait();
    ASSERT_EQ(r.status, Status::Ok) << r.error;
    EXPECT_EQ(r.batch_requests, 1);
    server.stop();
  }
}

TEST(PipelineServer, DeadlineExpiryReturnsErrorNotCrash) {
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 5);
  // Fixed policy with an hour-long flush and a large batch: a lone request
  // would sit queued forever, so its own deadline must complete it.
  PipelineServer server(model, checkpoint_for(model, w),
                        serve_config(1, 1, BatchPolicy::Fixed, 64,
                                     /*max_wait_ms=*/3.6e6));
  server.start();
  nn::Flow f;
  f.x = input_rows(1, 8, 1);
  auto ticket = server.submit(std::move(f), std::chrono::milliseconds(20));
  const Response& r = ticket->wait();
  EXPECT_EQ(r.status, Status::DeadlineExceeded);
  EXPECT_TRUE(r.output.empty());
  server.stop();
  EXPECT_EQ(server.counters().deadline_expired, 1u);
}

TEST(PipelineServer, BackpressureRejectsInsteadOfBlocking) {
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 5);
  ServeConfig cfg = serve_config(1, 1, BatchPolicy::Fixed, 64,
                                 /*max_wait_ms=*/3.6e6);
  cfg.queue_capacity = 2;
  PipelineServer server(model, checkpoint_for(model, w), cfg);
  server.start();

  // The huge fixed batch never fills, so the first two requests stay
  // queued and the third hits the bound — an immediate rejection.
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 3; ++i) {
    nn::Flow f;
    f.x = input_rows(1, 8, static_cast<std::uint64_t>(i));
    tickets.push_back(server.submit(std::move(f)));
  }
  const Response& rejected = tickets[2]->wait();  // completed synchronously
  EXPECT_EQ(rejected.status, Status::RejectedQueueFull);

  // stop() drains: the queued pair flushes as a partial batch.
  server.stop();
  EXPECT_EQ(tickets[0]->wait().status, Status::Ok);
  EXPECT_EQ(tickets[1]->wait().status, Status::Ok);
  auto counters = server.counters();
  EXPECT_EQ(counters.rejected_full, 1u);
  EXPECT_EQ(counters.completed_ok, 2u);
}

TEST(PipelineServer, SubmitOutsideServingWindowIsRejected) {
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 5);
  PipelineServer server(model, checkpoint_for(model, w),
                        serve_config(1, 1, BatchPolicy::Continuous, 4));
  nn::Flow before;
  before.x = input_rows(1, 8, 1);
  EXPECT_EQ(server.submit(std::move(before))->wait().status,
            Status::RejectedStopped);  // not started yet

  server.start();
  server.stop();
  nn::Flow after;
  after.x = input_rows(1, 8, 2);
  EXPECT_EQ(server.submit(std::move(after))->wait().status,
            Status::RejectedStopped);
  EXPECT_EQ(server.counters().rejected_stopped, 2u);
}

TEST(PipelineServer, MalformedSubmissionsThrow) {
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 5);
  PipelineServer server(model, checkpoint_for(model, w),
                        serve_config(1, 1, BatchPolicy::Continuous, 4));
  server.start();
  nn::Flow empty;
  EXPECT_THROW(server.submit(std::move(empty)), std::invalid_argument);
  nn::Flow with_ctx;
  with_ctx.x = input_rows(1, 8, 1);
  with_ctx.ctx = input_rows(1, 8, 2);
  EXPECT_THROW(server.submit(std::move(with_ctx)), std::invalid_argument);
  server.stop();
}

TEST(PipelineServer, WorkerExceptionFailsTheBatchAndKeepsServing) {
  nn::Model model;
  model.add(std::make_unique<nn::Linear>(4, 4));
  model.add(std::make_unique<PoisonModule>());
  // Identity weights (W = I, b = 0) so PoisonModule sees the submitted
  // input verbatim and healthy requests come back bitwise-unchanged.
  std::vector<float> w(static_cast<std::size_t>(model.param_count()), 0.0f);
  for (int i = 0; i < 4; ++i) w[static_cast<std::size_t>(i * 4 + i)] = 1.0f;

  PipelineServer server(model, checkpoint_for(model, w),
                        serve_config(1, 1, BatchPolicy::Continuous, 1));
  server.start();

  nn::Flow poison;
  poison.x = Tensor({1, 4});
  poison.x[0] = PoisonModule::kPoison;
  // Hold each TicketPtr past the read: the Response reference lives inside
  // the ticket, and the server drops its own reference after completion —
  // a `submit(...)->wait()` temporary leaves the reference dangling.
  TicketPtr bad_ticket = server.submit(std::move(poison));
  const Response& bad = bad_ticket->wait();
  EXPECT_EQ(bad.status, Status::Error);
  EXPECT_NE(bad.error.find("poisoned"), std::string::npos);
  EXPECT_TRUE(bad.output.empty());

  // The worker survives the exception: the next request serves normally.
  nn::Flow healthy;
  healthy.x = input_rows(1, 4, 21);
  Tensor expected = healthy.x;
  TicketPtr good_ticket = server.submit(std::move(healthy));
  const Response& good = good_ticket->wait();
  ASSERT_EQ(good.status, Status::Ok) << good.error;
  expect_bitwise_equal(good.output, expected, "post-error request");
  server.stop();
  auto counters = server.counters();
  EXPECT_EQ(counters.errors, 1u);
  EXPECT_EQ(counters.completed_ok, 1u);
}

TEST(PipelineServer, StageStatsFeedTheLoadObserver) {
  nn::Model model = make_mlp(12, 2, 6);
  auto w = init_weights(model, 11);
  PipelineServer server(model, checkpoint_for(model, w),
                        serve_config(3, 2, BatchPolicy::Continuous, 2));
  server.start();
  std::vector<TicketPtr> tickets;
  for (int i = 0; i < 16; ++i) {
    nn::Flow f;
    f.x = input_rows(2, 12, static_cast<std::uint64_t>(i));
    tickets.push_back(server.submit(std::move(f)));
  }
  for (auto& t : tickets) ASSERT_EQ(t->wait().status, Status::Ok);
  server.stop();

  auto stages = server.stage_stats();
  ASSERT_EQ(stages.size(), 3u);
  std::uint64_t items = 0;
  std::uint64_t stage_idle = 0;
  std::uint64_t stage_steals = 0;
  for (const auto& s : stages) {
    items += s.items;
    stage_idle += s.pop_wait_ns;
    stage_steals += s.stolen_items;
  }
  // Every dispatched batch crosses every stage exactly once.
  EXPECT_EQ(items, server.counters().batches * 3);
  // The observer's spread helper consumes the same shape it gets from the
  // training engines.
  EXPECT_GE(core::StageLoadObserver::busy_spread(stages), 1.0);

  auto workers = server.worker_stats();
  ASSERT_EQ(workers.size(), 2u);
  std::uint64_t worker_items = 0;
  std::uint64_t worker_idle = 0;
  std::uint64_t worker_steals = 0;
  for (const auto& ws : workers) {
    worker_items += ws.items;
    worker_idle += ws.pop_wait_ns;
    worker_steals += ws.stolen_items;
  }
  EXPECT_EQ(worker_items, items);
  // Waiting is worker-side: stage w's pop_wait_ns is worker w's idle, so
  // for W <= P the per-stage sum is the total worker idle.
  EXPECT_EQ(stage_idle, worker_idle);
  // Each steal lands once in the stage ledger and once in the worker one.
  EXPECT_EQ(stage_steals, worker_steals);

  server.reset_stage_stats();
  for (const auto& s : server.stage_stats()) {
    EXPECT_EQ(s.items, 0u);
    EXPECT_EQ(s.busy_ns, 0u);
  }
}

TEST(PipelineServer, ConfigValidationRejectsNonsense) {
  nn::Model model = make_mlp(8, 1, 4);
  auto w = init_weights(model, 5);
  auto expect_invalid = [&](ServeConfig cfg) {
    EXPECT_THROW(PipelineServer(model, checkpoint_for(model, w), cfg),
                 std::invalid_argument);
  };
  expect_invalid(serve_config(0, 1, BatchPolicy::Continuous, 4));   // stages
  expect_invalid(serve_config(999, 1, BatchPolicy::Continuous, 4)); // > units
  expect_invalid(serve_config(1, -1, BatchPolicy::Continuous, 4));  // workers
  expect_invalid(serve_config(1, 1, BatchPolicy::Continuous, 0));   // max_batch
  ServeConfig bad_queue = serve_config(1, 1, BatchPolicy::Continuous, 4);
  bad_queue.queue_capacity = 0;
  expect_invalid(bad_queue);
  ServeConfig bad_slots = serve_config(1, 1, BatchPolicy::Continuous, 4);
  bad_slots.slots = -1;
  expect_invalid(bad_slots);
}

// ---------------------------------------------------------------------------
// serve CLI
// ---------------------------------------------------------------------------

TEST(ServeCli, AppliesFlagsOntoConfig) {
  ServeConfig cfg;
  auto cli = make_cli({"--serve-policy=fixed", "--serve-batch=16",
                       "--serve-max-wait=2.5", "--serve-stages=3",
                       "--serve-workers=2", "--serve-queue=128",
                       "--serve-slots=5"});
  parse_serve_cli(cli, cfg);
  EXPECT_EQ(cfg.batch.policy, BatchPolicy::Fixed);
  EXPECT_EQ(cfg.batch.max_batch, 16);
  EXPECT_DOUBLE_EQ(cfg.batch.max_wait_ms, 2.5);
  EXPECT_EQ(cfg.num_stages, 3);
  EXPECT_EQ(cfg.workers, 2);
  EXPECT_EQ(cfg.queue_capacity, 128);
  EXPECT_EQ(cfg.slots, 5);
}

TEST(ServeCli, AbsentFlagsKeepPresets) {
  ServeConfig cfg;
  cfg.batch.max_batch = 32;
  cfg.num_stages = 2;
  parse_serve_cli(make_cli({}), cfg);
  EXPECT_EQ(cfg.batch.max_batch, 32);
  EXPECT_EQ(cfg.num_stages, 2);
}

TEST(ServeCli, RejectsFlagsTheSelectedPolicyCannotHonor) {
  // --serve-max-wait routes through the same FlagRule table mechanism as
  // the backend CLI: continuous has no wait to bound, so passing it is an
  // error rather than a silent drop.
  ServeConfig cfg;
  auto cli = make_cli({"--serve-policy=continuous", "--serve-max-wait=5"});
  EXPECT_THROW(parse_serve_cli(cli, cfg), std::invalid_argument);
  // ... and the parsed config is validated before returning.
  ServeConfig bad;
  EXPECT_THROW(parse_serve_cli(make_cli({"--serve-queue=0"}), bad),
               std::invalid_argument);
  EXPECT_THROW(parse_serve_cli(make_cli({"--serve-policy=adaptive"}), bad),
               std::invalid_argument);
}

TEST(ServeCli, HelpNamesEveryFlag) {
  const std::string help = serve_cli_help();
  for (const char* flag : {"--serve-policy", "--serve-batch", "--serve-max-wait",
                           "--serve-stages", "--serve-workers", "--serve-queue",
                           "--serve-slots"}) {
    EXPECT_NE(help.find(flag), std::string::npos) << flag;
  }
}

}  // namespace
}  // namespace pipemare::serve
