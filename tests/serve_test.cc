// Tests of the serving layer (src/serve): seed-stable request coalescing,
// batcher admission control, the LRU model cache with checkpoint
// hot-reload, and the multi-tenant SynthesisServer end to end. The
// concurrency cases run under the TSan CI job.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <iterator>
#include <map>
#include <sstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/clock.h"
#include "core/silofuse.h"
#include "data/generators/paper_datasets.h"
#include "lib/json.h"
#include "lib/scrape.h"
#include "obs/expose.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/model_cache.h"
#include "serve/server.h"

namespace silofuse {
namespace serve {
namespace {

SiloFuseOptions TinyOptions(int clients = 2) {
  SiloFuseOptions options;
  options.base.autoencoder.hidden_dim = 32;
  options.base.autoencoder_steps = 40;
  options.base.diffusion_train_steps = 60;
  options.base.batch_size = 64;
  options.base.diffusion.hidden_dim = 32;
  options.base.diffusion.num_layers = 3;
  options.partition.num_clients = clients;
  return options;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_columns(), b.num_columns());
  for (int r = 0; r < a.num_rows(); ++r) {
    for (int c = 0; c < a.num_columns(); ++c) {
      ASSERT_EQ(a.value(r, c), b.value(r, c)) << "row " << r << " col " << c;
    }
  }
}

/// One trained model + checkpoint shared by the whole suite (training
/// dominates test wall time).
class ServeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Table data = GeneratePaperDataset("loan", 200, 5).Value();
    model_ = new SiloFuse(TinyOptions());
    Rng rng(6);
    ASSERT_TRUE(model_->Fit(data, &rng).ok());
    checkpoint_path_ = ::testing::TempDir() + "/serve_model.ckpt";
    ASSERT_TRUE(model_->SaveCheckpoint(checkpoint_path_).ok());
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    std::remove(checkpoint_path_.c_str());
  }

  static SiloFuse* model_;
  static std::string checkpoint_path_;
};

SiloFuse* ServeTest::model_ = nullptr;
std::string ServeTest::checkpoint_path_;

// --- Coalesced sampling (the correctness core of request batching) ---------

TEST_F(ServeTest, CoalescedSynthesisByteIdenticalToSolo) {
  const std::vector<int> rows = {7, 3, 12};
  const std::vector<uint64_t> seeds = {101, 202, 303};
  SamplingParams params;
  params.steps = 25;
  params.eta = 0.0;

  std::vector<Rng> rngs;
  rngs.reserve(seeds.size());
  for (uint64_t seed : seeds) rngs.emplace_back(seed);
  std::vector<CoalescedRequest> requests;
  for (size_t i = 0; i < seeds.size(); ++i) {
    requests.push_back({rows[i], &rngs[i]});
  }
  auto coalesced = model_->SynthesizeCoalesced(requests, params);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status().ToString();
  ASSERT_EQ(coalesced.Value().size(), seeds.size());

  for (size_t i = 0; i < seeds.size(); ++i) {
    Rng solo_rng(seeds[i]);
    auto solo = model_->Synthesize(rows[i], &solo_rng, params);
    ASSERT_TRUE(solo.ok()) << solo.status().ToString();
    ExpectTablesEqual(coalesced.Value()[i], solo.Value());
  }
}

TEST_F(ServeTest, CoalescedAncestralSamplingAlsoByteIdentical) {
  // eta = 1 draws per-step noise, exercising the per-block noise slicing on
  // every denoising step, not just at initialization.
  SamplingParams params;
  params.steps = 10;
  params.eta = 1.0;
  Rng rng_a(7), rng_b(8);
  auto coalesced = model_->SynthesizeCoalesced({{5, &rng_a}, {9, &rng_b}}, params);
  ASSERT_TRUE(coalesced.ok()) << coalesced.status().ToString();
  Rng solo_a(7), solo_b(8);
  ExpectTablesEqual(coalesced.Value()[0],
                    model_->Synthesize(5, &solo_a, params).Value());
  ExpectTablesEqual(coalesced.Value()[1],
                    model_->Synthesize(9, &solo_b, params).Value());
}

TEST_F(ServeTest, CoalescedRejectsInvalidRequests) {
  Rng rng(1);
  EXPECT_FALSE(model_->SynthesizeCoalesced({}).ok());
  EXPECT_FALSE(model_->SynthesizeCoalesced({{0, &rng}}).ok());
  EXPECT_FALSE(model_->SynthesizeCoalesced({{5, nullptr}}).ok());
}

// --- RequestBatcher ---------------------------------------------------------

/// Batch function that records calls and returns one tiny table per member
/// tagged with (seed, batch ordinal) so fan-out can be asserted exactly.
struct RecordingBatchFn {
  struct Call {
    std::vector<RequestBatcher::Request> batch;
  };
  std::vector<Call>* calls;

  Result<std::vector<Table>> operator()(
      const std::vector<RequestBatcher::Request>& batch,
      const SamplingParams&, int64_t /*dispatch_ns*/) const {
    calls->push_back({batch});
    std::vector<Table> tables;
    for (const RequestBatcher::Request& request : batch) {
      Schema schema({ColumnSpec::Numeric("seed"), ColumnSpec::Numeric("call")});
      Table t(schema);
      for (int r = 0; r < request.rows; ++r) {
        EXPECT_TRUE(t.AppendRow({static_cast<double>(request.seed),
                                 static_cast<double>(calls->size())})
                        .ok());
      }
      tables.push_back(std::move(t));
    }
    return tables;
  }
};

TEST(BatcherTest, CoalescesQueuedRequestsIntoOneBatch) {
  std::vector<RecordingBatchFn::Call> calls;
  BatcherOptions options;
  options.start_worker = false;  // deterministic manual dispatch
  RequestBatcher batcher(options, RecordingBatchFn{&calls});

  std::vector<std::future<Result<Table>>> futures;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RequestBatcher::Request request;
    request.rows = static_cast<int>(seed);
    request.seed = seed;
    auto submitted = batcher.SubmitAsync(request);
    ASSERT_TRUE(submitted.ok()) << submitted.status().ToString();
    futures.push_back(std::move(submitted).Value());
  }
  EXPECT_EQ(batcher.QueueDepth(), 4);

  EXPECT_EQ(batcher.RunOnce(), 4);
  ASSERT_EQ(calls.size(), 1u);  // ONE coalesced pass, not four
  ASSERT_EQ(calls[0].batch.size(), 4u);
  EXPECT_EQ(batcher.QueueDepth(), 0);

  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Result<Table> result = futures[seed - 1].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result.Value().num_rows(), static_cast<int>(seed));
    EXPECT_EQ(result.Value().value(0, 0), static_cast<double>(seed));
  }
}

TEST(BatcherTest, BackpressureRejectsWithUnavailable) {
  std::vector<RecordingBatchFn::Call> calls;
  BatcherOptions options;
  options.start_worker = false;
  options.max_queue_depth = 2;
  RequestBatcher batcher(options, RecordingBatchFn{&calls});

  RequestBatcher::Request request;
  request.rows = 1;
  ASSERT_TRUE(batcher.SubmitAsync(request).ok());
  ASSERT_TRUE(batcher.SubmitAsync(request).ok());
  auto rejected = batcher.SubmitAsync(request);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);

  // Draining the queue re-admits traffic.
  EXPECT_EQ(batcher.RunOnce(), 2);
  EXPECT_TRUE(batcher.SubmitAsync(request).ok());
}

TEST(BatcherTest, DifferentParamsNeverShareABatch) {
  std::vector<RecordingBatchFn::Call> calls;
  BatcherOptions options;
  options.start_worker = false;
  RequestBatcher batcher(options, RecordingBatchFn{&calls});

  RequestBatcher::Request ddim;
  ddim.rows = 1;
  ddim.params.steps = 25;
  ddim.params.eta = 0.0;
  RequestBatcher::Request ancestral = ddim;
  ancestral.params.eta = 1.0;
  ASSERT_TRUE(batcher.SubmitAsync(ddim).ok());
  ASSERT_TRUE(batcher.SubmitAsync(ancestral).ok());
  ASSERT_TRUE(batcher.SubmitAsync(ddim).ok());

  // FIFO dispatch splits on the params boundary: 1, then 1, then 1.
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_EQ(batcher.RunOnce(), 1);
  ASSERT_EQ(calls.size(), 3u);
  EXPECT_EQ(calls[0].batch[0].params.eta, 0.0);
  EXPECT_EQ(calls[1].batch[0].params.eta, 1.0);
  EXPECT_EQ(calls[2].batch[0].params.eta, 0.0);
}

TEST(BatcherTest, BatchCapsBoundOnePass) {
  std::vector<RecordingBatchFn::Call> calls;
  BatcherOptions options;
  options.start_worker = false;
  options.max_batch_requests = 2;
  RequestBatcher batcher(options, RecordingBatchFn{&calls});
  RequestBatcher::Request request;
  request.rows = 1;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(batcher.SubmitAsync(request).ok());
  EXPECT_EQ(batcher.RunOnce(), 2);
  EXPECT_EQ(batcher.RunOnce(), 2);
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_EQ(batcher.RunOnce(), 0);
}

TEST(BatcherTest, BatchErrorFailsEveryMemberButNotLaterOnes) {
  int calls = 0;
  BatcherOptions options;
  options.start_worker = false;
  RequestBatcher batcher(
      options, [&calls](const std::vector<RequestBatcher::Request>& batch,
                        const SamplingParams&,
                        int64_t) -> Result<std::vector<Table>> {
        ++calls;
        if (calls == 1) return Status::Internal("induced batch failure");
        std::vector<Table> tables;
        for (size_t i = 0; i < batch.size(); ++i) tables.push_back(Table());
        return tables;
      });
  RequestBatcher::Request request;
  request.rows = 1;
  auto f1 = batcher.SubmitAsync(request);
  auto f2 = batcher.SubmitAsync(request);
  ASSERT_TRUE(f1.ok() && f2.ok());
  EXPECT_EQ(batcher.RunOnce(), 2);
  EXPECT_EQ(f1.Value().get().status().code(), StatusCode::kInternal);
  EXPECT_EQ(f2.Value().get().status().code(), StatusCode::kInternal);

  auto f3 = batcher.SubmitAsync(request);
  ASSERT_TRUE(f3.ok());
  EXPECT_EQ(batcher.RunOnce(), 1);
  EXPECT_TRUE(f3.Value().get().ok());
}

TEST(BatcherTest, QueueDepthGaugeAggregatesAcrossBatchers) {
  obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("serve.queue_depth");
  const double base = gauge->Value();
  std::vector<RecordingBatchFn::Call> calls_a, calls_b;
  BatcherOptions options;
  options.start_worker = false;
  auto a = std::make_unique<RequestBatcher>(options, RecordingBatchFn{&calls_a});
  auto b = std::make_unique<RequestBatcher>(options, RecordingBatchFn{&calls_b});
  RequestBatcher::Request request;
  request.rows = 1;
  ASSERT_TRUE(a->SubmitAsync(request).ok());
  ASSERT_TRUE(a->SubmitAsync(request).ok());
  ASSERT_TRUE(b->SubmitAsync(request).ok());
  // The gauge is the SUM across batchers, not whichever wrote last.
  EXPECT_EQ(gauge->Value(), base + 3);
  // Destroying one batcher (orphaning its two queued requests) withdraws
  // only its own contribution, not the surviving batcher's.
  a.reset();
  EXPECT_EQ(gauge->Value(), base + 1);
  EXPECT_EQ(b->RunOnce(), 1);
  EXPECT_EQ(gauge->Value(), base);
}

// --- ModelCache -------------------------------------------------------------

TEST_F(ServeTest, CacheLoadsLazilyAndServesHits) {
  ModelCache cache;
  ASSERT_TRUE(cache.Register("loan", checkpoint_path_).ok());
  EXPECT_EQ(cache.LoadedCount(), 0);  // lazy: nothing loaded yet
  auto first = cache.Get("loan");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(cache.LoadedCount(), 1);
  auto second = cache.Get("loan");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.Value().get(), second.Value().get());  // same residency
}

TEST_F(ServeTest, CacheUnknownDeploymentIsNotFound) {
  ModelCache cache;
  EXPECT_EQ(cache.Get("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, CacheEvictsLeastRecentlyUsed) {
  ModelCacheOptions options;
  options.capacity = 2;
  ModelCache cache(options);
  ASSERT_TRUE(cache.Register("a", checkpoint_path_).ok());
  ASSERT_TRUE(cache.Register("b", checkpoint_path_).ok());
  ASSERT_TRUE(cache.Register("c", checkpoint_path_).ok());
  ASSERT_TRUE(cache.Get("a").ok());
  ASSERT_TRUE(cache.Get("b").ok());
  auto a_resident = cache.Get("a");  // bumps a above b
  ASSERT_TRUE(a_resident.ok());
  ASSERT_TRUE(cache.Get("c").ok());  // evicts b, the LRU entry
  EXPECT_EQ(cache.LoadedCount(), 2);
  // a stayed resident across the eviction...
  auto a_again = cache.Get("a");
  ASSERT_TRUE(a_again.ok());
  EXPECT_EQ(a_again.Value().get(), a_resident.Value().get());
  // ...and b reloads on demand (registration survives eviction).
  EXPECT_TRUE(cache.Get("b").ok());
}

TEST_F(ServeTest, CacheHotReloadsWhenCheckpointChanges) {
  const std::string path = ::testing::TempDir() + "/serve_reload.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(path).ok());
  ModelCache cache;
  ASSERT_TRUE(cache.Register("live", path).ok());
  auto before = cache.Get("live");
  ASSERT_TRUE(before.ok());

  // Retrain a structurally different model (3 clients -> different file
  // size, so the mtime/size generation check must fire) and overwrite.
  Table data = GeneratePaperDataset("loan", 200, 9).Value();
  SiloFuse replacement(TinyOptions(3));
  Rng rng(10);
  ASSERT_TRUE(replacement.Fit(data, &rng).ok());
  ASSERT_TRUE(replacement.SaveCheckpoint(path).ok());

  auto after = cache.Get("live");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_NE(after.Value().get(), before.Value().get());
  EXPECT_EQ(after.Value()->num_clients(), 3);
  // The drained handle from before the swap still works.
  Rng old_rng(3);
  EXPECT_TRUE(before.Value()->Synthesize(5, &old_rng).ok());
  std::remove(path.c_str());
}

TEST_F(ServeTest, CacheConcurrentGetsAreSingleFlight) {
  ModelCache cache;
  ASSERT_TRUE(cache.Register("loan", checkpoint_path_).ok());
  constexpr int kThreads = 4;
  std::vector<std::shared_ptr<SiloFuse>> models(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &cache, &models] {
      auto model = cache.Get("loan");
      if (model.ok()) models[t] = model.Value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(models[t], nullptr);
    EXPECT_EQ(models[t].get(), models[0].get());  // one load, shared by all
  }
}

TEST_F(ServeTest, CacheReleasesLoadLatchWhenReRegisteredDuringLoad) {
  // Hot-redeploy race: Register() swaps the path while the single-flight
  // loader is inside LoadCheckpoint. The loader must release its 'loading'
  // latch when it discovers the swap, or the deployment wedges forever.
  const std::string swap_path = ::testing::TempDir() + "/serve_swap.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(swap_path).ok());
  ModelCache cache;
  ASSERT_TRUE(cache.Register("live", checkpoint_path_).ok());
  bool swapped = false;
  cache.SetLoadHookForTest([&cache, &swapped, &swap_path] {
    if (swapped) return;  // only the first load races with the re-register
    swapped = true;
    EXPECT_TRUE(cache.Register("live", swap_path).ok());
  });
  auto raced = cache.Get("live");
  ASSERT_FALSE(raced.ok());
  EXPECT_EQ(raced.status().code(), StatusCode::kUnavailable);

  // The next Get must become the new loader and serve the swapped path —
  // run it on another thread so a leaked latch fails the test instead of
  // hanging it.
  auto next = std::async(std::launch::async,
                         [&cache] { return cache.Get("live"); });
  ASSERT_EQ(next.wait_for(std::chrono::seconds(60)),
            std::future_status::ready)
      << "single-flight latch leaked: Get() after a re-register-during-load "
         "waits forever";
  auto reloaded = next.get();
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  std::remove(swap_path.c_str());
}

// A corrupt file replacing a good checkpoint must not take the deployment
// down: the resident model keeps serving, the bad generation is parsed once
// (not once per request), and a later valid checkpoint reloads normally.
TEST_F(ServeTest, FailedHotReloadKeepsServingResidentModel) {
  const std::string path = ::testing::TempDir() + "/serve_bad_reload.ckpt";
  ASSERT_TRUE(model_->SaveCheckpoint(path).ok());
  ServeOptions options;
  options.batcher.max_linger_us = 0;
  SynthesisServer server(options);
  std::atomic<int> loads{0};
  server.cache()->SetLoadHookForTest([&loads] { ++loads; });
  ASSERT_TRUE(server.RegisterDeployment("sturdy", path).ok());
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter* failures = registry.GetCounter("serve.cache.reload_failures");
  obs::Counter* reloads = registry.GetCounter("serve.cache.reloads");
  const int64_t failures_before = failures->Value();

  ServeRequest request;
  request.deployment = "sturdy";
  request.rows = 12;
  request.seed = 77;
  auto good = server.Synthesize(request);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  ASSERT_EQ(loads.load(), 1);
  auto resident = server.cache()->Get("sturdy");
  ASSERT_TRUE(resident.ok());

  {
    std::ofstream garbage(path, std::ios::trunc | std::ios::binary);
    garbage << "this is not a checkpoint";
  }
  std::vector<Result<Table>> results(8, Status::Internal("not run"));
  std::vector<std::thread> callers;
  for (size_t i = 0; i < results.size(); ++i) {
    callers.emplace_back([&server, &request, &results, i] {
      results[i] = server.Synthesize(request);
    });
  }
  for (std::thread& caller : callers) caller.join();
  for (const Result<Table>& result : results) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectTablesEqual(result.Value(), good.Value());
  }
  EXPECT_EQ(loads.load(), 2);  // the bad generation was parsed exactly once
  EXPECT_EQ(failures->Value() - failures_before, 1);

  const int64_t reloads_before = reloads->Value();
  ASSERT_TRUE(model_->SaveCheckpoint(path).ok());
  auto fresh = server.Synthesize(request);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ExpectTablesEqual(fresh.Value(), good.Value());
  EXPECT_EQ(loads.load(), 3);
  EXPECT_EQ(reloads->Value() - reloads_before, 1);
  auto reloaded = server.cache()->Get("sturdy");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_NE(reloaded.Value().get(), resident.Value().get());
  std::remove(path.c_str());
}

// --- SynthesisServer --------------------------------------------------------

TEST_F(ServeTest, ServerConcurrentRequestsByteIdenticalToSolo) {
  ServeOptions options;
  options.batcher.max_linger_us = 20000;  // wide window to force coalescing
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());

  constexpr int kClients = 4;
  std::vector<Result<Table>> responses(kClients, Status::Internal("unset"));
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([t, &server, &responses] {
      ServeRequest request;
      request.deployment = "loan";
      request.rows = 6 + t;
      request.seed = 1000 + static_cast<uint64_t>(t);
      responses[t] = server.Synthesize(request);
    });
  }
  for (std::thread& thread : threads) thread.join();

  // Each response equals a solo run at the SERVING schedule (25-step DDIM).
  SamplingParams serving = server.options().defaults;
  for (int t = 0; t < kClients; ++t) {
    ASSERT_TRUE(responses[t].ok()) << responses[t].status().ToString();
    Rng solo_rng(1000 + static_cast<uint64_t>(t));
    auto solo = model_->Synthesize(6 + t, &solo_rng, serving);
    ASSERT_TRUE(solo.ok());
    ExpectTablesEqual(responses[t].Value(), solo.Value());
  }
}

TEST_F(ServeTest, ServerValidatesRequests) {
  SynthesisServer server;
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());
  ServeRequest request;
  request.deployment = "loan";
  request.rows = 0;
  EXPECT_EQ(server.Synthesize(request).status().code(),
            StatusCode::kInvalidArgument);
  request.rows = server.options().max_rows_per_request + 1;
  EXPECT_EQ(server.Synthesize(request).status().code(),
            StatusCode::kInvalidArgument);
  request.rows = 5;
  request.deployment = "unknown";
  EXPECT_EQ(server.Synthesize(request).status().code(), StatusCode::kNotFound);
}

TEST_F(ServeTest, ServerUnknownDeploymentCreatesNoBatcherState) {
  SynthesisServer server;
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());
  // A stream of unique bogus names must not mint a worker thread + map
  // entry each: kNotFound has to land before any batcher is created.
  for (int i = 0; i < 16; ++i) {
    ServeRequest request;
    request.deployment = "bogus-" + std::to_string(i);
    request.rows = 1;
    EXPECT_EQ(server.Synthesize(request).status().code(),
              StatusCode::kNotFound);
  }
  EXPECT_EQ(server.ActiveBatchers(), 0);

  ServeRequest real;
  real.deployment = "loan";
  real.rows = 2;
  real.seed = 5;
  ASSERT_TRUE(server.Synthesize(real).ok());
  EXPECT_EQ(server.ActiveBatchers(), 1);
}

TEST_F(ServeTest, ServerStreamChunksConcatenateToFullResponse) {
  ServeOptions options;
  options.stream_chunk_rows = 4;
  options.batcher.max_linger_us = 0;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());

  ServeRequest request;
  request.deployment = "loan";
  request.rows = 10;
  request.seed = 77;
  std::vector<Table> chunks;
  ASSERT_TRUE(server
                  .SynthesizeStream(request,
                                    [&chunks](const Table& chunk) {
                                      chunks.push_back(chunk);
                                      return Status::OK();
                                    })
                  .ok());
  ASSERT_EQ(chunks.size(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(chunks[0].num_rows(), 4);
  EXPECT_EQ(chunks[2].num_rows(), 2);
  auto whole = Table::ConcatRows(chunks);
  ASSERT_TRUE(whole.ok());
  ExpectTablesEqual(whole.Value(),
                    server.Synthesize(request).Value());  // same seed/bytes
}

// --- Serving observability --------------------------------------------------

TEST_F(ServeTest, StreamSlowConsumerStillByteIdentical) {
  // A consumer that drains chunks slower than the server produces them must
  // not perturb the bytes: chunk boundaries are a delivery detail, and
  // backpressure from the sink only stretches the stream phase.
  ServeOptions options;
  options.stream_chunk_rows = 3;
  options.batcher.max_linger_us = 0;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());

  ServeRequest request;
  request.deployment = "loan";
  request.rows = 10;
  request.seed = 404;
  std::vector<Table> chunks;
  ASSERT_TRUE(server
                  .SynthesizeStream(request,
                                    [&chunks](const Table& chunk) {
                                      std::this_thread::sleep_for(
                                          std::chrono::milliseconds(2));
                                      EXPECT_LE(chunk.num_rows(), 3);
                                      chunks.push_back(chunk);
                                      return Status::OK();
                                    })
                  .ok());
  ASSERT_EQ(chunks.size(), 4u);  // 3 + 3 + 3 + 1
  auto whole = Table::ConcatRows(chunks);
  ASSERT_TRUE(whole.ok());
  ExpectTablesEqual(whole.Value(), server.Synthesize(request).Value());
}

TEST_F(ServeTest, StreamSinkFailureSurfacesAndAbortsDelivery) {
  ServeOptions options;
  options.stream_chunk_rows = 2;
  options.batcher.max_linger_us = 0;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());
  ServeRequest request;
  request.deployment = "loan";
  request.rows = 8;
  request.seed = 11;
  int delivered = 0;
  Status status = server.SynthesizeStream(
      request, [&delivered](const Table&) -> Status {
        if (++delivered == 2) return Status::Internal("consumer fell over");
        return Status::OK();
      });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_EQ(delivered, 2);  // delivery stopped at the failing chunk
}

TEST_F(ServeTest, ServerBackpressureDuringLingerRejectsWithUnavailable) {
  // Fill the bounded queue while the worker lingers for co-batchable
  // arrivals: the next submit must shed with kUnavailable instead of
  // queueing unboundedly, and the queued requests must still complete.
  ServeOptions options;
  options.batcher.max_linger_us = 300000;  // long linger holds the queue
  options.batcher.max_batch_requests = 8;  // linger does not end early
  options.batcher.max_queue_depth = 2;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());

  std::vector<Result<Table>> queued(2, Status::Internal("unset"));
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([t, &server, &queued] {
      ServeRequest request;
      request.deployment = "loan";
      request.rows = 3;
      request.seed = 600 + static_cast<uint64_t>(t);
      queued[t] = server.Synthesize(request);
    });
  }
  // Wait until both requests sit in the lingering batcher's queue.
  int depth = 0;
  for (int spin = 0; spin < 2000 && depth < 2; ++spin) {
    const ServerDebugSnapshot snapshot = server.DebugSnapshot();
    depth = snapshot.deployments.empty() ? 0
                                         : snapshot.deployments[0].queue_depth;
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_EQ(depth, 2);

  ServeRequest overflow;
  overflow.deployment = "loan";
  overflow.rows = 3;
  overflow.seed = 700;
  auto shed = server.Synthesize(overflow);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);

  for (std::thread& thread : threads) thread.join();
  for (const auto& result : queued) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
}

TEST_F(ServeTest, PhaseHistogramsSumToRequestLatency) {
  // Regression guard on the phase decomposition: queue + linger + sample +
  // decode + handoff (+ stream for streamed requests) must tile the request
  // latency. Adjacent phases share their boundary stamps, so the totals
  // agree up to floating-point rounding, and each request's flight events
  // chain end to start from its submit stamp on.
  obs::MetricsRegistry::Global().Reset();
  auto& flight = obs::FlightRecorder::Global();
  flight.SetEnabled(true);
  flight.Clear();
  ServeOptions options;
  options.batcher.max_linger_us = 2000;
  options.stream_chunk_rows = 4;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());

  constexpr int kThreads = 4;
  constexpr int kPerThread = 3;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &server] {
      for (int r = 0; r < kPerThread; ++r) {
        ServeRequest request;
        request.deployment = "loan";
        request.rows = 5 + r;
        request.seed = 800 + static_cast<uint64_t>(t * kPerThread + r);
        if (t == 0) {  // one client streams; the rest take full tables
          EXPECT_TRUE(server
                          .SynthesizeStream(request,
                                            [](const Table&) {
                                              return Status::OK();
                                            })
                          .ok());
        } else {
          EXPECT_TRUE(server.Synthesize(request).ok());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  auto total = [&snapshot](const char* name) {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0.0 : it->second.sum;
  };
  auto count = [&snapshot](const char* name) -> int64_t {
    auto it = snapshot.histograms.find(name);
    return it == snapshot.histograms.end() ? 0 : it->second.count;
  };
  constexpr int kRequests = kThreads * kPerThread;
  EXPECT_EQ(count("serve.request_latency_ms"), kRequests);
  EXPECT_EQ(count("serve.queue_ms"), kRequests);
  EXPECT_EQ(count("serve.linger_ms"), kRequests);
  EXPECT_EQ(count("serve.sample_ms"), kRequests);
  EXPECT_EQ(count("serve.decode_ms"), kRequests);
  EXPECT_EQ(count("serve.handoff_ms"), kRequests);
  EXPECT_EQ(count("serve.stream_ms"), kPerThread);  // the streaming client
  EXPECT_EQ(count("serve.deploy.loan.handoff_ms"), kRequests);

  const double phase_sum = total("serve.queue_ms") + total("serve.linger_ms") +
                           total("serve.sample_ms") + total("serve.decode_ms") +
                           total("serve.handoff_ms") + total("serve.stream_ms");
  const double latency_sum = total("serve.request_latency_ms");
  ASSERT_GT(latency_sum, 0.0);
  EXPECT_NEAR(phase_sum, latency_sum, 0.01 * kRequests);

  // Every batch fetched its model once, in both the process-wide and the
  // per-deployment cache_load histogram.
  const int64_t batches = count("serve.batch.requests");
  EXPECT_GT(batches, 0);
  EXPECT_EQ(count("serve.cache_load_ms"), batches);
  EXPECT_EQ(count("serve.deploy.loan.cache_load_ms"), batches);

  // The flight recorder holds the same decomposition per request: the
  // instant enqueue at submit, then queue, linger, sample, decode, handoff
  // and (streamed requests only) stream, each starting where the previous
  // one ended.
  const obs::FlightPhase kChain[] = {
      obs::FlightPhase::kEnqueue, obs::FlightPhase::kQueue,
      obs::FlightPhase::kLinger,  obs::FlightPhase::kSample,
      obs::FlightPhase::kDecode,  obs::FlightPhase::kHandoff,
      obs::FlightPhase::kStream};
  std::map<uint64_t, std::map<obs::FlightPhase, obs::FlightEvent>> chains;
  for (const obs::FlightEvent& event : flight.Snapshot()) {
    if (event.request_id == 0) continue;  // batch-scoped (cache_load)
    EXPECT_TRUE(chains[event.request_id].emplace(event.phase, event).second)
        << "request " << event.request_id << " recorded "
        << obs::FlightPhaseName(event.phase) << " twice";
  }
  ASSERT_EQ(chains.size(), static_cast<size_t>(kRequests));
  int streamed = 0;
  for (const auto& [request_id, phases] : chains) {
    const bool stream = phases.count(obs::FlightPhase::kStream) > 0;
    streamed += stream ? 1 : 0;
    const size_t length = std::size(kChain) - (stream ? 0 : 1);
    ASSERT_EQ(phases.size(), length) << "request " << request_id;
    for (size_t i = 0; i + 1 < length; ++i) {
      const auto from = phases.find(kChain[i]);
      const auto to = phases.find(kChain[i + 1]);
      ASSERT_NE(from, phases.end()) << obs::FlightPhaseName(kChain[i]);
      ASSERT_NE(to, phases.end()) << obs::FlightPhaseName(kChain[i + 1]);
      EXPECT_EQ(from->second.end_ns, to->second.start_ns)
          << "request " << request_id << ": "
          << obs::FlightPhaseName(kChain[i]) << " -> "
          << obs::FlightPhaseName(kChain[i + 1]);
    }
  }
  EXPECT_EQ(streamed, kPerThread);
  flight.Clear();
}

TEST_F(ServeTest, SloBreachDumpsFlightRecordingWithRequestSpans) {
  // Force an SLO breach on a deterministic VirtualClock timeline and check
  // the triggered flight dump is valid Perfetto JSON containing the
  // offending request's queue -> sample -> decode spans and flow arrows.
  auto& flight = obs::FlightRecorder::Global();
  flight.SetEnabled(true);
  flight.SetDumpDir("");
  flight.Clear();

  VirtualClock clock;
  ServeOptions options;
  options.batcher.max_linger_us = 0;
  options.enable_slo = true;
  options.slo.latency_objective_ms = 0.0;  // any real latency is SLO-bad
  options.slo.min_requests = 1;
  options.slo.burn_rate_threshold = 1.0;
  options.clock = &clock;
  options.flight_dump_dir = ::testing::TempDir();
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("loan", checkpoint_path_).ok());

  ServeRequest request;
  request.deployment = "loan";
  request.rows = 6;
  request.seed = 900;
  ASSERT_TRUE(server.Synthesize(request).ok());

  const ServerDebugSnapshot state = server.DebugSnapshot();
  EXPECT_TRUE(state.slo_enabled);
  EXPECT_TRUE(state.slo.breached);
  EXPECT_EQ(state.slo.breaches, 1);
  ASSERT_EQ(state.recent_flight_dumps.size(), 1u);
  EXPECT_NE(state.recent_flight_dumps[0].find("flight_slo_breach_"),
            std::string::npos);

  auto doc = json::ParseFile(state.recent_flight_dumps[0]);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const json::Value* events = doc.Value().Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  // The offending request's id is whatever the server minted: read it off
  // the sample slice, then demand the full phase chain under that id.
  double request_id = 0.0;
  for (const json::Value& event : events->AsArray()) {
    if (event.StringOr("ph", "") == "X" &&
        event.StringOr("name", "") == "serve.sample") {
      const json::Value* args = event.Find("args");
      ASSERT_NE(args, nullptr);
      request_id = args->NumberOr("request_id", 0.0);
    }
  }
  ASSERT_GT(request_id, 0.0);
  int queue = 0, sample = 0, decode = 0, flow_starts = 0, flow_finishes = 0;
  bool saw_breach_marker = false;
  for (const json::Value& event : events->AsArray()) {
    const std::string ph = event.StringOr("ph", "");
    const std::string name = event.StringOr("name", "");
    if (ph == "s") ++flow_starts;
    if (ph == "f") ++flow_finishes;
    if (name == "serve.slo_breach") saw_breach_marker = true;
    if (ph != "X") continue;
    const json::Value* args = event.Find("args");
    if (args == nullptr || args->NumberOr("request_id", 0.0) != request_id) {
      continue;
    }
    if (name == "serve.queue") ++queue;
    if (name == "serve.sample") ++sample;
    if (name == "serve.decode") ++decode;
  }
  EXPECT_EQ(queue, 1);
  EXPECT_EQ(sample, 1);
  EXPECT_EQ(decode, 1);
  EXPECT_TRUE(saw_breach_marker);
  // enqueue -> queue -> linger -> sample -> decode: at least 4 hops.
  EXPECT_GE(flow_starts, 4);
  EXPECT_EQ(flow_starts, flow_finishes);

  std::remove(state.recent_flight_dumps[0].c_str());
  flight.SetDumpDir("");
  flight.Clear();
}

TEST_F(ServeTest, DebugSnapshotReportsOperationalState) {
  obs::FlightRecorder::Global().SetEnabled(true);
  SynthesisServer server;
  ASSERT_TRUE(server.RegisterDeployment("hot", checkpoint_path_).ok());
  ASSERT_TRUE(server.RegisterDeployment("cold", checkpoint_path_).ok());
  ServeRequest request;
  request.deployment = "hot";
  request.rows = 2;
  request.seed = 1;
  ASSERT_TRUE(server.Synthesize(request).ok());

  const ServerDebugSnapshot snapshot = server.DebugSnapshot();
  ASSERT_EQ(snapshot.deployments.size(), 2u);
  int hot_depth = -2, cold_depth = -2;
  for (const auto& deployment : snapshot.deployments) {
    if (deployment.name == "hot") hot_depth = deployment.queue_depth;
    if (deployment.name == "cold") cold_depth = deployment.queue_depth;
  }
  EXPECT_GE(hot_depth, 0);    // served traffic: batcher exists, queue drained
  EXPECT_EQ(cold_depth, -1);  // never served: no batcher state minted
  EXPECT_EQ(snapshot.loaded_models, 1);
  EXPECT_EQ(snapshot.active_batchers, 1);
  EXPECT_FALSE(snapshot.slo_enabled);
  EXPECT_FALSE(snapshot.audit_enabled);
  EXPECT_GT(snapshot.flight_events, 0);
}

// --- Online quality auditing ------------------------------------------------

TEST_F(ServeTest, AuditOnKeepsServedBytesAndRequestAccountingIdentical) {
  // Two servers over the same checkpoint, one with auditing on; identical
  // request streams must produce byte-identical tables and identical
  // request accounting — the auditor only ever copies rows off to the side.
  ServeOptions off_options;
  off_options.batcher.max_linger_us = 0;
  SynthesisServer server_off(off_options);
  ASSERT_TRUE(server_off.RegisterDeployment("plain_off", checkpoint_path_).ok());

  ServeOptions on_options;
  on_options.batcher.max_linger_us = 0;
  on_options.enable_audit = true;
  on_options.audit.start_worker = false;
  on_options.audit.audit_period_ns = 1;
  on_options.audit.min_audit_rows = 16;
  SynthesisServer server_on(on_options);
  ASSERT_TRUE(server_on.RegisterDeployment("plain_on", checkpoint_path_).ok());
  ASSERT_NE(server_on.auditor(), nullptr);

  constexpr int kRequests = 4;
  for (int i = 0; i < kRequests; ++i) {
    ServeRequest request;
    request.rows = 10 + i;
    request.seed = 7000 + static_cast<uint64_t>(i);
    request.deployment = "plain_off";
    auto off = server_off.Synthesize(request);
    request.deployment = "plain_on";
    auto on = server_on.Synthesize(request);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ExpectTablesEqual(off.Value(), on.Value());
  }
  EXPECT_GE(server_on.auditor()->RunOnce(), 1);

  // Equal request accounting: the per-deployment latency and phase
  // histograms saw exactly one observation per request on both servers.
  const obs::MetricsSnapshot metrics = obs::MetricsRegistry::Global().Snapshot();
  for (const char* phase :
       {"request_latency_ms", "sample_ms", "decode_ms"}) {
    const auto off_it = metrics.histograms.find(
        std::string("serve.deploy.plain_off.") + phase);
    const auto on_it = metrics.histograms.find(
        std::string("serve.deploy.plain_on.") + phase);
    ASSERT_NE(off_it, metrics.histograms.end()) << phase;
    ASSERT_NE(on_it, metrics.histograms.end()) << phase;
    EXPECT_EQ(off_it->second.count, kRequests) << phase;
    EXPECT_EQ(on_it->second.count, kRequests) << phase;
  }

  // And the audit actually happened on the sidelined copies.
  const ServerDebugSnapshot snapshot = server_on.DebugSnapshot();
  EXPECT_TRUE(snapshot.audit_enabled);
  ASSERT_EQ(snapshot.audit.size(), 1u);
  EXPECT_EQ(snapshot.audit[0].deployment, "plain_on");
  EXPECT_TRUE(snapshot.audit[0].has_reference);
  EXPECT_GE(snapshot.audit[0].audits, 1);
  EXPECT_EQ(snapshot.audit[0].observed_rows, 10 + 11 + 12 + 13);
}

/// Whole-file bytes, for the checkpoint-splicing corruption below.
std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST_F(ServeTest, CorruptedCheckpointTripsQualityBreachWithFlightDump) {
  // A corrupted checkpoint: a model retrained on drifted data (numeric
  // columns rescaled) with the original deployment's reference-statistics
  // section spliced back in at the byte level. Its sampler no longer
  // matches its own embedded reference, and the auditor must notice within
  // one long window: bad audits -> breach gauge + alert callback + a
  // "quality_breach" flight dump -- while the data plane keeps serving.
  auto& flight = obs::FlightRecorder::Global();
  flight.SetEnabled(true);
  flight.SetDumpDir("");
  flight.Clear();

  // Drifted retrain on the same schema, saved with capture disabled so the
  // file ends right after the coordinator payload (pre-ReferenceStats wire
  // format).
  Table data = GeneratePaperDataset("loan", 200, 5).Value();
  std::vector<std::vector<double>> columns(data.num_columns());
  for (int c = 0; c < data.num_columns(); ++c) {
    const bool categorical = data.schema().column(c).is_categorical();
    columns[c].reserve(data.num_rows());
    for (int r = 0; r < data.num_rows(); ++r) {
      const double v = data.value(r, c);
      columns[c].push_back(categorical ? v : v * 4.0 + 10.0);
    }
  }
  Table drifted_data =
      Table::FromColumns(data.schema(), std::move(columns)).Value();
  SiloFuseOptions drifted_options = TinyOptions();
  drifted_options.reference_stats_rows = 0;
  SiloFuse drifted(drifted_options);
  Rng rng(60);
  ASSERT_TRUE(drifted.Fit(drifted_data, &rng).ok());
  EXPECT_FALSE(drifted.has_reference_stats());
  const std::string base_path =
      ::testing::TempDir() + "/serve_drift_base.ckpt";
  ASSERT_TRUE(drifted.SaveCheckpoint(base_path).ok());

  // Splice the healthy fixture checkpoint's trailing REFSTATS section onto
  // the drifted base. WriteString puts a U64 length ahead of the tag, so
  // the section starts 8 bytes before the magic.
  const std::string good_bytes = ReadFileBytes(checkpoint_path_);
  const std::string base_bytes = ReadFileBytes(base_path);
  const size_t tag = good_bytes.rfind("SILOFUSE_REFSTATS");
  ASSERT_NE(tag, std::string::npos);
  ASSERT_GE(tag, 8u);
  const std::string corrupt_path = ::testing::TempDir() + "/serve_corrupt.ckpt";
  {
    std::ofstream out(corrupt_path, std::ios::binary);
    out << base_bytes << good_bytes.substr(tag - 8);
    ASSERT_TRUE(out.good());
  }

  VirtualClock clock;
  ServeOptions options;
  options.batcher.max_linger_us = 0;
  options.enable_audit = true;
  options.audit.start_worker = false;  // RunOnce-driven: exact timeline
  options.audit.audit_period_ns = 1;
  options.audit.min_audit_rows = 16;
  options.audit.breach.min_requests = 2;
  options.clock = &clock;
  options.flight_dump_dir = ::testing::TempDir();
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("corrupt", corrupt_path).ok());
  ASSERT_NE(server.auditor(), nullptr);

  std::string breached_deployment;
  std::string breach_reason;
  server.auditor()->SetOnBreach(
      [&](const std::string& deployment, const std::string& reason) {
        breached_deployment = deployment;
        breach_reason = reason;
      });

  // Two served-and-audited rounds, 2 virtual seconds apart: both audits
  // land inside the short and long windows, the second one enters breach.
  for (int i = 0; i < 2; ++i) {
    ServeRequest request;
    request.deployment = "corrupt";
    request.rows = 24;
    request.seed = 8800 + static_cast<uint64_t>(i);
    auto result = server.Synthesize(request);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result.Value().num_rows(), 24);  // data plane keeps serving
    EXPECT_EQ(server.auditor()->RunOnce(), 1);
    clock.SleepFor(2LL * 1000 * 1000 * 1000);
  }

  EXPECT_EQ(breached_deployment, "corrupt");
  EXPECT_FALSE(breach_reason.empty());
  const ServerDebugSnapshot snapshot = server.DebugSnapshot();
  ASSERT_EQ(snapshot.audit.size(), 1u);
  EXPECT_TRUE(snapshot.audit[0].has_reference);
  EXPECT_TRUE(snapshot.audit[0].breached);
  EXPECT_EQ(snapshot.audit[0].breaches, 1);
  EXPECT_EQ(snapshot.audit[0].bad_audits, 2);
  EXPECT_FALSE(snapshot.audit[0].last.good);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("audit.corrupt.breached")
                ->Value(),
            1.0);
  ASSERT_FALSE(snapshot.recent_flight_dumps.empty());
  bool saw_quality_dump = false;
  for (const std::string& path : snapshot.recent_flight_dumps) {
    if (path.find("flight_quality_breach_") != std::string::npos) {
      saw_quality_dump = true;
    }
    std::remove(path.c_str());
  }
  EXPECT_TRUE(saw_quality_dump);

  std::remove(base_path.c_str());
  std::remove(corrupt_path.c_str());
  flight.SetDumpDir("");
  flight.Clear();
}

TEST_F(ServeTest, NoReferenceCheckpointServesWithAuditReportingNoReference) {
  // Pre-ReferenceStats checkpoints (simulated with reference_stats_rows = 0,
  // which writes the old format byte for byte) must serve normally with the
  // auditor on: audit.*.has_reference stays 0 and nothing is ever scored.
  Table data = GeneratePaperDataset("loan", 200, 5).Value();
  SiloFuseOptions old_options = TinyOptions();
  old_options.reference_stats_rows = 0;
  SiloFuse old_model(old_options);
  Rng rng(61);
  ASSERT_TRUE(old_model.Fit(data, &rng).ok());
  const std::string old_path = ::testing::TempDir() + "/serve_oldfmt.ckpt";
  ASSERT_TRUE(old_model.SaveCheckpoint(old_path).ok());

  ServeOptions options;
  options.batcher.max_linger_us = 0;
  options.enable_audit = true;
  options.audit.start_worker = false;
  options.audit.audit_period_ns = 1;
  options.audit.min_audit_rows = 8;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("legacy", old_path).ok());
  ASSERT_NE(server.auditor(), nullptr);

  ServeRequest request;
  request.deployment = "legacy";
  request.rows = 16;
  request.seed = 5;
  auto result = server.Synthesize(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.Value().num_rows(), 16);
  EXPECT_EQ(server.auditor()->RunOnce(), 0);

  const ServerDebugSnapshot snapshot = server.DebugSnapshot();
  ASSERT_EQ(snapshot.audit.size(), 1u);
  EXPECT_EQ(snapshot.audit[0].deployment, "legacy");
  EXPECT_FALSE(snapshot.audit[0].has_reference);
  EXPECT_EQ(snapshot.audit[0].audits, 0);
  EXPECT_EQ(snapshot.audit[0].observed_rows, 16);
  EXPECT_EQ(obs::MetricsRegistry::Global()
                .GetGauge("audit.legacy.has_reference")
                ->Value(),
            0.0);
  std::remove(old_path.c_str());
}

// --- Introspection plane (src/obs/expose wired through the server) ----------

// /statusz must be the server's own DebugSnapshot, rendered — not a second,
// drifting accounting path. With the process quiesced the scraped body is
// byte-identical to rendering the snapshot directly, and the snapshot's
// fields all appear in it.
TEST_F(ServeTest, StatuszMatchesDebugSnapshotFieldForField) {
  ServeOptions options;
  options.batcher.max_linger_us = 0;
  options.enable_introspection = true;
  options.introspection_port = 0;  // ephemeral
  SynthesisServer server(options);
  ASSERT_GT(server.IntrospectionPort(), 0);
  ASSERT_TRUE(server.RegisterDeployment("statusz", checkpoint_path_).ok());

  ServeRequest request;
  request.deployment = "statusz";
  request.rows = 16;
  request.seed = 11;
  ASSERT_TRUE(server.Synthesize(request).ok());

  const std::string target =
      "127.0.0.1:" + std::to_string(server.IntrospectionPort());
  auto body = obs::HttpGet(target, "/statusz");
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  const ServerDebugSnapshot snapshot = server.DebugSnapshot();
  EXPECT_EQ(body.Value(), RenderStatusz(snapshot));

  // Field-for-field: every deployment and headline number in the snapshot
  // surfaces verbatim in the scraped text.
  ASSERT_FALSE(snapshot.deployments.empty());
  for (const auto& deployment : snapshot.deployments) {
    EXPECT_NE(body.Value().find("  " + deployment.name + ": queue_depth=" +
                                std::to_string(deployment.queue_depth)),
              std::string::npos);
  }
  EXPECT_NE(body.Value().find(
                "loaded_models: " + std::to_string(snapshot.loaded_models)),
            std::string::npos);
  EXPECT_NE(body.Value().find("active_batchers: " +
                              std::to_string(snapshot.active_batchers)),
            std::string::npos);
  EXPECT_NE(body.Value().find(
                "flight_events: " + std::to_string(snapshot.flight_events)),
            std::string::npos);

  // The other routes answer from the same process state.
  auto healthz = obs::HttpGet(target, "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz.Value(), "ok\n");
  auto metrics = obs::HttpGet(target, "/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_TRUE(obs::ValidateExposition(metrics.Value()).ok());
  EXPECT_NE(metrics.Value().find("serve_sample_ms_count{deployment=\"statusz\"}"),
            std::string::npos);
}

// Scraping is read-only: identical seeded requests produce byte-identical
// tables whether the introspection plane (server + concurrent /metrics
// scrapes) is on or off, and the phase accounting sees the same
// number of observations either way.
TEST_F(ServeTest, SynthesisBytesIdenticalWithIntrospectionOnOrOff) {
  ServeOptions off_options;
  off_options.batcher.max_linger_us = 0;
  SynthesisServer off_server(off_options);
  ASSERT_TRUE(off_server.RegisterDeployment("ident_off", checkpoint_path_).ok());
  EXPECT_EQ(off_server.IntrospectionPort(), -1);

  ServeOptions on_options;
  on_options.batcher.max_linger_us = 0;
  on_options.enable_introspection = true;
  on_options.introspection_port = 0;
  SynthesisServer on_server(on_options);
  ASSERT_GT(on_server.IntrospectionPort(), 0);
  ASSERT_TRUE(on_server.RegisterDeployment("ident_on", checkpoint_path_).ok());

  // Hammer /metrics from a side thread while the on-server synthesizes.
  std::atomic<bool> stop{false};
  const std::string target =
      "127.0.0.1:" + std::to_string(on_server.IntrospectionPort());
  std::thread scraper([&] {
    while (!stop.load()) {
      obs::HttpGet(target, "/metrics").ok();
    }
  });

  for (int i = 0; i < 4; ++i) {
    ServeRequest off_request;
    off_request.deployment = "ident_off";
    off_request.rows = 24;
    off_request.seed = 100 + i;
    ServeRequest on_request = off_request;
    on_request.deployment = "ident_on";
    auto off_result = off_server.Synthesize(off_request);
    auto on_result = on_server.Synthesize(on_request);
    ASSERT_TRUE(off_result.ok());
    ASSERT_TRUE(on_result.ok());
    ExpectTablesEqual(off_result.Value(), on_result.Value());
  }
  stop.store(true);
  scraper.join();

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  const auto& off_phase =
      snapshot.histograms.at("serve.deploy.ident_off.sample_ms");
  const auto& on_phase =
      snapshot.histograms.at("serve.deploy.ident_on.sample_ms");
  EXPECT_EQ(off_phase.count, on_phase.count);
}

// Deployment names become Prometheus label values and metric-name segments;
// the server rejects names the exposition grammar cannot carry.
TEST_F(ServeTest, RegisterDeploymentRejectsNamesOutsideMetricGrammar) {
  SynthesisServer server(ServeOptions{});
  EXPECT_FALSE(server.RegisterDeployment("", checkpoint_path_).ok());
  EXPECT_FALSE(server.RegisterDeployment("has.dots", checkpoint_path_).ok());
  EXPECT_FALSE(server.RegisterDeployment("sp ace", checkpoint_path_).ok());
  EXPECT_FALSE(server.RegisterDeployment("quo\"te", checkpoint_path_).ok());
  EXPECT_TRUE(server.RegisterDeployment("Ok-name_2", checkpoint_path_).ok());
}

// Satellite: after a real train (SetUpTestSuite) + serve workload, every name
// in the registry passes MetricNameValid — the grammar the debug-build
// registration assert enforces.
TEST_F(ServeTest, EveryRegistryNameFromTrainAndServeIsValid) {
  ServeOptions options;
  options.batcher.max_linger_us = 0;
  options.enable_audit = true;
  options.audit.start_worker = false;
  options.audit.audit_period_ns = 1;
  options.audit.min_audit_rows = 8;
  SynthesisServer server(options);
  ASSERT_TRUE(server.RegisterDeployment("namecheck", checkpoint_path_).ok());
  ServeRequest request;
  request.deployment = "namecheck";
  request.rows = 16;
  request.seed = 21;
  ASSERT_TRUE(server.Synthesize(request).ok());
  server.auditor()->RunOnce();

  const obs::MetricsSnapshot snapshot = obs::MetricsRegistry::Global().Snapshot();
  int checked = 0;
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_TRUE(obs::MetricNameValid(name)) << name;
    ++checked;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_TRUE(obs::MetricNameValid(name)) << name;
    ++checked;
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    EXPECT_TRUE(obs::MetricNameValid(name)) << name;
    ++checked;
  }
  // Train + serve + audit instrumentation really was walked.
  EXPECT_GT(checked, 20);
}

// SILOFUSE_INTROSPECT and SILOFUSE_AUDIT override ServeOptions in both
// directions, and every off word of the flag vocabulary turns them off.
TEST_F(ServeTest, IntrospectEnvOverridesServeOptions) {
  for (const char* off : {"0", "off", "false"}) {
    ::setenv("SILOFUSE_INTROSPECT", off, 1);
    ServeOptions options;
    options.enable_introspection = true;
    SynthesisServer server(options);
    EXPECT_EQ(server.IntrospectionPort(), -1) << off;
  }
  for (const char* off : {"off", "false", "no"}) {
    ::setenv("SILOFUSE_AUDIT", off, 1);
    ServeOptions options;
    options.enable_audit = true;
    SynthesisServer server(options);
    EXPECT_EQ(server.auditor(), nullptr) << off;
  }
  {
    ::setenv("SILOFUSE_AUDIT", "on", 1);
    ServeOptions options;  // auditing off by default
    options.audit.start_worker = false;
    SynthesisServer server(options);
    EXPECT_NE(server.auditor(), nullptr);
  }
  ::unsetenv("SILOFUSE_AUDIT");
  {
    ::setenv("SILOFUSE_INTROSPECT", "auto", 1);
    ServeOptions options;  // introspection off by default
    SynthesisServer server(options);
    EXPECT_GT(server.IntrospectionPort(), 0);
    auto healthz = obs::HttpGet(
        "127.0.0.1:" + std::to_string(server.IntrospectionPort()), "/healthz");
    ASSERT_TRUE(healthz.ok());
    EXPECT_EQ(healthz.Value(), "ok\n");
  }
  ::unsetenv("SILOFUSE_INTROSPECT");
}

}  // namespace
}  // namespace serve
}  // namespace silofuse
