// Tests for the RPC substrate: serializer round-trips and bounds checking,
// message bus delivery, latency injection, drain semantics, the delivery
// threads' leader/follower wake-up protocol, and the prototype's wire
// messages.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/random.h"
#include "src/rpc/message_bus.h"
#include "src/rpc/serializer.h"
#include "src/runtime/proto_messages.h"

namespace hawk {
namespace {

TEST(SerializerTest, ScalarRoundTrip) {
  rpc::Writer w;
  w.WriteU8(200);
  w.WriteU32(123456789);
  w.WriteU64(0xDEADBEEFCAFEF00DULL);
  w.WriteI64(-42);
  w.WriteBool(true);
  w.WriteBool(false);
  const auto buf = w.Take();
  rpc::Reader r(buf);
  EXPECT_EQ(r.ReadU8(), 200);
  EXPECT_EQ(r.ReadU32(), 123456789u);
  EXPECT_EQ(r.ReadU64(), 0xDEADBEEFCAFEF00DULL);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_TRUE(r.ReadBool());
  EXPECT_FALSE(r.ReadBool());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializerTest, StringAndVectorRoundTrip) {
  rpc::Writer w;
  w.WriteString("hello hawk");
  w.WriteU32Vector({1, 2, 3});
  w.WriteI64Vector({-1, 0, 1'000'000'000'000LL});
  const auto buf = w.Take();
  rpc::Reader r(buf);
  EXPECT_EQ(r.ReadString(), "hello hawk");
  EXPECT_EQ(r.ReadU32Vector(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(r.ReadI64Vector(), (std::vector<int64_t>{-1, 0, 1'000'000'000'000LL}));
}

TEST(SerializerTest, EmptyContainers) {
  rpc::Writer w;
  w.WriteString("");
  w.WriteU32Vector({});
  const auto buf = w.Take();
  rpc::Reader r(buf);
  EXPECT_EQ(r.ReadString(), "");
  EXPECT_TRUE(r.ReadU32Vector().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(ProtoMessagesTest, JobSubmitRoundTrip) {
  runtime::JobSubmitMsg m;
  m.job = 77;
  m.is_long = true;
  m.estimate_us = 123456;
  m.task_durations_us = {100, 200, 300};
  const auto decoded = runtime::JobSubmitMsg::Decode(m.Encode());
  EXPECT_EQ(decoded.job, 77u);
  EXPECT_TRUE(decoded.is_long);
  EXPECT_EQ(decoded.estimate_us, 123456);
  EXPECT_EQ(decoded.task_durations_us, m.task_durations_us);
}

TEST(ProtoMessagesTest, TaskAndStealRoundTrip) {
  runtime::TaskMsg t;
  t.job = 5;
  t.task_index = 9;
  t.duration_us = 777;
  t.is_long = true;
  t.owner = runtime::kBackendAddress;
  t.slot = 41;
  const auto task = runtime::TaskMsg::Decode(t.Encode());
  EXPECT_EQ(task.owner, runtime::kBackendAddress);
  EXPECT_EQ(task.duration_us, 777);
  EXPECT_EQ(task.slot, 41u);

  runtime::StealResponseMsg s;
  s.probes.push_back({1, runtime::kFrontendBase, 0, false});
  s.probes.push_back({2, runtime::kFrontendBase + 3, 17, true});
  const auto steal = runtime::StealResponseMsg::Decode(s.Encode());
  ASSERT_EQ(steal.probes.size(), 2u);
  EXPECT_EQ(steal.probes[1].job, 2u);
  EXPECT_EQ(steal.probes[1].frontend, runtime::kFrontendBase + 3);
  EXPECT_EQ(steal.probes[1].slot, 17u);
  EXPECT_TRUE(steal.probes[1].is_long);
}

TEST(MessageBusTest, DeliversToRegisteredHandler) {
  rpc::MessageBus bus(std::chrono::microseconds(0));
  std::atomic<int> received{0};
  bus.Register(1, [&](const rpc::BusMessage& m) {
    EXPECT_EQ(m.from, 7u);
    EXPECT_EQ(m.type, 42u);
    EXPECT_EQ(m.payload.size(), 3u);
    received.fetch_add(1);
  });
  bus.Send(7, 1, 42, {1, 2, 3});
  bus.Drain();
  EXPECT_EQ(received.load(), 1);
  EXPECT_EQ(bus.MessagesDelivered(), 1u);
}

TEST(MessageBusTest, ManyMessagesAllDelivered) {
  rpc::MessageBus bus(std::chrono::microseconds(0), 4);
  std::atomic<int> received{0};
  for (rpc::Address a = 0; a < 10; ++a) {
    bus.Register(a, [&](const rpc::BusMessage&) { received.fetch_add(1); });
  }
  for (int i = 0; i < 1000; ++i) {
    bus.Send(0, static_cast<rpc::Address>(i % 10), 1, {});
  }
  bus.Drain();
  EXPECT_EQ(received.load(), 1000);
}

TEST(MessageBusTest, LatencyIsInjected) {
  rpc::MessageBus bus(std::chrono::microseconds(20'000));  // 20 ms
  std::atomic<bool> received{false};
  bus.Register(1, [&](const rpc::BusMessage&) { received.store(true); });
  // hawk-lint: allow(HL003) this test measures the bus's real injected latency
  const auto start = std::chrono::steady_clock::now();
  bus.Send(0, 1, 1, {});
  bus.Drain();
  const auto elapsed = std::chrono::steady_clock::now() - start;  // hawk-lint: allow(HL003) real-latency measurement

  EXPECT_TRUE(received.load());
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 19);
}

TEST(MessageBusTest, HandlersCanSendMessages) {
  // Ping-pong: handler for A forwards to B, which counts.
  rpc::MessageBus bus(std::chrono::microseconds(0));
  std::atomic<int> count{0};
  bus.Register(1, [&](const rpc::BusMessage& m) { bus.Send(1, 2, m.type, {}); });
  bus.Register(2, [&](const rpc::BusMessage&) { count.fetch_add(1); });
  for (int i = 0; i < 10; ++i) {
    bus.Send(0, 1, 1, {});
  }
  bus.Drain();
  EXPECT_EQ(count.load(), 10);
}

TEST(MessageBusTest, ShutdownIsIdempotent) {
  rpc::MessageBus bus(std::chrono::microseconds(0));
  bus.Shutdown();
  bus.Shutdown();
}

TEST(MessageBusTest, EarlierHeadReArmsTheLeader) {
  // Seed 5's jitter draws are 96.9 ms then 9.8 ms: the second message
  // becomes the head while the leader sleeps toward the first one's
  // deadline, so Send must re-arm it or the second message runs late.
  constexpr std::chrono::milliseconds kLatency(1);
  constexpr std::chrono::milliseconds kJitter(100);
  constexpr std::chrono::milliseconds kPause(5);
  constexpr std::chrono::milliseconds kSlack(20);
  constexpr uint64_t kSeed = 5;
  Rng draws(kSeed);
  const std::chrono::microseconds first(draws.UniformInt(0, kJitter.count() * 1000));
  const std::chrono::microseconds second(draws.UniformInt(0, kJitter.count() * 1000));
  ASSERT_GE(first - second, std::chrono::milliseconds(20) + kPause + kSlack)
      << "seed " << kSeed << " no longer puts the second message first";

  rpc::MessageBus bus(kLatency);
  rpc::MessageBus::FaultInjection faults;
  faults.jitter = kJitter;
  faults.seed = kSeed;
  bus.EnableFaults(faults);
  std::mutex mu;
  std::vector<uint32_t> order;
  std::chrono::nanoseconds second_delay{0};
  // hawk-lint: allow(HL003) the test times a real delivery against its deadline
  std::chrono::steady_clock::time_point second_sent;
  bus.Register(1, [&](const rpc::BusMessage& m) {
    const auto now = std::chrono::steady_clock::now();  // hawk-lint: allow(HL003) delivery time
    std::lock_guard<std::mutex> lock(mu);
    order.push_back(m.type);
    if (m.type == 2) {
      second_delay = now - second_sent;
    }
  });
  bus.Send(0, 1, 1, {});
  std::this_thread::sleep_for(kPause);  // Let a leader start waiting on message 1.
  {
    std::lock_guard<std::mutex> lock(mu);
    second_sent = std::chrono::steady_clock::now();  // hawk-lint: allow(HL003) send time
  }
  bus.Send(0, 1, 2, {});
  bus.Drain();

  std::lock_guard<std::mutex> lock(mu);
  ASSERT_EQ(order, (std::vector<uint32_t>{2, 1}));
  EXPECT_GE(second_delay, kLatency + second);
  EXPECT_LE(second_delay, kLatency + second + kSlack);
}

TEST(MessageBusTest, DueMessagesRunConcurrently) {
  // Message 0 holds one of the two delivery threads until messages 1 and 2
  // are both past due, so they are due together whichever thread looks
  // first. Handler 1 then waits for handler 2 to start: it can only see
  // that if the two run at the same time.
  constexpr std::chrono::milliseconds kLatency(20);
  rpc::MessageBus bus(kLatency, /*delivery_threads=*/2);
  std::mutex mu;
  std::condition_variable cv;
  bool second_started = false;
  bool overlapped = false;
  bus.Register(1, [&](const rpc::BusMessage& m) {
    if (m.type == 0) {
      std::this_thread::sleep_for(kLatency + std::chrono::milliseconds(10));
    } else if (m.type == 1) {
      std::unique_lock<std::mutex> lock(mu);
      overlapped = cv.wait_for(lock, std::chrono::seconds(5), [&] { return second_started; });
    } else {
      std::lock_guard<std::mutex> lock(mu);
      second_started = true;
      cv.notify_all();
    }
  });
  for (uint32_t type = 0; type < 3; ++type) {
    bus.Send(0, 1, type, {});
  }
  bus.Drain();
  EXPECT_TRUE(overlapped);
  EXPECT_EQ(bus.MessagesDelivered(), 3u);
}

TEST(MessageBusTest, ShutdownInterruptsTheLeaderWait) {
  rpc::MessageBus bus(std::chrono::seconds(10));
  std::atomic<bool> received{false};
  bus.Register(1, [&](const rpc::BusMessage&) { received.store(true); });
  bus.Send(0, 1, 1, {});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // A leader is waiting.
  // hawk-lint: allow(HL003) the test bounds how long a real Shutdown blocks
  const auto start = std::chrono::steady_clock::now();
  bus.Shutdown();
  // hawk-lint: allow(HL003) end of the timed Shutdown
  const auto elapsed = std::chrono::steady_clock::now() - start;

  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_FALSE(received.load());
  EXPECT_EQ(bus.MessagesDelivered(), 0u);
}

TEST(MessageBusTest, NoMessageIsHandledBeforeTheBaseLatency) {
  constexpr std::chrono::milliseconds kLatency(5);
  constexpr uint32_t kMessages = 60;
  rpc::MessageBus bus(kLatency, /*delivery_threads=*/3);
  // Written before each Send and read by its handler; the bus mutex orders
  // the two.
  // hawk-lint: allow(HL003) the test compares real send and delivery times
  std::vector<std::chrono::steady_clock::time_point> sent(kMessages);
  std::atomic<uint32_t> early{0};
  bus.Register(1, [&](const rpc::BusMessage& m) {
    const auto now = std::chrono::steady_clock::now();  // hawk-lint: allow(HL003) delivery time
    if (now - sent[m.type] < kLatency) {
      early.fetch_add(1);
    }
  });
  for (uint32_t i = 0; i < kMessages; ++i) {
    sent[i] = std::chrono::steady_clock::now();  // hawk-lint: allow(HL003) send time
    bus.Send(0, 1, i, {});
    if (i % 4 == 0) {
      // Mix bursts with gaps so messages meet both a waiting leader and none.
      std::this_thread::sleep_for(std::chrono::microseconds(700));
    }
  }
  bus.Drain();
  EXPECT_EQ(early.load(), 0u);
  EXPECT_EQ(bus.MessagesDelivered(), kMessages);
}

TEST(MessageBusTest, WakeupsPerMessageStayLow) {
  // Regression guard for the leader/follower protocol: a steady stream on a
  // multi-threaded bus wakes about one thread per message. Parking every
  // thread on the head's deadline would cost ~3.8 here.
  constexpr uint32_t kMessages = 200;
  rpc::MessageBus bus(std::chrono::milliseconds(1), /*delivery_threads=*/3);
  std::atomic<uint32_t> received{0};
  bus.Register(1, [&](const rpc::BusMessage&) { received.fetch_add(1); });
  for (uint32_t i = 0; i < kMessages; ++i) {
    bus.Send(0, 1, 1, {});
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  bus.Drain();
  EXPECT_EQ(received.load(), kMessages);
  EXPECT_LE(bus.Wakeups(), 2u * kMessages);
}

}  // namespace
}  // namespace hawk
